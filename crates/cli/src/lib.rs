//! Library half of the `rds` command-line tool: argument parsing, CSV
//! point decoding and the command runners, separated from `main` so they
//! are unit-testable.
//!
//! `sample` and `count` run on the [`Rds`] facade of the umbrella crate,
//! so every (window, shards) combination — including sharded sliding
//! windows — goes through one code path; `heavy` keeps its dedicated
//! structure (heavy hitters are not a sampling problem). Configuration
//! errors surface as typed [`RdsError`]s and exit with code 2; I/O and
//! data errors exit with code 1.

#![warn(missing_docs)]

use rds_core::{RdsError, RobustHeavyHitters};
use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem, Window};
use robust_distinct_sampling::{Rds, RdsBuilder, Snapshot};
use std::io::BufRead;
use std::slice::Iter;

/// Which command to run.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Draw one (or `k`) uniform samples over entities.
    Sample {
        /// Number of distinct samples.
        k: usize,
    },
    /// Estimate the number of distinct entities.
    Count {
        /// Target relative error.
        eps: f64,
    },
    /// Report entities owning more than a `phi` fraction of the stream.
    Heavy {
        /// Frequency threshold.
        phi: f64,
    },
    /// Ingest the stream and persist the published [`Snapshot`] as JSON.
    SnapshotSave {
        /// Where to write the snapshot file.
        path: String,
    },
    /// Answer `query_k` and `f0` offline from a saved snapshot file (no
    /// stream input).
    SnapshotQuery {
        /// The snapshot file to load.
        path: String,
        /// Number of distinct samples to print.
        k: usize,
    },
    /// Ingest the stream and persist a durable full-state checkpoint
    /// (versioned, checksummed container; resumable with
    /// `checkpoint restore`).
    CheckpointSave {
        /// Where to write the checkpoint file.
        path: String,
    },
    /// Restore a checkpoint, resume ingesting from stdin (possibly
    /// empty), then print the estimate and `--k` samples. The sampler
    /// configuration comes from the file's config echo.
    CheckpointRestore {
        /// The checkpoint file to load.
        path: String,
        /// Number of distinct samples to print.
        k: usize,
    },
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Cli {
    /// The selected command.
    pub command: Command,
    /// The stream the command runs on, built once the first input line
    /// fixes the dimension: `k` for `sample` and the count accuracy for
    /// `count` are already applied. `heavy` reads its `alpha` here and
    /// `snapshot query` its seed (the draw token); for `checkpoint
    /// restore` it is empty, since the file configures the stream.
    pub stream: RdsBuilder,
}

/// How a run failed, split by exit code: usage and configuration errors
/// exit 2, I/O and data errors exit 1.
#[derive(Clone, Debug, PartialEq)]
pub enum CliError {
    /// Malformed command line (unknown flag, missing value, out-of-range
    /// parameter caught at parse time).
    Usage(String),
    /// The sampler configuration was rejected by the library's typed
    /// validation ([`RdsError`]) — one line on stderr, never a panic
    /// backtrace.
    Config(RdsError),
    /// I/O failure or malformed stream data.
    Runtime(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Runtime(msg) => write!(f, "{msg}"),
            CliError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl CliError {
    /// The process exit code this error class maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) | CliError::Config(_) => 2,
            CliError::Runtime(_) => 1,
        }
    }
}

/// `--seed`'s default for every command but `serve`.
const SEED_DEFAULT: u64 = 1;

/// `--seed`'s default for `serve`. Every tenant's seed derives from it,
/// and a spilled tenant restores only under the seed it was built with,
/// so a server started without `--seed` must keep serving seed 0.
const SERVE_SEED_DEFAULT: u64 = 0;

/// The stream flags [`parse_cli`] and [`parse_serve`] share, parsed in
/// one place.
struct StreamFlags {
    /// `--alpha`, `--seed`, `--expected-len` and `--shards`, over the
    /// command's seed default.
    stream: RdsBuilder,
    /// `--window`: its kind is known once `--time` may have followed.
    window: Option<u64>,
    time: bool,
    /// `--k` and `--eps`, applied by `into_stream` when given (`sample`
    /// and `count` add their defaults).
    k: Option<usize>,
    eps: Option<f64>,
    /// Every stream flag given: a command whose file configures the
    /// stream refuses them.
    given: Vec<String>,
}

impl StreamFlags {
    fn new(seed: u64) -> Self {
        Self {
            stream: Rds::builder().seed(seed),
            window: None,
            time: false,
            k: None,
            eps: None,
            given: Vec::new(),
        }
    }

    /// Takes `flag`, and its value from `it`, if it is a stream flag;
    /// returns whether it was.
    fn take(&mut self, flag: &str, it: &mut Iter<'_, String>) -> Result<bool, String> {
        match flag {
            "--time" => self.time = true,
            "--window" => self.window = Some(next_num(it, flag)?),
            "--k" => self.k = Some(next_num(it, flag)?),
            "--eps" => self.eps = Some(next_num(it, flag)?),
            "--alpha" | "--seed" | "--expected-len" | "--shards" => {
                let b = std::mem::take(&mut self.stream);
                self.stream = match flag {
                    "--alpha" => b.alpha(next_num(it, flag)?),
                    "--seed" => b.seed(next_num(it, flag)?),
                    "--expected-len" => b.expected_len(next_num(it, flag)?),
                    _ => b.shards(next_num(it, flag)?),
                };
            }
            _ => return Ok(false),
        }
        self.given.push(flag.to_string());
        Ok(true)
    }

    /// Fails when a stream flag outside `exempt` was given to `cmd`,
    /// whose file configures the stream. Explicit values are refused
    /// too (an `--alpha 0.0` must not slip through), and so are inert
    /// ones.
    fn refuse(&self, cmd: &str, exempt: &[&str]) -> Result<(), String> {
        match self.given.iter().find(|f| !exempt.contains(&f.as_str())) {
            Some(flag) => Err(format!(
                "{cmd} reads the sampler configuration from the file's \
                 config echo; {flag} does not apply"
            )),
            None => Ok(()),
        }
    }

    /// The stream of a command its flags configure: `--alpha` is
    /// required and positive, `--shards` at least 1, `--window W` keeps
    /// the last `W` items, or `W` time units with `--time` (which needs
    /// `--window`), and `--k` and `--eps`, when given, set the number of
    /// distinct samples and the F0 accuracy. Every command that ingests a
    /// stream, `serve` included, configures it here. Parameter values the
    /// parser cannot judge (a NaN `--alpha`) are left to the facade's
    /// validation.
    fn into_stream(self) -> Result<RdsBuilder, String> {
        let alpha = self.stream.get_alpha().ok_or("--alpha is required")?;
        if alpha <= 0.0 {
            return Err("--alpha must be positive".into());
        }
        if self.stream.get_shards() == 0 {
            return Err("--shards must be at least 1".into());
        }
        let mut stream = match self.window {
            Some(w) if self.time => self.stream.window(Window::Time(w)),
            Some(w) => self.stream.window(Window::Sequence(w)),
            None if self.time => return Err("--time needs --window".into()),
            None => self.stream,
        };
        if let Some(k) = self.k {
            stream = stream.k(k);
        }
        if let Some(eps) = self.eps {
            stream = stream.count_accuracy(checked_eps(eps)?);
        }
        Ok(stream)
    }
}

/// `eps` when it is a valid `--eps`: in `(0, 1]`.
fn checked_eps(eps: f64) -> Result<f64, String> {
    if eps > 0.0 && eps <= 1.0 {
        Ok(eps)
    } else {
        Err("--eps must be in (0, 1]".into())
    }
}

fn next_value<'a>(it: &mut Iter<'a, String>, name: &str) -> Result<&'a String, String> {
    it.next().ok_or(format!("{name} expects a value"))
}

fn next_num<T: std::str::FromStr>(it: &mut Iter<'_, String>, name: &str) -> Result<T, String> {
    let s = next_value(it, name)?;
    s.parse().map_err(|_| format!("{name}: invalid number {s}"))
}

/// Parses the command line. `args` excludes the program name.
///
/// # Errors
///
/// Returns a human-readable message on malformed input. Parameter
/// combinations the parser cannot judge (e.g. a NaN `--alpha`) are left
/// to the facade's [`RdsError`] validation at run time.
pub fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?;
    // `snapshot <save|query> <path>` and `checkpoint <save|restore>
    // <path>` carry two positional operands.
    let mut file_action: Option<(String, String)> = None;
    if cmd == "snapshot" || cmd == "checkpoint" {
        let expects = if cmd == "snapshot" {
            "<save|query>"
        } else {
            "<save|restore>"
        };
        let action = it.next().ok_or(format!("{cmd} expects {expects} <path>"))?;
        let path = it
            .next()
            .ok_or(format!("{cmd} {action} expects a file path"))?;
        file_action = Some((action.clone(), path.clone()));
    }
    let mut flags = StreamFlags::new(SEED_DEFAULT);
    let mut phi = 0.1f64;
    while let Some(a) = it.next() {
        if flags.take(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--phi" => {
                phi = next_num(&mut it, "--phi")?;
                // inert for `checkpoint restore`, which refuses it
                flags.given.push("--phi".into());
            }
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    let k = flags.k.unwrap_or(1);
    let command = match cmd.as_str() {
        "sample" => Command::Sample { k },
        "count" => Command::Count {
            eps: checked_eps(flags.eps.unwrap_or(0.3))?,
        },
        "heavy" => Command::Heavy { phi },
        "snapshot" => match file_action.expect("set above for snapshot") {
            (action, path) if action == "save" => Command::SnapshotSave { path },
            (action, path) if action == "query" => Command::SnapshotQuery { path, k },
            (action, _) => return Err(format!("unknown snapshot action {action}\n{}", usage())),
        },
        "checkpoint" => match file_action.expect("set above for checkpoint") {
            (action, path) if action == "save" => Command::CheckpointSave { path },
            (action, path) if action == "restore" => Command::CheckpointRestore { path, k },
            (action, _) => return Err(format!("unknown checkpoint action {action}\n{}", usage())),
        },
        other => return Err(format!("unknown command {other}\n{}", usage())),
    };
    let stream = match &command {
        // `--k` is the number of samples it prints.
        Command::CheckpointRestore { .. } => {
            flags.refuse("checkpoint restore", &["--k"])?;
            Rds::builder()
        }
        Command::SnapshotQuery { .. } => {
            if flags.window.is_some() || flags.stream.get_shards() != 1 {
                return Err("snapshot query reads a file; --window/--shards do not apply".into());
            }
            flags.stream
        }
        Command::Heavy { .. } if flags.window.is_some() => {
            return Err("heavy does not support --window".into());
        }
        Command::Heavy { .. } if flags.stream.get_shards() > 1 => {
            return Err("heavy does not support --shards".into());
        }
        Command::Sample { k } => flags.into_stream()?.k((*k).max(1)),
        Command::Count { eps } => flags.into_stream()?.count_accuracy(*eps),
        Command::Heavy { .. } | Command::SnapshotSave { .. } | Command::CheckpointSave { .. } => {
            flags.into_stream()?
        }
    };
    Ok(Cli { command, stream })
}

/// Parses `serve` arguments (everything after the `serve` word) into a
/// [`rds_server::ServerConfig`].
///
/// `--dim` and `--alpha` are required unless `--restore PATH` is given,
/// in which case the checkpoint's config echo configures the stream and
/// the stream flags are refused (as `checkpoint restore` refuses them);
/// `--publish-every` applies either way.
///
/// # Errors
///
/// Returns a human-readable message on malformed input.
pub fn parse_serve(args: &[String]) -> Result<rds_server::ServerConfig, String> {
    let mut cfg = rds_server::ServerConfig::new(Rds::builder());
    cfg.addr = "127.0.0.1:8080".to_string();
    let mut flags = StreamFlags::new(SERVE_SEED_DEFAULT);
    let mut dim: Option<usize> = None;
    let mut publish_every: Option<u64> = None;
    let mut tenants = false;
    let mut budget_words: Option<usize> = None;
    let mut spill_dir: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        if flags.take(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--addr" => cfg.addr = next_value(&mut it, "--addr")?.clone(),
            "--threads" => cfg.threads = next_num(&mut it, "--threads")?,
            "--max-body-bytes" => cfg.max_body_bytes = next_num(&mut it, "--max-body-bytes")?,
            "--read-timeout-ms" => cfg.read_timeout_ms = next_num(&mut it, "--read-timeout-ms")?,
            "--dim" => {
                dim = Some(next_num(&mut it, "--dim")?);
                flags.given.push("--dim".into());
            }
            "--publish-every" => publish_every = Some(next_num(&mut it, "--publish-every")?),
            "--restore" => cfg.restore_from = Some(next_value(&mut it, "--restore")?.clone()),
            "--tenants" => tenants = true,
            "--budget-words" => budget_words = Some(next_num(&mut it, "--budget-words")?),
            "--spill-dir" => spill_dir = Some(next_value(&mut it, "--spill-dir")?.clone()),
            other => return Err(format!("unknown serve option {other}\n{}", usage())),
        }
    }

    let stream = if cfg.restore_from.is_some() {
        flags.refuse("serve --restore", &[])?;
        Rds::builder()
    } else {
        let dim = dim.ok_or("serve needs --dim (or --restore)")?;
        flags.into_stream()?.dim(dim)
    };
    cfg.stream = match publish_every {
        Some(n) => stream.publish_every(n),
        None => stream,
    };
    if cfg.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if tenants {
        let budget_words =
            budget_words.ok_or("--tenants needs --budget-words N (global space budget)")?;
        if budget_words == 0 {
            return Err("--budget-words must be at least 1".into());
        }
        let spill_dir =
            spill_dir.ok_or("--tenants needs --spill-dir PATH (eviction spill directory)")?;
        cfg.tenants = Some(rds_server::TenancyConfig {
            budget_words,
            spill_dir,
        });
    } else if budget_words.is_some() || spill_dir.is_some() {
        return Err("--budget-words/--spill-dir only apply with --tenants".into());
    }
    Ok(cfg)
}

/// Binds the HTTP server and announces the resolved address on `out`
/// (flushed before returning, so scripts can poll the line even when
/// stdout is a pipe). The caller joins the returned handle; the process
/// then runs until `POST /admin/shutdown`.
///
/// # Errors
///
/// [`CliError::Config`] when the stream configuration or the checkpoint
/// is rejected,
/// [`CliError::Runtime`] when the address cannot be bound.
pub fn run_serve<W: std::io::Write>(
    cfg: rds_server::ServerConfig,
    out: &mut W,
) -> Result<rds_server::ServerHandle, CliError> {
    let handle = rds_server::bind(cfg).map_err(|e| match e {
        rds_server::ServerError::Config(e) => CliError::Config(e),
        rds_server::ServerError::Io(e) => CliError::Runtime(format!("bind: {e}")),
    })?;
    writeln!(out, "rds-server listening on {}", handle.addr())
        .and_then(|()| out.flush())
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    Ok(handle)
}

/// The usage string.
pub fn usage() -> String {
    "usage: rds <sample|count|heavy|snapshot|checkpoint|serve> --alpha A [options] < points.csv\n\
     \n\
     Points arrive on stdin, one per line, comma- or whitespace-separated\n\
     coordinates. With --time, the LAST column is the item's timestamp.\n\
     Invalid flags or parameter combinations exit with code 2.\n\
     \n\
     commands:\n\
     \x20 sample                print a uniform random entity\n\
     \x20 count                 print the estimated number of entities\n\
     \x20 heavy                 print entities above a frequency threshold\n\
     \x20 snapshot save <path>  ingest stdin, persist the snapshot as JSON\n\
     \x20 snapshot query <path> answer --k samples + f0 offline from a\n\
     \x20                       saved snapshot (no stream input; --seed\n\
     \x20                       varies or replays the draw)\n\
     \x20 checkpoint save <path>     ingest stdin, persist the sampler's\n\
     \x20                       full state (versioned, checksummed; any\n\
     \x20                       window/shard combination)\n\
     \x20 checkpoint restore <path>  restore the state, resume ingesting\n\
     \x20                       stdin (may be empty), print f0 + --k\n\
     \x20                       samples; config comes from the file\n\
     \x20 serve                 serve the sampler over HTTP (no stdin);\n\
     \x20                       needs --dim D --alpha A, or --restore\n\
     \x20                       <path> to boot from a checkpoint. Extra\n\
     \x20                       flags: --addr H:P (default 127.0.0.1:8080;\n\
     \x20                       port 0 = ephemeral), --threads N,\n\
     \x20                       --publish-every N, --max-body-bytes B,\n\
     \x20                       --read-timeout-ms T.\n\
     \x20                       Multi-tenant mode: --tenants with\n\
     \x20                       --budget-words N (global space budget)\n\
     \x20                       and --spill-dir PATH (eviction spill\n\
     \x20                       directory) serves keyed streams under\n\
     \x20                       /t/{tenant}/ingest|query|query_k|f0.\n\
     \x20                       Runs until POST /admin/shutdown.\n\
     options:\n\
     \x20 --alpha A          near-duplicate distance threshold (required)\n\
     \x20 --k N              number of distinct samples (sample default 1;\n\
     \x20                    also kept by the save commands and serve)\n\
     \x20 --eps E            accuracy target (count default 0.3; one\n\
     \x20                    threshold-tuned estimate, sharded or not;\n\
     \x20                    also kept by the save commands and serve)\n\
     \x20 --phi P            frequency threshold (heavy; default 0.1)\n\
     \x20 --window W         restrict to the last W items\n\
     \x20 --time             window is time-based (last column = timestamp)\n\
     \x20 --seed S           PRNG seed (default 1; serve: 0)\n\
     \x20 --expected-len M   expected stream length (default 2^20)\n\
     \x20 --shards N         shard ingestion across N workers\n\
     \x20                    (sample/count, any window model; default 1)\n"
        .to_string()
}

/// Parses one CSV/whitespace line into coordinates (and, with
/// `with_time`, splits off the trailing timestamp).
///
/// # Errors
///
/// Returns a message naming the offending token.
pub fn parse_line(line: &str, with_time: bool) -> Result<Option<(Point, u64)>, String> {
    let tokens: Vec<&str> = line
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|t| !t.is_empty())
        .collect();
    if tokens.is_empty() || tokens[0].starts_with('#') {
        return Ok(None);
    }
    let (coord_tokens, time) = if with_time {
        let (last, rest) = tokens.split_last().ok_or("empty line")?;
        let t: u64 = last
            .parse()
            .map_err(|_| format!("invalid timestamp {last}"))?;
        (rest, t)
    } else {
        (&tokens[..], 0)
    };
    if coord_tokens.is_empty() {
        return Err("line has a timestamp but no coordinates".into());
    }
    let coords: Result<Vec<f64>, String> = coord_tokens
        .iter()
        .map(|t| t.parse().map_err(|_| format!("invalid coordinate {t}")))
        .collect();
    // `parse` accepts "nan" and "inf", which no point may hold.
    let point = Point::try_from_slice(&coords?).map_err(|e| format!("invalid point: {e}"))?;
    Ok(Some((point, time)))
}

/// Runs the tool against a reader, writing human-readable results to a
/// writer. Returns the number of points processed.
///
/// # Errors
///
/// [`CliError::Config`] for rejected sampler parameters (exit 2),
/// [`CliError::Runtime`] for I/O and data failures (exit 1).
pub fn run<R: BufRead, W: std::io::Write>(
    cli: &Cli,
    input: R,
    out: &mut W,
) -> Result<u64, CliError> {
    if let Command::SnapshotQuery { path, k } = &cli.command {
        return run_snapshot_query(path, *k, cli.stream.get_seed(), out);
    }
    if let Command::CheckpointRestore { path, k } = &cli.command {
        return run_checkpoint_restore(path, *k, input, out);
    }
    let with_time = matches!(cli.stream.get_window(), Window::Time(_));
    let mut dim: Option<usize> = None;
    let mut n = 0u64;

    // lazily constructed once the dimension is known
    let mut rds: Option<Rds> = None;
    let mut heavy: Option<RobustHeavyHitters> = None;

    for line in input.lines() {
        let line = line.map_err(|e| CliError::Runtime(e.to_string()))?;
        let Some((point, time)) = parse_line(&line, with_time).map_err(CliError::Runtime)? else {
            continue;
        };
        let d = *dim.get_or_insert(point.dim());
        if point.dim() != d {
            return Err(CliError::Runtime(format!(
                "dimension changed from {d} to {} at line {n}",
                point.dim()
            )));
        }
        if rds.is_none() && heavy.is_none() {
            if let Command::Heavy { phi } = &cli.command {
                // An unset alpha is NaN, which the validation rejects.
                let alpha = cli.stream.get_alpha().unwrap_or(f64::NAN);
                heavy = Some(RobustHeavyHitters::try_new(*phi, alpha).map_err(CliError::Config)?);
            } else {
                rds = Some(
                    cli.stream
                        .clone()
                        .dim(d)
                        .build()
                        .map_err(CliError::Config)?,
                );
            }
        }
        if let Some(r) = rds.as_mut() {
            let stamp = if with_time {
                Stamp::new(n, time)
            } else {
                Stamp::at(n)
            };
            r.process_item(StreamItem::new(point, stamp));
        } else if let Some(h) = heavy.as_mut() {
            h.process(&point);
        }
        n += 1;
    }

    let w =
        |out: &mut W, s: String| writeln!(out, "{s}").map_err(|e| CliError::Runtime(e.to_string()));
    match &cli.command {
        Command::Sample { k } => {
            if let Some(mut r) = rds {
                for rec in r.query_k(*k) {
                    w(
                        out,
                        format!("{:?} (seen {} times)", rec.rep.coords(), rec.count),
                    )?;
                }
            }
        }
        Command::Count { .. } => {
            if let Some(mut r) = rds {
                w(out, format!("{:.1}", r.f0_estimate()))?;
            }
        }
        Command::Heavy { .. } => {
            if let Some(h) = heavy {
                for g in h.heavy_hitters() {
                    w(
                        out,
                        format!(
                            "{:?} count>={} (+/-{})",
                            g.rep.coords(),
                            g.count.saturating_sub(g.error),
                            g.error
                        ),
                    )?;
                }
            }
        }
        Command::SnapshotSave { path } => {
            let Some(mut r) = rds else {
                return Err(CliError::Runtime(
                    "snapshot save needs at least one input point".into(),
                ));
            };
            let snap = r.snapshot();
            let json = serde_json::to_string(&*snap)
                .map_err(|e| CliError::Runtime(format!("serialize snapshot: {e}")))?;
            rds_core::persist::write_atomic(path, json)
                .map_err(|e| CliError::Runtime(format!("write {path}: {e}")))?;
            w(
                out,
                format!(
                    "snapshot epoch {} covering {} items -> {path}",
                    snap.epoch(),
                    snap.seen()
                ),
            )?;
        }
        Command::CheckpointSave { path } => {
            let Some(mut r) = rds else {
                return Err(CliError::Runtime(
                    "checkpoint save needs at least one input point".into(),
                ));
            };
            let f0 = r.f0_estimate();
            r.checkpoint_to(path)
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            w(
                out,
                format!("checkpoint covering {n} items f0 {f0:.1} -> {path}"),
            )?;
        }
        Command::SnapshotQuery { .. } | Command::CheckpointRestore { .. } => {
            unreachable!("handled before the input loop")
        }
    }
    Ok(n)
}

/// Restores a checkpoint, resumes ingesting the reader's stream (which
/// may be empty), then prints `f0 <estimate> seen <total>` and `k`
/// samples. Stamps continue from the checkpointed arrival counter; for a
/// time-based window the last input column is the item's timestamp, as
/// with `--time`.
fn run_checkpoint_restore<R: BufRead, W: std::io::Write>(
    path: &str,
    k: usize,
    input: R,
    out: &mut W,
) -> Result<u64, CliError> {
    let (mut writer, reader) = Rds::builder()
        .restore_from(path)
        .map_err(CliError::Config)?;
    let with_time = matches!(writer.window(), Window::Time(_));
    let dim = writer.dim();
    let base = writer.seen();
    let mut n = 0u64;
    for line in input.lines() {
        let line = line.map_err(|e| CliError::Runtime(e.to_string()))?;
        let Some((point, time)) = parse_line(&line, with_time).map_err(CliError::Runtime)? else {
            continue;
        };
        if point.dim() != dim {
            return Err(CliError::Runtime(format!(
                "resumed stream has dimension {} but the checkpoint was \
                 built for dimension {dim}",
                point.dim()
            )));
        }
        let stamp = if with_time {
            Stamp::new(base + n, time)
        } else {
            Stamp::at(base + n)
        };
        writer.process_item(StreamItem::new(point, stamp));
        n += 1;
    }
    writer.publish();
    let w =
        |out: &mut W, s: String| writeln!(out, "{s}").map_err(|e| CliError::Runtime(e.to_string()));
    w(
        out,
        format!("f0 {:.1} seen {}", reader.f0_estimate(), reader.seen()),
    )?;
    for rec in reader.query_k(k.max(1)) {
        w(
            out,
            format!("{:?} (seen {} times)", rec.rep.coords(), rec.count),
        )?;
    }
    Ok(n)
}

/// Answers `query_k` and `f0` offline from a snapshot file. The `seed`
/// picks the draw token, so repeated invocations can replay or vary the
/// sample.
fn run_snapshot_query<W: std::io::Write>(
    path: &str,
    k: usize,
    seed: u64,
    out: &mut W,
) -> Result<u64, CliError> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("read {path}: {e}")))?;
    let snap: Snapshot =
        serde_json::from_str(&json).map_err(|e| CliError::Runtime(format!("parse {path}: {e}")))?;
    let w =
        |out: &mut W, s: String| writeln!(out, "{s}").map_err(|e| CliError::Runtime(e.to_string()));
    w(
        out,
        format!(
            "epoch {} seen {} f0 {:.1}",
            snap.epoch(),
            snap.seen(),
            snap.f0_estimate()
        ),
    )?;
    for rec in snap.query_k_at(k.max(1), seed) {
        w(
            out,
            format!("{:?} (seen {} times)", rec.rep.coords(), rec.count),
        )?;
    }
    Ok(snap.seen())
}

#[cfg(test)]
mod tests {
    use super::*;
    use robust_distinct_sampling::PublishCadence;
    use std::io::Cursor;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_sample_command() {
        let cli = parse_cli(&args("sample --alpha 0.5 --k 3 --seed 9")).expect("valid");
        assert_eq!(cli.command, Command::Sample { k: 3 });
        assert_eq!(cli.stream.get_alpha(), Some(0.5));
        assert_eq!(cli.stream.get_seed(), 9);
        assert!(cli.stream.get_window().is_infinite());
    }

    #[test]
    fn parses_windowed_time_command() {
        let cli =
            parse_cli(&args("count --alpha 1.0 --eps 0.2 --window 100 --time")).expect("valid");
        assert_eq!(cli.command, Command::Count { eps: 0.2 });
        assert_eq!(cli.stream.get_window(), Window::Time(100));
    }

    #[test]
    fn rejects_missing_alpha() {
        assert!(parse_cli(&args("sample --k 2")).is_err());
    }

    #[test]
    fn rejects_unknown_command() {
        assert!(parse_cli(&args("frobnicate --alpha 1")).is_err());
    }

    #[test]
    fn rejects_bad_numbers() {
        assert!(parse_cli(&args("sample --alpha banana")).is_err());
        assert!(parse_cli(&args("sample --alpha 1 --k -3")).is_err());
    }

    #[test]
    fn rejects_out_of_range_eps_at_parse_time() {
        // Regression: --eps 0 on the sharded path used to saturate the
        // kappa_B/eps^2 threshold instead of erroring.
        for bad in ["0", "-0.5", "1.5", "nan"] {
            let err = parse_cli(&args(&format!("count --alpha 0.5 --eps {bad}")))
                .expect_err("invalid eps");
            assert!(err.contains("--eps"), "error: {err}");
        }
        assert!(parse_cli(&args("count --alpha 0.5 --eps 1.0")).is_ok());
    }

    #[test]
    fn nan_alpha_is_a_typed_config_error_not_a_panic() {
        // "nan" parses as f64 and slips past the sign check; the facade's
        // typed validation must catch it — one line, exit code 2.
        let cli = parse_cli(&args("sample --alpha nan")).expect("parses");
        let mut out = Vec::new();
        let err = run(&cli, Cursor::new("1,2\n"), &mut out).expect_err("invalid alpha");
        assert!(matches!(
            err,
            CliError::Config(RdsError::InvalidAlpha { .. })
        ));
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("alpha"), "message: {err}");
    }

    #[test]
    fn parses_csv_and_whitespace_lines() {
        let (p, _) = parse_line("1.5, 2.5, -3", false)
            .expect("valid")
            .expect("point");
        assert_eq!(p, Point::new(vec![1.5, 2.5, -3.0]));
        let (p2, _) = parse_line("  4 5 6 ", false)
            .expect("valid")
            .expect("point");
        assert_eq!(p2.dim(), 3);
    }

    #[test]
    fn parses_trailing_timestamp() {
        let (p, t) = parse_line("1,2,77", true).expect("valid").expect("point");
        assert_eq!(p, Point::new(vec![1.0, 2.0]));
        assert_eq!(t, 77);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        assert!(parse_line("", false).expect("ok").is_none());
        assert!(parse_line("# header", false).expect("ok").is_none());
    }

    #[test]
    fn rejects_garbage_coordinates() {
        assert!(parse_line("1,two,3", false).is_err());
        assert!(parse_line("nan,1", false).is_err());
        assert!(parse_line("1,-inf", false).is_err());
        assert!(parse_line("1,2,notatime", true).is_err());
    }

    #[test]
    fn end_to_end_sample() {
        let cli = parse_cli(&args("sample --alpha 0.5 --seed 3")).expect("valid");
        let mut input = String::new();
        for i in 0..50 {
            input.push_str(&format!("{}.0, 0.0\n", (i % 5) * 10));
        }
        let mut out = Vec::new();
        let n = run(&cli, Cursor::new(input), &mut out).expect("runs");
        assert_eq!(n, 50);
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("seen"), "output: {text}");
    }

    #[test]
    fn end_to_end_count() {
        let cli = parse_cli(&args("count --alpha 0.5 --eps 1.0")).expect("valid");
        let mut input = String::new();
        for i in 0..60 {
            input.push_str(&format!("{}.0\n", (i % 6) * 10));
        }
        let mut out = Vec::new();
        run(&cli, Cursor::new(input), &mut out).expect("runs");
        let text = String::from_utf8(out).expect("utf8");
        let est: f64 = text.trim().parse().expect("a number");
        assert_eq!(est, 6.0);
    }

    #[test]
    fn end_to_end_heavy() {
        let cli = parse_cli(&args("heavy --alpha 0.5 --phi 0.4")).expect("valid");
        let mut input = String::new();
        for i in 0..100 {
            let g = if i % 2 == 0 { 0 } else { 1 + i % 7 };
            input.push_str(&format!("{}.0\n", g * 10));
        }
        let mut out = Vec::new();
        run(&cli, Cursor::new(input), &mut out).expect("runs");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.lines().count() == 1, "only group 0 is heavy: {text}");
    }

    #[test]
    fn end_to_end_windowed_count_sees_only_live_points() {
        // 25 points cycling 5 far-apart groups, then 10 points all in group
        // 0. With a sequence window of 10 only group 0 is live, so the
        // windowed estimate must be far below the whole-stream 5 groups.
        let cli = parse_cli(&args("count --alpha 0.5 --window 10")).expect("valid");
        let mut input = String::new();
        for i in 0..25 {
            input.push_str(&format!("{}.0\n", (i % 5) * 10));
        }
        for _ in 0..10 {
            input.push_str("0.0\n");
        }
        let mut out = Vec::new();
        run(&cli, Cursor::new(input), &mut out).expect("runs");
        let text = String::from_utf8(out).expect("utf8");
        let est: f64 = text.trim().parse().expect("a number");
        assert!((1.0..2.0).contains(&est), "windowed estimate: {est}");
    }

    #[test]
    fn end_to_end_time_windowed_count_expires_old_timestamps() {
        // Timestamps 1, 2, 9 with a time window of 3: only the last point
        // (time 9) is live at the end of the stream.
        let cli = parse_cli(&args("count --alpha 0.5 --window 3 --time")).expect("valid");
        let input = "0,0,1\n5,5,2\n9,1,9\n";
        let mut out = Vec::new();
        run(&cli, Cursor::new(input), &mut out).expect("runs");
        let text = String::from_utf8(out).expect("utf8");
        let est: f64 = text.trim().parse().expect("a number");
        assert!((1.0..2.0).contains(&est), "time-windowed estimate: {est}");
    }

    #[test]
    fn rejects_heavy_with_window_at_parse_time() {
        let err = parse_cli(&args("heavy --alpha 0.5 --window 5")).expect_err("invalid");
        assert!(err.contains("--window"), "error: {err}");
    }

    #[test]
    fn time_without_window_is_refused_by_every_stream_command() {
        // Without the refusal the stamp column was read as a coordinate.
        for cmd in [
            "count --alpha 0.5 --time",
            "sample --alpha 0.5 --time",
            "heavy --alpha 0.5 --time",
            "snapshot save /tmp/s.json --alpha 0.5 --time",
            "checkpoint save /tmp/c.chk --alpha 0.5 --time",
        ] {
            let err = parse_cli(&args(cmd)).expect_err("invalid");
            assert!(err.contains("--time needs --window"), "`{cmd}`: {err}");
        }
        assert!(parse_cli(&args("count --alpha 0.5 --window 3 --time")).is_ok());
    }

    #[test]
    fn save_commands_honour_eps_and_k() {
        let dir = std::env::temp_dir().join(format!("rds-cli-eps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        // 200 distinct entities: the default threshold subsamples them,
        // the count regime of --eps 0.1 keeps every one.
        let input: String = (0..200).map(|i| format!("{}.0, 1.0\n", i * 10)).collect();
        for (cmd, file) in [("checkpoint save", "c.chk"), ("snapshot save", "s.json")] {
            let path = dir.join(file);
            let path = path.to_str().expect("utf8 path");
            let cli = parse_cli(&args(&format!("{cmd} {path} --alpha 0.5 --eps 0.1 --k 3")))
                .expect("valid");
            let mut out = Vec::new();
            run(&cli, Cursor::new(input.clone()), &mut out).expect("saves");
            // Both config echoes carry `k`; a checkpoint's also carries
            // `eps` (a snapshot keeps only the sampler configuration).
            let saved = std::fs::read_to_string(path).expect("saved file");
            assert!(
                saved.contains("\"k\":3"),
                "`{cmd}`: no k in the config echo"
            );
            if cmd == "checkpoint save" {
                assert!(saved.contains("\"eps\":0.1"), "`{cmd}`: eps not saved");
                let text = String::from_utf8(out).expect("utf8");
                assert!(text.contains("f0 200.0"), "`{cmd}` output: {text}");
            }
        }
        let restore = format!("checkpoint restore {}", dir.join("c.chk").display());
        let cli = parse_cli(&args(&restore)).expect("valid");
        let mut out = Vec::new();
        run(&cli, Cursor::new(""), &mut out).expect("restores");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("f0 200.0"), "restored estimate: {text}");
        let query = format!("snapshot query {} --k 1000", dir.join("s.json").display());
        let cli = parse_cli(&args(&query)).expect("valid");
        let mut out = Vec::new();
        run(&cli, Cursor::new(""), &mut out).expect("queries");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("f0 200.0"), "snapshot estimate: {text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_shards_flag() {
        let cli = parse_cli(&args("count --alpha 0.5 --shards 8")).expect("valid");
        assert_eq!(cli.stream.get_shards(), 8);
        let cli = parse_cli(&args("sample --alpha 0.5")).expect("valid");
        assert_eq!(cli.stream.get_shards(), 1, "default is unsharded");
    }

    #[test]
    fn rejects_invalid_shard_combinations_at_parse_time() {
        let err = parse_cli(&args("count --alpha 0.5 --shards 0")).expect_err("invalid");
        assert!(err.contains("--shards"), "error: {err}");
        let err = parse_cli(&args("heavy --alpha 0.5 --shards 4")).expect_err("invalid");
        assert!(err.contains("--shards"), "error: {err}");
    }

    #[test]
    fn end_to_end_sharded_count_matches_unsharded() {
        // 12 well-separated entities, 10 observations each: both pipelines
        // count them exactly.
        let mut input = String::new();
        for i in 0..120 {
            input.push_str(&format!("{}.0\n", (i % 12) * 10));
        }
        let run_with = |extra: &str| -> f64 {
            let cli =
                parse_cli(&args(&format!("count --alpha 0.5 --eps 1.0{extra}"))).expect("valid");
            let mut out = Vec::new();
            run(&cli, Cursor::new(input.clone()), &mut out).expect("runs");
            String::from_utf8(out)
                .expect("utf8")
                .trim()
                .parse()
                .expect("a number")
        };
        assert_eq!(run_with(" --shards 4"), 12.0);
        assert_eq!(run_with(""), run_with(" --shards 4"));
    }

    #[test]
    fn end_to_end_sharded_sample() {
        let cli = parse_cli(&args("sample --alpha 0.5 --k 3 --shards 4 --seed 2")).expect("valid");
        let mut input = String::new();
        for i in 0..100 {
            input.push_str(&format!("{}.0, 0.0\n", (i % 10) * 10));
        }
        let mut out = Vec::new();
        let n = run(&cli, Cursor::new(input), &mut out).expect("runs");
        assert_eq!(n, 100);
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count(), 3, "three distinct samples: {text}");
        assert!(text.contains("seen"), "output: {text}");
    }

    #[test]
    fn end_to_end_sharded_windowed_count() {
        // The combination the old CLI rejected: shards + window. 16 groups
        // cycle, then only group 0 streams for a full window — the sharded
        // windowed count must slide down to 1.
        let cli =
            parse_cli(&args("count --alpha 0.5 --eps 1.0 --window 32 --shards 3")).expect("valid");
        let mut input = String::new();
        for i in 0..256 {
            input.push_str(&format!("{}.0\n", (i % 16) * 10));
        }
        for _ in 0..64 {
            input.push_str("0.0\n");
        }
        let mut out = Vec::new();
        run(&cli, Cursor::new(input), &mut out).expect("runs");
        let text = String::from_utf8(out).expect("utf8");
        let est: f64 = text.trim().parse().expect("a number");
        assert_eq!(est, 1.0, "sharded windowed estimate: {est}");
    }

    #[test]
    fn end_to_end_windowed_sample() {
        let cli = parse_cli(&args("sample --alpha 0.5 --window 10")).expect("valid");
        let mut input = String::new();
        for i in 0..40 {
            input.push_str(&format!("{}.0\n", (i % 20) * 10));
        }
        let mut out = Vec::new();
        run(&cli, Cursor::new(input), &mut out).expect("runs");
        assert!(!out.is_empty());
    }

    #[test]
    fn parses_snapshot_commands() {
        let cli =
            parse_cli(&args("snapshot save /tmp/s.json --alpha 0.5 --seed 4")).expect("valid");
        assert_eq!(
            cli.command,
            Command::SnapshotSave {
                path: "/tmp/s.json".into()
            }
        );
        let cli = parse_cli(&args("snapshot query /tmp/s.json --k 2")).expect("valid");
        assert_eq!(
            cli.command,
            Command::SnapshotQuery {
                path: "/tmp/s.json".into(),
                k: 2
            }
        );
    }

    #[test]
    fn snapshot_usage_errors_at_parse_time() {
        assert!(parse_cli(&args("snapshot")).is_err());
        assert!(parse_cli(&args("snapshot save")).is_err());
        assert!(parse_cli(&args("snapshot frobnicate /tmp/x --alpha 1")).is_err());
        // save ingests a stream, so alpha is required
        assert!(parse_cli(&args("snapshot save /tmp/x.json")).is_err());
        // query reads a file; stream flags are rejected
        assert!(parse_cli(&args("snapshot query /tmp/x.json --shards 4")).is_err());
        assert!(parse_cli(&args("snapshot query /tmp/x.json --window 5")).is_err());
    }

    #[test]
    fn snapshot_save_then_query_round_trips_offline() {
        let dir = std::env::temp_dir().join(format!("rds-cli-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("snapshot.json");
        let path_str = path.to_str().expect("utf8 path").to_string();

        // 8 well-separated entities, 10 observations each
        let mut input = String::new();
        for i in 0..80 {
            input.push_str(&format!("{}.0, 1.0\n", (i % 8) * 10));
        }
        let cli = parse_cli(&args(&format!(
            "snapshot save {path_str} --alpha 0.5 --seed 9"
        )))
        .expect("valid");
        let mut out = Vec::new();
        let n = run(&cli, Cursor::new(input), &mut out).expect("saves");
        assert_eq!(n, 80);
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains(&path_str), "save output: {text}");

        // offline: no stream input at all
        let cli = parse_cli(&args(&format!("snapshot query {path_str} --k 3"))).expect("valid");
        let mut out = Vec::new();
        run(&cli, Cursor::new(""), &mut out).expect("queries");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("f0 8.0"), "query output: {text}");
        assert_eq!(text.lines().count(), 4, "header + 3 samples: {text}");

        // the draw token replays: same --seed, same samples
        let run_with_seed = |seed: u64| -> String {
            let cli = parse_cli(&args(&format!(
                "snapshot query {path_str} --k 2 --seed {seed}"
            )))
            .expect("valid");
            let mut out = Vec::new();
            run(&cli, Cursor::new(""), &mut out).expect("queries");
            String::from_utf8(out).expect("utf8")
        };
        assert_eq!(run_with_seed(7), run_with_seed(7));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_save_of_empty_stream_is_a_runtime_error() {
        let cli =
            parse_cli(&args("snapshot save /tmp/never-written.json --alpha 0.5")).expect("valid");
        let mut out = Vec::new();
        let err = run(&cli, Cursor::new(""), &mut out).expect_err("no points");
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn snapshot_query_of_missing_file_is_a_runtime_error() {
        let cli = parse_cli(&args("snapshot query /tmp/does-not-exist-rds.json")).expect("valid");
        let mut out = Vec::new();
        let err = run(&cli, Cursor::new(""), &mut out).expect_err("missing file");
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn parses_checkpoint_commands() {
        let cli =
            parse_cli(&args("checkpoint save /tmp/c.json --alpha 0.5 --seed 4")).expect("valid");
        assert_eq!(
            cli.command,
            Command::CheckpointSave {
                path: "/tmp/c.json".into()
            }
        );
        let cli = parse_cli(&args("checkpoint restore /tmp/c.json --k 2")).expect("valid");
        assert_eq!(
            cli.command,
            Command::CheckpointRestore {
                path: "/tmp/c.json".into(),
                k: 2
            }
        );
    }

    #[test]
    fn checkpoint_usage_errors_at_parse_time() {
        assert!(parse_cli(&args("checkpoint")).is_err());
        assert!(parse_cli(&args("checkpoint save")).is_err());
        assert!(parse_cli(&args("checkpoint frobnicate /tmp/x --alpha 1")).is_err());
        // save ingests a stream, so alpha is required
        assert!(parse_cli(&args("checkpoint save /tmp/x.json")).is_err());
        // restore reads the config from the file; stream flags are rejected
        for bad in [
            "checkpoint restore /tmp/x.json --alpha 0.5",
            "checkpoint restore /tmp/x.json --alpha 0.0", // 0.0 must not slip through
            "checkpoint restore /tmp/x.json --window 5",
            "checkpoint restore /tmp/x.json --shards 4",
            "checkpoint restore /tmp/x.json --seed 7",
            "checkpoint restore /tmp/x.json --expected-len 100",
            "checkpoint restore /tmp/x.json --eps 0.1", // inert flags rejected too
            "checkpoint restore /tmp/x.json --phi 0.2",
        ] {
            let err = parse_cli(&args(bad)).expect_err("invalid");
            assert!(err.contains("config echo"), "error for `{bad}`: {err}");
        }
    }

    #[test]
    fn checkpoint_save_restore_resumes_the_stream() {
        let dir = std::env::temp_dir().join(format!("rds-cli-chk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("writer.chk");
        let path_str = path.to_str().expect("utf8 path").to_string();

        // 12 well-separated entities; first half of the stream, then crash
        let line = |i: u64| format!("{}.0, 2.0\n", (i % 12) * 10);
        let first: String = (0..60).map(line).collect();
        let second: String = (60..120).map(line).collect();
        let full: String = (0..120).map(line).collect();

        let save = parse_cli(&args(&format!(
            "checkpoint save {path_str} --alpha 0.5 --seed 11 --shards 2"
        )))
        .expect("valid");
        let mut out = Vec::new();
        let n = run(&save, Cursor::new(first), &mut out).expect("saves");
        assert_eq!(n, 60);
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("f0 12.0"), "save output: {text}");

        // restore + resume the second half: same estimate as one
        // uninterrupted count over the full stream
        let restore =
            parse_cli(&args(&format!("checkpoint restore {path_str} --k 3"))).expect("valid");
        let mut out = Vec::new();
        let n = run(&restore, Cursor::new(second), &mut out).expect("restores");
        assert_eq!(n, 60, "only the resumed items are counted");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("f0 12.0 seen 120"), "restore output: {text}");
        assert_eq!(text.lines().count(), 4, "header + 3 samples: {text}");

        // restore with empty stdin serves the pre-crash state
        let mut out = Vec::new();
        run(&restore, Cursor::new(""), &mut out).expect("restores empty");
        let text = String::from_utf8(out).expect("utf8");
        assert!(
            text.contains("f0 12.0 seen 60"),
            "empty-restore output: {text}"
        );

        // reference: one uninterrupted save over the full stream reports
        // the same estimate the crash-recovered pipeline reached
        let full_path = dir.join("full.chk");
        let save_full = parse_cli(&args(&format!(
            "checkpoint save {} --alpha 0.5 --seed 11 --shards 2",
            full_path.to_str().expect("utf8")
        )))
        .expect("valid");
        let mut out = Vec::new();
        run(&save_full, Cursor::new(full), &mut out).expect("saves full");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("f0 12.0"), "uninterrupted output: {text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_restore_of_corrupt_file_is_a_config_error() {
        let dir = std::env::temp_dir().join(format!("rds-cli-chk-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("corrupt.chk");
        std::fs::write(&path, "{\"magic\":\"nope\"}").expect("writes");
        let cli = parse_cli(&args(&format!(
            "checkpoint restore {}",
            path.to_str().expect("utf8")
        )))
        .expect("valid");
        let mut out = Vec::new();
        let err = run(&cli, Cursor::new(""), &mut out).expect_err("corrupt");
        assert!(
            matches!(&err, CliError::Config(RdsError::Checkpoint { .. })),
            "got {err:?}"
        );
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_save_of_empty_stream_is_a_runtime_error() {
        let cli =
            parse_cli(&args("checkpoint save /tmp/never-written.chk --alpha 0.5")).expect("valid");
        let mut out = Vec::new();
        let err = run(&cli, Cursor::new(""), &mut out).expect_err("no points");
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn parses_serve_flags() {
        let cfg = parse_serve(&args(
            "--addr 127.0.0.1:0 --dim 3 --alpha 0.5 --threads 2 --seed 7 \
             --publish-every 50 --window 100 --time --max-body-bytes 2048",
        ))
        .expect("valid");
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.max_body_bytes, 2048);
        let (writer, _) = cfg.stream.clone().build_split().expect("valid stream");
        assert_eq!(writer.dim(), 3);
        assert_eq!(cfg.stream.get_seed(), 7);
        assert_eq!(cfg.stream.get_window(), Window::Time(100));
        assert_eq!(cfg.stream.get_cadence(), PublishCadence::EveryN(50));
        assert!(cfg.restore_from.is_none());
    }

    #[test]
    fn parses_serve_tenancy_flags() {
        let cfg = parse_serve(&args(
            "--dim 2 --alpha 0.5 --tenants --budget-words 1048576 --spill-dir /tmp/spill",
        ))
        .expect("valid");
        let tc = cfg.tenants.expect("tenancy enabled");
        assert_eq!(tc.budget_words, 1_048_576);
        assert_eq!(tc.spill_dir, "/tmp/spill");
        // single-tenant serve stays the default
        let cfg = parse_serve(&args("--dim 2 --alpha 0.5")).expect("valid");
        assert!(cfg.tenants.is_none());
    }

    #[test]
    fn serve_tenancy_flags_are_all_or_nothing() {
        // --tenants needs both the budget and the spill directory
        assert!(parse_serve(&args("--dim 2 --alpha 0.5 --tenants")).is_err());
        assert!(parse_serve(&args("--dim 2 --alpha 0.5 --tenants --budget-words 100")).is_err());
        assert!(parse_serve(&args("--dim 2 --alpha 0.5 --tenants --spill-dir /tmp/s")).is_err());
        assert!(parse_serve(&args(
            "--dim 2 --alpha 0.5 --tenants --budget-words 0 --spill-dir /tmp/s"
        ))
        .is_err());
        // ...and the tenancy knobs are rejected without --tenants
        for bad in [
            "--dim 2 --alpha 0.5 --budget-words 100",
            "--dim 2 --alpha 0.5 --spill-dir /tmp/s",
        ] {
            let err = parse_serve(&args(bad)).expect_err("invalid");
            assert!(err.contains("--tenants"), "error for `{bad}`: {err}");
        }
    }

    #[test]
    fn serve_usage_errors_at_parse_time() {
        // dim + alpha are required without --restore
        assert!(parse_serve(&args("--alpha 0.5")).is_err());
        assert!(parse_serve(&args("--dim 2")).is_err());
        assert!(parse_serve(&args("--dim 2 --alpha 0.0")).is_err());
        assert!(parse_serve(&args("--dim 2 --alpha 0.5 --threads 0")).is_err());
        assert!(parse_serve(&args("--dim 2 --alpha 0.5 --time")).is_err());
        assert!(parse_serve(&args("--dim 2 --alpha 0.5 --frobnicate 1")).is_err());
        // restore is exclusive with the stream-configuration flags...
        for bad in [
            "--restore /tmp/x.chk --dim 2",
            "--restore /tmp/x.chk --alpha 0.5",
            "--restore /tmp/x.chk --seed 3",
            "--restore /tmp/x.chk --shards 2",
        ] {
            let err = parse_serve(&args(bad)).expect_err("invalid");
            assert!(err.contains("config echo"), "error for `{bad}`: {err}");
        }
        // ...but the serving cadence stays configurable
        let cfg = parse_serve(&args("--restore /tmp/x.chk --publish-every 10")).expect("valid");
        assert_eq!(cfg.restore_from.as_deref(), Some("/tmp/x.chk"));
        assert_eq!(cfg.stream.get_cadence(), PublishCadence::EveryN(10));
    }

    #[test]
    fn seed_defaults_are_pinned_per_command() {
        for cmd in [
            "sample --alpha 0.5",
            "count --alpha 0.5",
            "heavy --alpha 0.5",
            "snapshot save /tmp/s.json --alpha 0.5",
            "snapshot query /tmp/s.json",
            "checkpoint save /tmp/c.chk --alpha 0.5",
        ] {
            let cli = parse_cli(&args(cmd)).expect("valid");
            assert_eq!(cli.stream.get_seed(), 1, "`{cmd}`");
        }
        // `serve` keeps 0: tenants spilled by a server started without
        // --seed restore only under the seed they were built with.
        let cfg = parse_serve(&args("--dim 2 --alpha 0.5")).expect("valid");
        assert_eq!(cfg.stream.get_seed(), 0);
        assert!(usage().contains("--seed S           PRNG seed (default 1; serve: 0)"));
    }

    #[test]
    fn serve_rejects_the_removed_queue_depth_option() {
        // Global writes wait on the writer lock; there is no queue to size.
        let err = parse_serve(&args("--dim 2 --alpha 0.5 --queue-depth 8")).expect_err("removed");
        assert!(
            err.starts_with("unknown serve option --queue-depth"),
            "{err}"
        );
    }

    #[test]
    fn run_serve_announces_the_resolved_address_and_serves() {
        let cfg = parse_serve(&args("--addr 127.0.0.1:0 --dim 2 --alpha 0.5 --threads 1"))
            .expect("valid");
        let mut out = Vec::new();
        let handle = run_serve(cfg, &mut out).expect("binds");
        let text = String::from_utf8(out).expect("utf8");
        let addr = handle.addr();
        assert!(
            text.contains(&format!("rds-server listening on {addr}")),
            "announcement: {text}"
        );
        let (status, _) =
            rds_server::client::request_once(addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
        handle.shutdown_and_join();
    }

    #[test]
    fn run_serve_config_errors_are_typed_not_panics() {
        let cfg = parse_serve(&args("--addr 127.0.0.1:0 --dim 0 --alpha 0.5"))
            .expect("parses; the facade validates dim");
        let mut out = Vec::new();
        let Err(err) = run_serve(cfg, &mut out) else {
            panic!("dim 0 must be rejected");
        };
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn dimension_change_is_an_error() {
        let cli = parse_cli(&args("sample --alpha 0.5")).expect("valid");
        let input = "1,2\n1,2,3\n";
        let mut out = Vec::new();
        let err = run(&cli, Cursor::new(input), &mut out).expect_err("invalid");
        assert_eq!(err.exit_code(), 1, "data errors exit 1, not 2");
    }
}
