//! The rule engine: ten repo-specific lints over the lexed token
//! stream, with `#[cfg(test)]`/`#[test]` region tracking and the
//! `// lint:allow(<rule>) <justification>` escape hatch.
//!
//! Every rule encodes an invariant a previous PR established by
//! convention; the rule id, the invariant and the establishing PR are
//! listed in [`RULES`] (and in the README's "Static analysis &
//! invariants" section).

use crate::lexer::{lex, Comment, Token, TokenKind};

/// One diagnostic: `path:line:col: rule message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The rule id (`L1`..`L10`, or `L0` for a malformed allow comment).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// The rule catalog: id, one-line description. Rendered by `--list` and
/// kept in sync with the README.
pub const RULES: &[(&str, &str)] = &[
    (
        "L0",
        "lint:allow comments must name a known rule and carry a non-empty justification",
    ),
    (
        "L1",
        "no .unwrap()/.expect()/panic!/unreachable!/indexing-by-literal in non-test \
         rds-core/rds-engine/facade code (PR 3/4: typed errors on the serving path)",
    ),
    (
        "L2",
        "no std::fs::write/File::create/OpenOptions/fs::rename outside the blessed \
         atomic-write helper (PR 5: checkpoint containers stay crash-atomic)",
    ),
    (
        "L3",
        "no Instant::now/SystemTime::now/ambient entropy in deterministic sampler or \
         checkpoint code (PR 5: exact-PRNG-position restore)",
    ),
    (
        "L4",
        "every pub fn new in rds-core needs a try_new/builder sibling and a panic-free \
         body (PR 3: fallible construction contract)",
    ),
    (
        "L5",
        "RdsError::Checkpoint may only be constructed through RdsError::checkpoint() \
         (PR 5: one checkpoint-error constructor)",
    ),
    (
        "L6",
        "no Mutex/RwLock acquisition inside Snapshot/summary read impls or \
         SnapshotCell, and no lock or full-summary clone inside the publication \
         path (freeze/RdsWriter::publish) — O(changes) copy-on-write contract \
         (PR 4/7)",
    ),
    (
        "L7",
        "no lossy `as` casts of stamp/epoch/seen/word-accounting values to narrower \
         integers (use try_into or a checked helper)",
    ),
    (
        "L8",
        "no .unwrap()/.expect()/panic!/unreachable!/indexing-by-literal in non-test \
         rds-server code (PR 8: a malformed request is a 4xx envelope, never a dead \
         worker thread)",
    ),
    (
        "L9",
        "no spill/restore I/O while a registry-wide (map/ring) lock guard is live, and \
         no panicking constructs in non-test rds-tenant code (PR 9: the tenant path \
         stays lock-light and panic-free; only per-tenant slot locks may span I/O)",
    ),
    (
        "L10",
        "no HashMap/BTreeMap and no per-point heap allocation inside the rds-core \
         arrival hot path (fn process/process_inner/process_point) — duplicate \
         detection goes through the bucket-indexed CandidateStore and scratch \
         buffers live on the sampler (the indexed-store data-layout pass)",
    ),
];

/// The file blessed to contain raw filesystem writes: the atomic
/// temp-file + rename helper every durable write must go through.
pub const BLESSED_WRITE_MODULE: &str = "crates/core/src/persist.rs";

/// The file blessed to construct `RdsError::Checkpoint` literally: the
/// module defining `RdsError::checkpoint()`.
pub const BLESSED_CHECKPOINT_MODULE: &str = "crates/core/src/error.rs";

/// The file holding the facade's publication path (`fn freeze`,
/// `RdsWriter::publish`): L6 reports it when either body is missing, so
/// renaming or moving them cannot silently switch the rule off.
pub const PUBLICATION_MODULE: &str = "src/facade.rs";

/// Types whose impl blocks are frozen read paths: readers query them
/// concurrently with `&self`, so they must never acquire a lock.
const LOCK_FREE_READ_TYPES: &[&str] = &[
    "Snapshot",
    "MergedSummary",
    "WindowSummary",
    "MetricSummary",
    "JlSummary",
];

/// Identifier substrings marking clock/accounting values whose silent
/// truncation corrupts windows, epochs or space metering.
const PROTECTED_CAST_NAMES: &[&str] = &["stamp", "epoch", "seen", "word", "draw", "routed"];

/// Integer targets an `as` cast can truncate into (u64 sources; `u64`,
/// `u128`, `i128` and float targets are exempt).
const NARROWING_INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "i8", "i16", "i32", "i64", "usize", "isize",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// Which crate (and therefore which rule set) a workspace-relative path
/// belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CrateKind {
    Core,
    Engine,
    Umbrella,
    Cli,
    Server,
    Tenant,
    Other,
}

fn crate_kind(path: &str) -> CrateKind {
    if path.starts_with("crates/core/") {
        CrateKind::Core
    } else if path.starts_with("crates/engine/") {
        CrateKind::Engine
    } else if path.starts_with("crates/cli/") {
        CrateKind::Cli
    } else if path.starts_with("crates/server/") {
        CrateKind::Server
    } else if path.starts_with("crates/tenant/") {
        CrateKind::Tenant
    } else if path.starts_with("crates/") {
        CrateKind::Other
    } else {
        CrateKind::Umbrella
    }
}

/// Whole-file test scope: integration tests, benches, examples and lint
/// fixtures are not library code.
fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|c| matches!(c, "tests" | "benches" | "examples" | "fixtures"))
}

fn keyword_cannot_index(t: &Token) -> bool {
    matches!(
        t.text.as_str(),
        "let"
            | "in"
            | "return"
            | "match"
            | "if"
            | "else"
            | "move"
            | "mut"
            | "ref"
            | "break"
            | "continue"
            | "where"
            | "use"
            | "for"
            | "while"
            | "loop"
            | "unsafe"
            | "as"
            | "const"
            | "static"
            | "dyn"
            | "impl"
            | "fn"
            | "pub"
            | "crate"
            | "mod"
            | "enum"
            | "struct"
            | "trait"
            | "type"
            | "extern"
            | "box"
            | "yield"
            | "await"
    )
}

/// One parsed `lint:allow(<rule>) <justification>` escape hatch.
struct Allow {
    rule: String,
    /// The line of code the allow suppresses (its own line for trailing
    /// comments, the next code line after it for standalone ones —
    /// further comment lines in between don't break the binding).
    target_line: u32,
    comment_line: u32,
    justified: bool,
    known: bool,
}

fn parse_allows(comments: &[Comment], tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(at) = rest.find("lint:allow(") {
            rest = &rest[at + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let rule = rest[..close].trim().to_string();
            // only `L<digits>` is an allow attempt; this keeps prose like
            // `lint:allow(<rule>)` in docs from parsing as an allow
            let looks_like_rule = rule
                .strip_prefix('L')
                .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()));
            if !looks_like_rule {
                rest = &rest[close + 1..];
                continue;
            }
            let after = rest[close + 1..]
                .trim_start_matches([':', '-', ' '])
                .trim_end_matches("*/")
                .trim();
            let known = RULES.iter().any(|(id, _)| *id == rule && *id != "L0");
            let target_line = if c.trailing {
                c.line
            } else {
                // first code line after the comment (token lines are
                // non-decreasing)
                tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l > c.end_line)
                    .unwrap_or(u32::MAX)
            };
            out.push(Allow {
                rule,
                target_line,
                comment_line: c.line,
                justified: !after.is_empty(),
                known,
            });
            rest = &rest[close + 1..];
        }
    }
    out
}

/// Marks every token inside a `#[cfg(test)]` item or `#[test]` function
/// body. Attribute chains are handled (`#[cfg(test)] #[allow(…)] mod t`),
/// `cfg(not(test))` is *not* a test region.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct("#") {
            i += 1;
            continue;
        }
        // inner attribute `#![…]`: skip it, it scopes the whole file and
        // the file-level scope already came from the path
        let mut j = i + 1;
        if j < tokens.len() && tokens[j].is_punct("!") {
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].is_punct("[") {
            i += 1;
            continue;
        }
        // find the matching `]` of the attribute
        let attr_start = j;
        let mut depth = 0i32;
        let mut attr_end = None;
        for (k, t) in tokens.iter().enumerate().skip(attr_start) {
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    attr_end = Some(k);
                    break;
                }
            }
        }
        let Some(attr_end) = attr_end else { break };
        let attr = &tokens[attr_start..=attr_end];
        let is_test_attr =
            attr.iter().any(|t| t.is_ident("test")) && !attr.iter().any(|t| t.is_ident("not"));
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // consume any further attributes on the same item
        let mut k = attr_end + 1;
        while k + 1 < tokens.len() && tokens[k].is_punct("#") && tokens[k + 1].is_punct("[") {
            let mut d = 0i32;
            let mut m = k + 1;
            while m < tokens.len() {
                if tokens[m].is_punct("[") {
                    d += 1;
                } else if tokens[m].is_punct("]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                m += 1;
            }
            k = m + 1;
        }
        // the item: ends at the first top-level `;` (no body) or at the
        // matching `}` of its first top-level `{`
        let mut brace = 0i32;
        let mut end = tokens.len().saturating_sub(1);
        let mut saw_brace = false;
        for (m, t) in tokens.iter().enumerate().skip(k) {
            if t.is_punct("{") {
                brace += 1;
                saw_brace = true;
            } else if t.is_punct("}") {
                brace -= 1;
                if saw_brace && brace == 0 {
                    end = m;
                    break;
                }
            } else if t.is_punct(";") && !saw_brace {
                end = m;
                break;
            }
            if m + 1 == tokens.len() {
                end = m;
            }
        }
        for flag in in_test.iter_mut().take(end + 1).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    in_test
}

/// Finds the matching close for the open delimiter at `open` (which must
/// hold an opening token of `kind`); returns the index of the close, or
/// the last token on unbalanced input.
fn matching(tokens: &[Token], open: usize, open_s: &str, close_s: &str) -> usize {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_s) {
            depth += 1;
        } else if t.is_punct(close_s) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

struct Ctx<'a> {
    path: &'a str,
    tokens: &'a [Token],
    in_test: &'a [bool],
    findings: Vec<Finding>,
}

impl Ctx<'_> {
    fn emit(&mut self, rule: &'static str, at: &Token, message: String) {
        self.emit_at(rule, at.line, at.col, message);
    }

    fn emit_at(&mut self, rule: &'static str, line: u32, col: u32, message: String) {
        self.findings.push(Finding {
            rule,
            path: self.path.to_string(),
            line,
            col,
            message,
        });
    }
}

/// Runs every rule on one file and applies the allow comments. `path`
/// must be workspace-relative with `/` separators — rule scoping is
/// path-based.
pub fn check_file(path: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let in_test = mark_test_regions(&lexed.tokens);
    let allows = parse_allows(&lexed.comments, &lexed.tokens);
    let kind = crate_kind(path);
    let test_file = is_test_path(path);

    let mut ctx = Ctx {
        path,
        tokens: &lexed.tokens,
        in_test: &in_test,
        findings: Vec::new(),
    };

    let lib_scope = !test_file;
    let panic_scope = lib_scope
        && matches!(
            kind,
            CrateKind::Core | CrateKind::Engine | CrateKind::Umbrella
        );
    if panic_scope {
        rule_l1(&mut ctx);
        rule_l3(&mut ctx);
        rule_l7(&mut ctx);
    }
    if lib_scope && kind == CrateKind::Server {
        rule_l8(&mut ctx);
    }
    if lib_scope && kind == CrateKind::Tenant {
        rule_l9(&mut ctx);
        // the tenant path is deterministic (seeded per-tenant PRNGs,
        // word accounting) — the clock/entropy and cast rules apply
        rule_l3(&mut ctx);
        rule_l7(&mut ctx);
    }
    if lib_scope
        && matches!(
            kind,
            CrateKind::Core
                | CrateKind::Engine
                | CrateKind::Umbrella
                | CrateKind::Cli
                | CrateKind::Server
                | CrateKind::Tenant
        )
        && path != BLESSED_WRITE_MODULE
    {
        rule_l2(&mut ctx);
    }
    if lib_scope && kind == CrateKind::Core {
        rule_l4(&mut ctx);
        rule_l10(&mut ctx);
    }
    if lib_scope && path != BLESSED_CHECKPOINT_MODULE {
        rule_l5(&mut ctx);
    }
    if lib_scope {
        rule_l6(&mut ctx);
    }

    // apply the allow comments, then report the malformed ones
    let mut findings: Vec<Finding> = ctx
        .findings
        .into_iter()
        .filter(|f| {
            !allows
                .iter()
                .any(|a| a.known && a.justified && a.rule == f.rule && a.target_line == f.line)
        })
        .collect();
    for a in &allows {
        if !a.known {
            findings.push(Finding {
                rule: "L0",
                path: path.to_string(),
                line: a.comment_line,
                col: 1,
                message: format!("lint:allow names unknown rule `{}`", a.rule),
            });
        } else if !a.justified {
            findings.push(Finding {
                rule: "L0",
                path: path.to_string(),
                line: a.comment_line,
                col: 1,
                message: format!(
                    "lint:allow({}) needs a non-empty justification; the allow is ignored",
                    a.rule
                ),
            });
        }
    }
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

/// The shared panic-free scan behind L1 (core/engine/facade) and L8
/// (rds-server): flags `.unwrap()`/`.expect()`, the aborting macros and
/// indexing-by-literal, attributing each hit to `rule` with the
/// rule-specific `remedy` clause.
fn rule_panic_free(ctx: &mut Ctx<'_>, rule: &'static str, remedy: &str) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokenKind::Ident {
            let prev_dot = i > 0 && toks[i - 1].is_punct(".");
            let next_paren = i + 1 < toks.len() && toks[i + 1].is_punct("(");
            if prev_dot && next_paren && (t.text == "unwrap" || t.text == "expect") {
                ctx.emit(
                    rule,
                    &toks[i].clone(),
                    format!(".{}() can panic on the serving path; {remedy}", t.text),
                );
                continue;
            }
            let next_bang = i + 1 < toks.len() && toks[i + 1].is_punct("!");
            if next_bang && PANIC_MACROS.contains(&t.text.as_str()) {
                ctx.emit(
                    rule,
                    &toks[i].clone(),
                    format!("{}! aborts the serving path; {remedy}", t.text),
                );
                continue;
            }
        }
        // indexing by integer literal: `xs[0]`
        if t.is_punct("[")
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokenKind::Int
            && toks[i + 2].is_punct("]")
            && i > 0
        {
            let prev = &toks[i - 1];
            let indexable = (prev.kind == TokenKind::Ident && !keyword_cannot_index(prev))
                || prev.is_punct(")")
                || prev.is_punct("]");
            if indexable {
                ctx.emit(
                    rule,
                    &toks[i + 1].clone(),
                    format!(
                        "indexing by literal `[{}]` panics when the container is shorter; \
                         use .get({}) or .first()",
                        toks[i + 1].text,
                        toks[i + 1].text
                    ),
                );
            }
        }
    }
}

/// L1: panic-free serving path in core/engine/facade code.
fn rule_l1(ctx: &mut Ctx<'_>) {
    rule_panic_free(
        ctx,
        "L1",
        "return a typed RdsError (or document the invariant with lint:allow(L1))",
    );
}

/// L8: panic-free request handling in rds-server — a worker thread that
/// dies on a malformed request takes every queued connection with it.
fn rule_l8(ctx: &mut Ctx<'_>) {
    rule_panic_free(
        ctx,
        "L8",
        "answer a 4xx error envelope (or document the invariant with lint:allow(L8))",
    );
}

/// Identifier substrings marking a registry-wide lock receiver: the
/// tenant map and the eviction ring serialize *every* tenant, so
/// holding one across disk I/O stalls the whole registry.
const REGISTRY_WIDE_LOCKS: &[&str] = &["map", "ring", "registry"];

/// Spill/restore I/O entry points that must never run under a
/// registry-wide lock (per-tenant slot locks may span them).
const SPILL_IO_CALLS: &[&str] = &[
    "write_container",
    "read_container",
    "write_atomic",
    "read_to_string",
    "create_dir_all",
    "spill_slot",
    "ensure_resident",
];

/// L9: the tenant registry's locking discipline. Panic-free serving
/// path (shared scan with L1/L8), plus: a guard let-bound from
/// `.lock()` on a map/ring/registry receiver must not have any
/// spill/restore I/O call inside its live range (which ends at the
/// enclosing block's close or an explicit `drop(guard)`). The scoped
/// temporary form `{ self.map.lock().len() }` releases at the
/// expression and is always fine.
fn rule_l9(ctx: &mut Ctx<'_>) {
    rule_panic_free(
        ctx,
        "L9",
        "answer a typed RdsError (or document the invariant with lint:allow(L9))",
    );
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        // a `.lock()` call whose guard is let-bound: the whole RHS is
        // the lock call, so the statement ends right after the `()`
        let is_lock = toks[i].is_ident("lock")
            && i > 0
            && toks[i - 1].is_punct(".")
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("(");
        if !is_lock {
            continue;
        }
        let close = matching(toks, i + 1, "(", ")");
        if !toks
            .get(close + 1)
            .map(|t| t.is_punct(";"))
            .unwrap_or(false)
        {
            continue; // scoped temporary: released within the expression
        }
        // the receiver chain: idents walking back over `recv.field.`
        let mut j = i - 1;
        let mut registry_wide = false;
        while j > 0 {
            let t = &toks[j - 1];
            if t.kind == TokenKind::Ident {
                let lower = t.text.to_lowercase();
                if REGISTRY_WIDE_LOCKS.iter().any(|p| lower.contains(p)) {
                    registry_wide = true;
                }
                j -= 1;
            } else if t.is_punct(".") {
                j -= 1;
            } else {
                break;
            }
        }
        if !registry_wide {
            continue;
        }
        // the binding: `let [mut] <guard> = <recv>.lock();`
        if j == 0 || !toks[j - 1].is_punct("=") {
            continue;
        }
        let Some(guard) = toks.get(j.wrapping_sub(2)) else {
            continue;
        };
        if guard.kind != TokenKind::Ident {
            continue; // destructuring patterns don't bind a lone guard
        }
        let guard_name = guard.text.clone();
        // the guard's live range: scan until the enclosing block closes
        // or the guard is explicitly dropped
        let mut depth = 0i32;
        let mut m = close + 2;
        while m < toks.len() {
            let t = &toks[m];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if t.is_ident("drop")
                && m + 2 < toks.len()
                && toks[m + 1].is_punct("(")
                && toks[m + 2].is_ident(&guard_name)
            {
                break;
            } else if !ctx.in_test[m]
                && t.kind == TokenKind::Ident
                && SPILL_IO_CALLS.contains(&t.text.as_str())
                && m + 1 < toks.len()
                && toks[m + 1].is_punct("(")
            {
                let name = t.text.clone();
                ctx.emit(
                    "L9",
                    &t.clone(),
                    format!(
                        "`{name}` while registry-wide guard `{guard_name}` is live: \
                         spill/restore I/O under the map/ring lock stalls every tenant; \
                         drop the guard first (only per-tenant slot locks may span I/O)"
                    ),
                );
            }
            m += 1;
        }
    }
}

/// L2: all durable writes go through the blessed atomic helper.
fn rule_l2(ctx: &mut Ctx<'_>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(window) = toks.get(i..i + 3) else {
            break;
        };
        if !window[1].is_punct("::") {
            continue;
        }
        let pair = (window[0].text.as_str(), window[2].text.as_str());
        let hit = matches!(
            pair,
            ("fs", "write") | ("fs", "rename") | ("File", "create") | ("OpenOptions", "new")
        ) && window[0].kind == TokenKind::Ident
            && window[2].kind == TokenKind::Ident;
        if hit {
            ctx.emit(
                "L2",
                &window[0].clone(),
                format!(
                    "raw `{}::{}` can destroy a good checkpoint on crash; write through \
                     rds_core::persist (temp file + rename)",
                    pair.0, pair.1
                ),
            );
        }
    }
}

/// L3: deterministic code paths take no ambient time or entropy.
fn rule_l3(ctx: &mut Ctx<'_>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let now_call = i + 2 < toks.len()
            && toks[i + 1].is_punct("::")
            && toks[i + 2].is_ident("now")
            && (t.text == "Instant" || t.text == "SystemTime");
        if now_call {
            ctx.emit(
                "L3",
                &toks[i].clone(),
                format!(
                    "{}::now() makes restored runs diverge from the original; thread an \
                     explicit Stamp through instead",
                    t.text
                ),
            );
            continue;
        }
        if matches!(
            t.text.as_str(),
            "thread_rng" | "from_entropy" | "OsRng" | "from_os_rng"
        ) {
            ctx.emit(
                "L3",
                &toks[i].clone(),
                format!(
                    "`{}` is ambient entropy; every RNG must be seeded from the \
                     SamplerConfig so exact-PRNG-position restore holds",
                    t.text
                ),
            );
        }
    }
}

/// L4: fallible construction — `pub fn new` needs a `try_new`/builder
/// sibling and a panic-free body.
fn rule_l4(ctx: &mut Ctx<'_>) {
    let toks = ctx.tokens;
    let has_sibling = toks.iter().any(|t| t.is_ident("try_new"))
        || toks
            .windows(2)
            .any(|w| w[0].is_ident("fn") && w[1].is_ident("builder"));
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let hit = toks[i].is_ident("pub")
            && i + 3 < toks.len()
            && toks[i + 1].is_ident("fn")
            && toks[i + 2].is_ident("new")
            && toks[i + 3].is_punct("(");
        if !hit {
            continue;
        }
        let new_tok = toks[i + 2].clone();
        if !has_sibling {
            ctx.emit(
                "L4",
                &new_tok,
                "pub fn new without a try_new/builder sibling; construction must have a \
                 fallible path (PR 3 contract)"
                    .to_string(),
            );
        }
        // body: skip the parameter list, then the first `{ … }` (a `;`
        // first means a bodyless trait method)
        let params_end = matching(toks, i + 3, "(", ")");
        let mut body_open = None;
        for (m, t) in toks.iter().enumerate().skip(params_end + 1) {
            if t.is_punct("{") {
                body_open = Some(m);
                break;
            }
            if t.is_punct(";") {
                break;
            }
        }
        let Some(open) = body_open else { continue };
        let close = matching(toks, open, "{", "}");
        for m in open..=close {
            let t = &toks[m];
            let next_bang = m + 1 < toks.len() && toks[m + 1].is_punct("!");
            if next_bang
                && (PANIC_MACROS.contains(&t.text.as_str())
                    || ASSERT_MACROS.contains(&t.text.as_str()))
            {
                ctx.emit(
                    "L4",
                    &t.clone(),
                    format!(
                        "{}! inside pub fn new; validation belongs in try_new, which \
                         returns a typed RdsError",
                        t.text
                    ),
                );
            }
        }
    }
}

/// L5: `RdsError::Checkpoint` is constructed only via
/// `RdsError::checkpoint()`. Patterns (`matches!`, match arms, `if let`)
/// are allowed; struct-literal construction is not.
fn rule_l5(ctx: &mut Ctx<'_>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let hit = toks[i].is_ident("RdsError")
            && i + 3 < toks.len()
            && toks[i + 1].is_punct("::")
            && toks[i + 2].is_ident("Checkpoint")
            && toks[i + 3].is_punct("{");
        if !hit {
            continue;
        }
        let open = i + 3;
        let close = matching(toks, open, "{", "}");
        let body = &toks[open + 1..close];
        let has_field_init = body.iter().any(|t| t.is_punct(":"));
        let has_rest = body.iter().any(|t| t.is_punct(".."));
        let after = toks.get(close + 1);
        let pattern_position = after
            .map(|t| t.is_punct(")") || t.is_punct("=>") || t.is_punct("|"))
            .unwrap_or(false);
        if has_field_init || (!has_rest && !pattern_position) {
            ctx.emit(
                "L5",
                &toks[i].clone(),
                "RdsError::Checkpoint constructed literally; RdsError::checkpoint() is \
                 the sole constructor (PR 5 contract)"
                    .to_string(),
            );
        }
    }
}

/// Reports every lock type, lock-acquisition call and (optionally)
/// full-summary `.clone()` in `toks[lo..=hi]`, attributing it to
/// `site` in the message. Shared by the L6 scans over frozen reader
/// impls, `SnapshotCell` impls and the publication path.
fn l6_scan_range(ctx: &mut Ctx<'_>, lo: usize, hi: usize, site: &str, summary_clones: bool) {
    let toks = ctx.tokens;
    for m in lo..=hi.min(toks.len() - 1) {
        if ctx.in_test[m] {
            continue;
        }
        let t = &toks[m];
        let method_call = |name: &str| {
            t.is_ident(name)
                && m > 0
                && toks[m - 1].is_punct(".")
                && m + 1 < toks.len()
                && toks[m + 1].is_punct("(")
        };
        let lock_type = t.kind == TokenKind::Ident && (t.text == "Mutex" || t.text == "RwLock");
        let lock_call = method_call("lock") || method_call("read") || method_call("write");
        if lock_type || lock_call {
            ctx.emit(
                "L6",
                &t.clone(),
                format!(
                    "`{}` inside {site}: readers are lock-free and publication swaps \
                     one atomic pointer — no lock is ever acquired here (PR 4/7 \
                     contract)",
                    t.text
                ),
            );
            continue;
        }
        if summary_clones && m >= 2 && method_call("clone") {
            // the receiver: the identifier (or callee) just before `.`
            let mut j = m - 2;
            if toks[j].is_punct(")") {
                let mut depth = 0i32;
                loop {
                    if toks[j].is_punct(")") {
                        depth += 1;
                    } else if toks[j].is_punct("(") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
                j = j.saturating_sub(1);
            }
            let recv = &toks[j];
            if recv.kind == TokenKind::Ident && recv.text.to_lowercase().contains("summary") {
                ctx.emit(
                    "L6",
                    &t.clone(),
                    format!(
                        "`{}.clone()` inside {site}: a full-summary deep copy defeats \
                         O(changes) publication; Arc-share untouched levels instead \
                         (PR 7 contract)",
                        recv.text
                    ),
                );
            }
        }
    }
}

/// Scans the body of every `fn {name}` between `lo` and `hi` with the
/// publication-path checks (locks *and* full-summary clones); returns how
/// many bodies it scanned.
fn l6_scan_fn_bodies(ctx: &mut Ctx<'_>, lo: usize, hi: usize, name: &str, site: &str) -> usize {
    let toks = ctx.tokens;
    let mut scanned = 0;
    let mut i = lo;
    while i + 1 < hi.min(toks.len()) {
        if !(toks[i].is_ident("fn") && toks[i + 1].is_ident(name)) {
            i += 1;
            continue;
        }
        // the body runs from the first `{` after the signature
        let mut open = None;
        for (m, t) in toks.iter().enumerate().take(hi.min(toks.len())).skip(i + 2) {
            if t.is_punct("{") {
                open = Some(m);
                break;
            }
            if t.is_punct(";") {
                break; // a trait method signature has no body
            }
        }
        let Some(open) = open else {
            i += 2;
            continue;
        };
        let close = matching(toks, open, "{", "}");
        l6_scan_range(ctx, open, close, site, true);
        scanned += 1;
        i = close + 1;
    }
    scanned
}

/// L6: lock-free publication contract — no lock types or acquisition
/// calls (`.lock()`/`.read()`/`.write()`) inside impl blocks of the
/// frozen snapshot/summary types or `SnapshotCell`, and no lock
/// acquisition *or full-summary `.clone()`* inside the copy-on-write
/// publication path (`fn freeze`, `RdsWriter::publish`,
/// `SnapshotCell`): publication must stay O(changes) + one atomic swap.
/// In [`PUBLICATION_MODULE`], a missing `fn freeze` or
/// `RdsWriter::publish` body is itself a finding.
fn rule_l6(ctx: &mut Ctx<'_>) {
    let toks = ctx.tokens;
    // Every `fn freeze` body anywhere in the file (the facade's snapshot
    // builder, a method of its engine backend) gets the full
    // publication-path scan.
    let freeze_bodies = l6_scan_fn_bodies(ctx, 0, toks.len(), "freeze", "fn freeze");
    let mut publish_bodies = 0;
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // header runs to the block's `{`
        let mut open = None;
        for (m, t) in toks.iter().enumerate().skip(i + 1) {
            if t.is_punct("{") {
                open = Some(m);
                break;
            }
            if t.is_punct(";") {
                break;
            }
        }
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let header = &toks[i + 1..open];
        // the implemented type: the path after `for` if present, else the
        // first path after the (optional) generic parameter list
        let after_for = header.iter().position(|t| t.is_ident("for"));
        let type_region: &[Token] = match after_for {
            Some(p) => &header[p + 1..],
            None => {
                let mut start = 0usize;
                if header.first().map(|t| t.is_punct("<")).unwrap_or(false) {
                    let mut depth = 0i32;
                    for (m, t) in header.iter().enumerate() {
                        if t.is_punct("<") {
                            depth += 1;
                        } else if t.is_punct(">") {
                            depth -= 1;
                            if depth == 0 {
                                start = m + 1;
                                break;
                            }
                        }
                    }
                }
                &header[start..]
            }
        };
        // last ident of the leading path, stopping at `<` (generic args)
        let mut target: Option<&str> = None;
        for t in type_region {
            if t.is_punct("<") || t.is_punct("{") {
                break;
            }
            if t.kind == TokenKind::Ident {
                target = Some(t.text.as_str());
            }
        }
        let close = matching(toks, open, "{", "}");
        match target {
            // The lock-free cell itself: locks and summary deep-clones
            // are both contract violations anywhere in its impls.
            Some("SnapshotCell") => {
                l6_scan_range(ctx, open, close, "impl SnapshotCell", true);
            }
            // The writer's publish path: only `fn publish` bodies are
            // publication; other writer methods may lock freely.
            Some("RdsWriter") => {
                publish_bodies +=
                    l6_scan_fn_bodies(ctx, open, close, "publish", "RdsWriter::publish");
            }
            // Frozen reader types: readers query them concurrently with
            // `&self`, so no lock is ever acquired (clones are fine —
            // `Arc`-backed levels make them cheap by construction).
            Some(n) if LOCK_FREE_READ_TYPES.contains(&n) => {
                let site = format!("impl {n}");
                l6_scan_range(ctx, open, close, &site, false);
            }
            _ => {}
        }
        i = close + 1;
    }
    if ctx.path == PUBLICATION_MODULE {
        let bodies = [
            (freeze_bodies, "`fn freeze`"),
            (publish_bodies, "`RdsWriter::publish`"),
        ];
        for (bodies, site) in bodies {
            if bodies == 0 {
                ctx.emit_at(
                    "L6",
                    1,
                    1,
                    format!(
                        "{PUBLICATION_MODULE} has no {site} body: the publication path \
                         was renamed or moved, so L6 would scan nothing — point the rule \
                         at its new home"
                    ),
                );
            }
        }
    }
}

/// Fn names forming the per-point arrival hot path in rds-core: a map
/// lookup or heap allocation in one of these bodies runs once per
/// stream point.
const HOT_PATH_FNS: &[&str] = &["process", "process_inner", "process_point"];

/// Map types with no place on the arrival path: the bucket-indexed
/// `CandidateStore` is the blessed per-point index.
const HOT_PATH_MAP_TYPES: &[&str] = &["HashMap", "BTreeMap"];

/// Allocation entry points flagged inside hot-path bodies. `.clone()`
/// is deliberately absent: representatives and reservoirs must be
/// stored, and a point clone is a reference-count bump, not an
/// allocation.
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_PATH_TYPES: &[&str] = &["Vec", "String", "Box", "VecDeque"];
const ALLOC_PATH_FNS: &[&str] = &["new", "with_capacity", "from"];
const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_owned", "to_string"];

/// L10: the arrival hot path allocates nothing and consults no std map
/// — duplicate detection goes through the bucket-indexed store and every
/// scratch buffer is preallocated on the sampler, so processing a point
/// costs O(probe) with no allocator traffic (PR 10 contract). Scans the
/// bodies of core fns named `process`/`process_inner`/`process_point`;
/// cold paths (`double_rate`, queries, checkpointing) may allocate
/// freely.
fn rule_l10(ctx: &mut Ctx<'_>) {
    let toks = ctx.tokens;
    let mut i = 0usize;
    while i + 1 < toks.len() {
        let is_hot = toks[i].is_ident("fn")
            && toks[i + 1].kind == TokenKind::Ident
            && HOT_PATH_FNS.contains(&toks[i + 1].text.as_str());
        if !is_hot || ctx.in_test[i] {
            i += 1;
            continue;
        }
        let fn_name = toks[i + 1].text.clone();
        // body: skip to the parameter list, then the first `{ … }` (a
        // `;` first means a bodyless trait method)
        let mut params_open = i + 2;
        while params_open < toks.len() && !toks[params_open].is_punct("(") {
            params_open += 1;
        }
        let params_end = matching(toks, params_open, "(", ")");
        let mut body_open = None;
        for (m, t) in toks.iter().enumerate().skip(params_end + 1) {
            if t.is_punct("{") {
                body_open = Some(m);
                break;
            }
            if t.is_punct(";") {
                break;
            }
        }
        let Some(open) = body_open else {
            i = params_end + 1;
            continue;
        };
        let close = matching(toks, open, "{", "}");
        for m in open..=close.min(toks.len().saturating_sub(1)) {
            if ctx.in_test[m] {
                continue;
            }
            let t = &toks[m];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let next_is = |s: &str| toks.get(m + 1).map(|n| n.is_punct(s)).unwrap_or(false);
            if HOT_PATH_MAP_TYPES.contains(&t.text.as_str()) {
                ctx.emit(
                    "L10",
                    &t.clone(),
                    format!(
                        "`{}` inside fn {fn_name}: the arrival path indexes groups \
                         through the bucket-indexed CandidateStore, never a std map \
                         (PR 10 contract)",
                        t.text
                    ),
                );
                continue;
            }
            if next_is("!") && ALLOC_MACROS.contains(&t.text.as_str()) {
                ctx.emit(
                    "L10",
                    &t.clone(),
                    format!(
                        "`{}!` allocates once per point inside fn {fn_name}; hoist \
                         the buffer onto the sampler (PR 10 contract)",
                        t.text
                    ),
                );
                continue;
            }
            let path_alloc = ALLOC_PATH_TYPES.contains(&t.text.as_str())
                && next_is("::")
                && toks
                    .get(m + 2)
                    .map(|n| {
                        n.kind == TokenKind::Ident && ALLOC_PATH_FNS.contains(&n.text.as_str())
                    })
                    .unwrap_or(false);
            if path_alloc {
                ctx.emit(
                    "L10",
                    &t.clone(),
                    format!(
                        "`{}::{}` allocates once per point inside fn {fn_name}; hoist \
                         the buffer onto the sampler (PR 10 contract)",
                        t.text,
                        toks[m + 2].text
                    ),
                );
                continue;
            }
            let method_alloc = m > 0
                && toks[m - 1].is_punct(".")
                && next_is("(")
                && ALLOC_METHODS.contains(&t.text.as_str());
            if method_alloc {
                ctx.emit(
                    "L10",
                    &t.clone(),
                    format!(
                        "`.{}()` allocates once per point inside fn {fn_name}; reuse \
                         a scratch buffer on the sampler (PR 10 contract)",
                        t.text
                    ),
                );
            }
        }
        i = close + 1;
    }
}

/// L7: clock/accounting values never truncate through `as`.
fn rule_l7(ctx: &mut Ctx<'_>) {
    let toks = ctx.tokens;
    for i in 1..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let cast = toks[i].is_ident("as")
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokenKind::Ident
            && NARROWING_INT_TYPES.contains(&toks[i + 1].text.as_str());
        if !cast {
            continue;
        }
        // the source expression's trailing identifier: `x.last_stamp as
        // u32` or `self.words() as u32`
        let mut j = i - 1;
        if toks[j].is_punct(")") {
            // step back over the call's argument list to the callee name
            let mut depth = 0i32;
            loop {
                if toks[j].is_punct(")") {
                    depth += 1;
                } else if toks[j].is_punct("(") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            if j == 0 {
                continue;
            }
            j -= 1;
        }
        let src = &toks[j];
        if src.kind != TokenKind::Ident {
            continue;
        }
        let lower = src.text.to_lowercase();
        if PROTECTED_CAST_NAMES.iter().any(|p| lower.contains(p)) {
            ctx.emit(
                "L7",
                &toks[i].clone(),
                format!(
                    "`{} as {}` silently truncates a clock/accounting value; use \
                     u64::try_from or a checked helper",
                    src.text,
                    toks[i + 1].text
                ),
            );
        }
    }
}
