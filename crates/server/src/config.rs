//! Server configuration: bind address, threadpool sizing, request
//! limits, and the backend knobs forwarded to [`Rds::builder()`].

use rds_core::RdsError;
use rds_stream::Window;
use robust_distinct_sampling::{Rds, RdsReader, RdsWriter};

/// Backend selection: every knob [`Rds::builder()`] exposes, in plain
/// data form so a server can be configured from flags or tests without
/// threading a builder through.
///
/// When [`restore_from`](Self::restore_from) is set the server boots
/// from a PR-5 checkpoint container and **every other field except
/// [`publish_every`](Self::publish_every) is ignored** — the container's
/// config echo is authoritative, exactly as `rds checkpoint restore`
/// behaves on the CLI.
#[derive(Debug, Clone)]
pub struct BackendConfig {
    /// Point dimensionality (ignored on restore).
    pub dim: usize,
    /// Near-duplicate radius `alpha` (ignored on restore).
    pub alpha: f64,
    /// Stream window model (ignored on restore).
    pub window: Window,
    /// Engine shards; 1 = in-process sampler (ignored on restore).
    pub shards: usize,
    /// PRNG seed (ignored on restore).
    pub seed: u64,
    /// Expected stream length hint (ignored on restore).
    pub expected_len: u64,
    /// Samples per query, if the k-sampler backend is wanted.
    pub k: Option<usize>,
    /// Count accuracy `eps`, if the F0 regime threshold is wanted.
    pub eps: Option<f64>,
    /// Publish a snapshot every N processed points (default: the
    /// facade's `DEFAULT_PUBLISH_EVERY`). Honored on restore too.
    pub publish_every: Option<u64>,
    /// Boot from this checkpoint container instead of an empty stream.
    pub restore_from: Option<String>,
}

impl BackendConfig {
    /// A fresh backend with the facade's defaults: infinite window,
    /// one shard, seed 0.
    pub fn new(dim: usize, alpha: f64) -> Self {
        Self {
            dim,
            alpha,
            window: Window::Infinite,
            shards: 1,
            seed: 0,
            expected_len: 1 << 20,
            k: None,
            eps: None,
            publish_every: None,
            restore_from: None,
        }
    }

    /// Builds the split pair this configuration describes.
    pub(crate) fn build_split(&self) -> Result<(RdsWriter, RdsReader), RdsError> {
        let mut b = Rds::builder();
        if let Some(n) = self.publish_every {
            b = b.publish_every(n);
        }
        if let Some(path) = &self.restore_from {
            return b.restore_from(path);
        }
        b = b
            .dim(self.dim)
            .alpha(self.alpha)
            .window(self.window)
            .shards(self.shards)
            .seed(self.seed)
            .expected_len(self.expected_len);
        if let Some(k) = self.k {
            b = b.k(k);
        }
        if let Some(eps) = self.eps {
            b = b.count_accuracy(eps);
        }
        b.build_split()
    }
}

/// Multi-tenant serving: when set, the server additionally exposes
/// `/t/{tenant}/...` routes backed by a [`rds_tenant::TenantRegistry`]
/// built from the same [`BackendConfig`] knobs (each tenant is its own
/// single-shard stream; `shards` and `restore_from` apply only to the
/// global backend, not to tenants).
#[derive(Debug, Clone)]
pub struct TenancyConfig {
    /// Global cap on resident tenant footprint, in machine words
    /// (`words()`, the paper's space unit). Idle tenants are spilled to
    /// `spill_dir` when traffic would exceed it.
    pub budget_words: usize,
    /// Directory receiving eviction containers; tenants spilled there
    /// by a previous process restore transparently.
    pub spill_dir: String,
}

/// Everything [`crate::bind`] needs: where to listen, how many worker
/// threads answer requests, per-request limits, and the backend.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads answering requests. Each reads from the shared
    /// [`RdsReader`] and applies writes itself under the writer lock,
    /// so this also bounds how many writes can wait for that lock.
    pub threads: usize,
    /// Hard cap on `Content-Length`; larger bodies get `413`.
    pub max_body_bytes: usize,
    /// Per-connection read timeout: an idle keep-alive connection is
    /// dropped after this long, so shutdown can always drain.
    pub read_timeout_ms: u64,
    /// The sampler backend served by this process.
    pub backend: BackendConfig,
    /// Multi-tenant serving, off by default (the `/t/...` routes answer
    /// 404 when unset and `/healthz` omits registry fields).
    pub tenants: Option<TenancyConfig>,
}

impl ServerConfig {
    /// Defaults: ephemeral loopback port, 4 workers, 1 MiB body cap and
    /// a 5 s read timeout.
    pub fn new(backend: BackendConfig) -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            max_body_bytes: 1 << 20,
            read_timeout_ms: 5_000,
            backend,
            tenants: None,
        }
    }
}
