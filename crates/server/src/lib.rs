//! # rds-server
//!
//! A network serving layer over the split facade: hand-rolled HTTP/1.1
//! on [`std::net::TcpListener`], zero dependencies beyond the
//! workspace's vendored shims.
//!
//! ## Threading model
//!
//! Exactly the facade's contract, extended over the wire, on two kinds
//! of thread:
//!
//! * **an accept thread** pushes connections into a bounded queue;
//! * **`threads` worker threads** each serve connections with
//!   keep-alive. A write to the global stream runs on the worker that
//!   received it, under the writer lock around the one [`RdsWriter`],
//!   so writes are strictly serialized — the same scheme tenant writes
//!   use with their per-tenant slot locks. Reads answer from the
//!   current [`RdsReader`]'s lock-free snapshot pointer and never take
//!   the writer lock, so queries never block ingest, end to end.
//!
//! `/checkpoint/restore` swaps in a whole new `(writer, reader)` pair;
//! workers pick up the new reader on their next request via an
//! [`AtomicArc`] — in-flight queries keep the old snapshot, exactly
//! like an epoch bump.
//!
//! ## Errors
//!
//! Every failure is an envelope `{"error":{"code","message"}}` — see
//! [`api_types`]. Malformed requests are 4xx, never a dead thread:
//! lint rule L8 bans `unwrap`/`expect`/panics from this whole crate's
//! serving path, and the connection loop adds `catch_unwind` as belt
//! and braces.

pub mod api_types;
pub mod client;
pub mod config;
mod handlers;
pub mod http;
pub mod router;

pub use config::{ServerConfig, TenancyConfig};

use parking_lot::{AtomicArc, Mutex};
use rds_core::RdsError;
use robust_distinct_sampling::{RdsReader, RdsWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::{fmt, io};

/// Errors surfaced while standing a server up.
#[derive(Debug)]
pub enum ServerError {
    /// The facade rejected the stream's configuration or its
    /// checkpoint, or the tenant registry its spill directory.
    Config(RdsError),
    /// Socket or thread setup failed.
    Io(io::Error),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Config(e) => write!(f, "backend configuration rejected: {e}"),
            ServerError::Io(e) => write!(f, "server setup failed: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Config(e) => Some(e),
            ServerError::Io(e) => Some(e),
        }
    }
}

/// A completed write: the stream's epoch and item count after it.
pub(crate) struct Ack {
    pub(crate) epoch: u64,
    pub(crate) seen: u64,
}

impl Ack {
    pub(crate) fn of(w: &RdsWriter) -> Self {
        Self {
            epoch: w.epoch(),
            seen: w.seen(),
        }
    }
}

/// State every worker shares.
pub(crate) struct Shared {
    /// Swapped wholesale on `/checkpoint/restore`.
    pub(crate) reader: AtomicArc<RdsReader>,
    /// The global stream's writer, behind the lock that serializes its
    /// writes. `None` once retired: by a shutdown, or by a write that
    /// panicked (see `handlers::write`).
    pub(crate) writer: Mutex<Option<RdsWriter>>,
    pub(crate) dim: usize,
    pub(crate) max_body_bytes: usize,
    pub(crate) read_timeout_ms: u64,
    /// Server-side draw counter for queries without an explicit seed.
    draws: AtomicU64,
    pub(crate) stopping: AtomicBool,
    addr: SocketAddr,
    /// The multi-tenant registry, when tenancy is enabled. Tenant
    /// requests run against it directly — per-tenant serialization is
    /// the registry's slot lock, not the global writer lock.
    pub(crate) tenants: Option<Arc<rds_tenant::TenantRegistry>>,
}

impl Shared {
    pub(crate) fn next_draw(&self) -> u64 {
        self.draws.fetch_add(1, Ordering::Relaxed)
    }

    /// The one stop sequence, shared by [`ServerHandle::shutdown`] and
    /// `POST /admin/shutdown`: final publish, optional checkpoint,
    /// retire the writer, spill tenants, stop accepting. Returns the
    /// writer's final position, or `None` when it was already retired.
    ///
    /// # Errors
    ///
    /// A failed checkpoint puts the writer back and stops nothing, so
    /// the caller can retry with another path.
    pub(crate) fn stop(&self, checkpoint_path: Option<&str>) -> Result<Option<Ack>, RdsError> {
        let mut slot = self.writer.lock();
        let last = match slot.take() {
            None => None,
            Some(mut w) => {
                w.publish();
                if let Some(path) = checkpoint_path {
                    if let Err(e) = w.checkpoint_to(path) {
                        *slot = Some(w);
                        return Err(e);
                    }
                }
                Some(Ack::of(&w))
            }
        };
        drop(slot);
        // Best-effort durability for tenants: park every resident
        // sampler on disk so a restart on the same spill directory
        // resumes them. A spill failure must not block the stop.
        if let Some(reg) = &self.tenants {
            let _ = reg.spill_all();
        }
        // Wake the blocking `accept` with a connection to our own
        // listener so it observes the flag.
        if !self.stopping.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
        Ok(last)
    }
}

/// A running server: its bound address and the threads to join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// In-process graceful stop: final publish, retire the writer,
    /// spill tenants, stop accepting. Equivalent to `POST
    /// /admin/shutdown` (idempotent — safe to call after a client
    /// already shut the server down).
    pub fn shutdown(&self) {
        let _ = self.shared.stop(None);
    }

    /// Waits for every server thread to exit. Blocks until a shutdown
    /// is triggered (by [`Self::shutdown`] or `POST /admin/shutdown`)
    /// and every open connection drains or times out.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// [`Self::shutdown`] then [`Self::join`].
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Builds or restores the global stream, binds the listener, and
/// spawns the accept and worker threads. Returns as soon as the socket
/// is live — `GET /healthz` answers from that moment.
///
/// # Errors
///
/// [`ServerError::Config`] when the facade rejects `cfg.stream` or the
/// checkpoint at `cfg.restore_from`, or the registry rejects its spill
/// directory; [`ServerError::Io`] when the bind or a thread spawn
/// fails.
pub fn bind(cfg: ServerConfig) -> Result<ServerHandle, ServerError> {
    let (writer, reader) = match &cfg.restore_from {
        Some(path) => cfg.stream.restore_from(path),
        None => cfg.stream.build_split(),
    }
    .map_err(ServerError::Config)?;
    let dim = writer.dim();
    let tenants = match &cfg.tenants {
        None => None,
        Some(tc) => {
            // Tenants take the global stream's resolved configuration,
            // so a restored server serves them with the checkpoint's;
            // each tenant is its own single-shard stream.
            let c = writer.cfg();
            let template = rds_tenant::TenantTemplate {
                dim,
                alpha: c.alpha,
                window: writer.window(),
                seed: c.seed,
                expected_len: c.expected_len,
                k: Some(c.k),
                eps: writer.count_accuracy(),
            };
            let registry =
                rds_tenant::TenantRegistry::new(template, tc.budget_words, tc.spill_dir.as_str())
                    .map_err(ServerError::Config)?;
            Some(Arc::new(registry))
        }
    };
    let listener = TcpListener::bind(cfg.addr.as_str()).map_err(ServerError::Io)?;
    let addr = listener.local_addr().map_err(ServerError::Io)?;

    let shared = Arc::new(Shared {
        reader: AtomicArc::new(Arc::new(reader)),
        writer: Mutex::new(Some(writer)),
        dim,
        max_body_bytes: cfg.max_body_bytes,
        read_timeout_ms: cfg.read_timeout_ms,
        draws: AtomicU64::new(0),
        stopping: AtomicBool::new(false),
        addr,
        tenants,
    });

    let n_workers = cfg.threads.max(1);
    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(n_workers * 2);
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    let mut workers = Vec::with_capacity(n_workers);
    for i in 0..n_workers {
        let rx = Arc::clone(&conn_rx);
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("rds-worker-{i}"))
            .spawn(move || loop {
                // take the lock only to dequeue; serve with it released
                let next = rx.lock().recv();
                match next {
                    Ok(stream) => handlers::handle_connection(stream, &worker_shared),
                    Err(_) => break,
                }
            })
            .map_err(ServerError::Io)?;
        workers.push(handle);
    }

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("rds-accept".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_shared.stopping.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    if conn_tx.send(stream).is_err() {
                        break;
                    }
                }
            }
            // conn_tx drops here: workers drain the queue and exit
        })
        .map_err(ServerError::Io)?;

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers,
    })
}
