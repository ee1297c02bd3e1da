//! # rds-server
//!
//! A network serving layer over the split facade: hand-rolled HTTP/1.1
//! on [`std::net::TcpListener`], zero dependencies beyond the
//! workspace's vendored shims.
//!
//! ## Threading model
//!
//! Exactly the facade's contract, extended over the wire:
//!
//! * **one writer thread** owns the [`RdsWriter`] and drains a bounded
//!   command queue of ingest/advance/checkpoint/shutdown commands in
//!   FIFO order — writes are strictly serialized;
//! * **an accept thread** pushes connections into a bounded queue;
//! * **`threads` worker threads** each serve connections with
//!   keep-alive, answering reads from the current [`RdsReader`]'s
//!   lock-free snapshot pointer — queries never block ingest, end to
//!   end.
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

pub use config::{BackendConfig, ServerConfig, TenancyConfig};

use parking_lot::AtomicArc;
use rds_core::RdsError;
use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem};
use robust_distinct_sampling::{PublishCadence, Rds, RdsReader, RdsWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::{fmt, io};

/// Errors surfaced while standing a server up.
#[derive(Debug)]
pub enum ServerError {
    /// The backend configuration was rejected by [`Rds::builder()`].
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

/// The writer thread's reply to a completed command.
pub(crate) struct WriterAck {
    pub(crate) epoch: u64,
    pub(crate) seen: u64,
}

type Reply = SyncSender<Result<WriterAck, RdsError>>;

/// Commands the single writer thread drains in FIFO order.
pub(crate) enum Cmd {
    /// Pre-validated points (dimension and finiteness already checked
    /// by the handler, so `Point` construction cannot panic here).
    Ingest {
        points: Vec<Point>,
        times: Option<Vec<u64>>,
        reply: Reply,
    },
    Advance {
        seq: Option<u64>,
        time: Option<u64>,
        reply: Reply,
    },
    Checkpoint {
        path: String,
        reply: Reply,
    },
    Restore {
        path: String,
        reply: Reply,
    },
    Shutdown {
        checkpoint_path: Option<String>,
        reply: Reply,
    },
}

/// State every worker and the writer loop share.
pub(crate) struct Shared {
    /// Swapped wholesale on `/checkpoint/restore`.
    pub(crate) reader: AtomicArc<RdsReader>,
    pub(crate) cmd_tx: SyncSender<Cmd>,
    pub(crate) dim: usize,
    pub(crate) max_body_bytes: usize,
    pub(crate) read_timeout_ms: u64,
    /// Server-side draw counter for queries without an explicit seed.
    draws: AtomicU64,
    pub(crate) stopping: AtomicBool,
    addr: SocketAddr,
    /// The multi-tenant registry, when tenancy is enabled. Tenant
    /// requests run on worker threads against it directly — per-tenant
    /// serialization is the registry's slot lock, not the global writer
    /// queue.
    pub(crate) tenants: Option<Arc<rds_tenant::TenantRegistry>>,
}

impl Shared {
    pub(crate) fn next_draw(&self) -> u64 {
        self.draws.fetch_add(1, Ordering::Relaxed)
    }

    /// Stops the accept loop: sets the flag, then opens (and drops) a
    /// connection to our own listener so the blocking `accept` wakes
    /// up and observes it.
    pub(crate) fn begin_stop(&self) {
        if !self.stopping.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

fn ack(w: &RdsWriter) -> WriterAck {
    WriterAck {
        epoch: w.epoch(),
        seen: w.seen(),
    }
}

/// The single writer thread: owns the [`RdsWriter`], applies commands
/// in arrival order, exits on `Shutdown` (after a final publish) or
/// when every handle to the command queue is gone.
fn writer_loop(mut writer: RdsWriter, rx: Receiver<Cmd>, shared: Arc<Shared>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Ingest {
                points,
                times,
                reply,
            } => {
                let before = writer.seen();
                match times {
                    None => {
                        for p in points {
                            let seq = writer.seen();
                            writer.process_item(StreamItem::new(p, Stamp::at(seq)));
                        }
                    }
                    Some(times) => {
                        for (p, t) in points.into_iter().zip(times) {
                            let seq = writer.seen();
                            writer.process_item(StreamItem::new(p, Stamp::new(seq, t)));
                        }
                    }
                }
                // `process_item` honors Manual/EveryN; EveryBatch means
                // "publish at the end of each ingest request" here.
                if writer.cadence() == PublishCadence::EveryBatch && writer.seen() > before {
                    writer.publish();
                }
                let _ = reply.send(Ok(ack(&writer)));
            }
            Cmd::Advance { seq, time, reply } => {
                let seq = seq.unwrap_or_else(|| writer.seen());
                let time = time.unwrap_or(seq);
                writer.advance(Stamp::new(seq, time));
                let _ = reply.send(Ok(ack(&writer)));
            }
            Cmd::Checkpoint { path, reply } => {
                let result = writer.checkpoint_to(&path).map(|()| ack(&writer));
                let _ = reply.send(result);
            }
            Cmd::Restore { path, reply } => {
                let cadence = writer.cadence();
                match Rds::builder().restore_from(&path) {
                    Ok((mut w, r)) => {
                        if w.dim() != shared.dim {
                            let _ = reply.send(Err(RdsError::checkpoint(format!(
                                "restore would change the point dimension from {} to {}; \
                                 boot a fresh server for that container",
                                shared.dim,
                                w.dim()
                            ))));
                        } else {
                            w.set_cadence(cadence);
                            writer = w;
                            shared.reader.store(Arc::new(r));
                            let _ = reply.send(Ok(ack(&writer)));
                        }
                    }
                    Err(e) => {
                        let _ = reply.send(Err(e));
                    }
                }
            }
            Cmd::Shutdown {
                checkpoint_path,
                reply,
            } => {
                writer.publish();
                let result = match checkpoint_path {
                    Some(path) => writer.checkpoint_to(&path).map(|()| ack(&writer)),
                    None => Ok(ack(&writer)),
                };
                let _ = reply.send(result);
                break;
            }
        }
    }
}

/// A running server: its bound address and the threads to join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// In-process graceful stop: final publish on the writer, stop
    /// accepting. Equivalent to `POST /admin/shutdown` (idempotent —
    /// safe to call after a client already shut the server down).
    pub fn shutdown(&self) {
        let (reply, rx) = mpsc::sync_channel(1);
        if self
            .shared
            .cmd_tx
            .send(Cmd::Shutdown {
                checkpoint_path: None,
                reply,
            })
            .is_ok()
        {
            let _ = rx.recv();
        }
        // Best-effort durability for tenants: park every resident
        // sampler on disk so a restart resumes them. A spill failure
        // must not block shutdown.
        if let Some(reg) = &self.shared.tenants {
            let _ = reg.spill_all();
        }
        self.shared.begin_stop();
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
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
    }

    /// [`Self::shutdown`] then [`Self::join`].
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Builds the backend, binds the listener, and spawns the writer,
/// accept, and worker threads. Returns as soon as the socket is live —
/// `GET /healthz` answers from that moment.
///
/// # Errors
///
/// [`ServerError::Config`] when `cfg.backend` is rejected by the
/// facade builder; [`ServerError::Io`] when the bind or a thread spawn
/// fails.
pub fn bind(cfg: ServerConfig) -> Result<ServerHandle, ServerError> {
    let (writer, reader) = cfg.backend.build_split().map_err(ServerError::Config)?;
    let dim = writer.dim();
    let tenants = match &cfg.tenants {
        None => None,
        Some(tc) => {
            // Tenants share the backend's sampler knobs; each tenant is
            // its own single-shard stream (`shards`/`restore_from` are
            // global-backend concerns).
            let mut template = rds_tenant::TenantTemplate::new(cfg.backend.dim, cfg.backend.alpha);
            template.window = cfg.backend.window;
            template.seed = cfg.backend.seed;
            template.expected_len = cfg.backend.expected_len;
            template.k = cfg.backend.k;
            template.eps = cfg.backend.eps;
            let registry =
                rds_tenant::TenantRegistry::new(template, tc.budget_words, tc.spill_dir.as_str())
                    .map_err(ServerError::Config)?;
            Some(Arc::new(registry))
        }
    };
    let listener = TcpListener::bind(cfg.addr.as_str()).map_err(ServerError::Io)?;
    let addr = listener.local_addr().map_err(ServerError::Io)?;

    let (cmd_tx, cmd_rx) = mpsc::sync_channel(cfg.queue_depth.max(1));
    let shared = Arc::new(Shared {
        reader: AtomicArc::new(Arc::new(reader)),
        cmd_tx,
        dim,
        max_body_bytes: cfg.max_body_bytes,
        read_timeout_ms: cfg.read_timeout_ms,
        draws: AtomicU64::new(0),
        stopping: AtomicBool::new(false),
        addr,
        tenants,
    });

    let writer_shared = Arc::clone(&shared);
    let writer_thread = std::thread::Builder::new()
        .name("rds-writer".to_string())
        .spawn(move || writer_loop(writer, cmd_rx, writer_shared))
        .map_err(ServerError::Io)?;

    let n_workers = cfg.threads.max(1);
    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(n_workers * 2);
    let conn_rx = Arc::new(parking_lot::Mutex::new(conn_rx));
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
        writer: Some(writer_thread),
    })
}
