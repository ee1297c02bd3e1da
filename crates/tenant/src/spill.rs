//! Spill containers and the sharded spill directory layout.
//!
//! An evicted tenant's state leaves memory as exactly the checkpoint
//! container the rest of the workspace already writes (`rds-checkpoint`
//! magic, format version, FNV-1a checksum over the payload bytes as
//! stored — see [`seal_container`] and [`open_container`], the
//! workspace's one container writer and reader), landed with
//! [`rds_core::persist::write_atomic`] so a crash mid-spill can never
//! destroy the previous good container: the incomplete write stays on a
//! temp sibling and the rename is the commit.
//!
//! Containers live under `spill_dir/{hh}/{id}.chk` where `hh` is the low
//! byte of `fnv1a64(id)` in hex — 256 shard directories, so a million
//! spilled tenants do not pile into one directory and directory scans
//! stay cheap.
//!
//! The registry writes a container only for a tenant that changed since
//! it was restored or created: an unchanged tenant's container (or, for
//! a tenant never spilled, its template) already rebuilds it
//! bit-identically, so evicting it just drops the sampler.
//!
//! The registry itself spills whole writers via their
//! [`WriterCheckpoint`](robust_distinct_sampling::WriterCheckpoint); the
//! generic [`seal_state`]/[`open_state`] pair below wraps *any*
//! [`Checkpointable`] sampler state in the same container, so the
//! eviction-invisibility property tests can drive every sampler family —
//! not just the two the facade hosts.

use rds_core::{Checkpointable, RdsError};
use robust_distinct_sampling::{fnv1a64, open_container, seal_container};
use serde::Deserialize;
use std::path::{Path, PathBuf};

/// Where tenant `id`'s spill container lives under `spill_dir`:
/// `spill_dir/{hh}/{id}.chk`, sharded by the low byte of the id's hash.
pub fn container_path(spill_dir: &Path, id: &str) -> PathBuf {
    let shard = fnv1a64(id.as_bytes()) & 0xff;
    spill_dir
        .join(format!("{shard:02x}"))
        .join(format!("{id}.chk"))
}

/// Writes tenant `id`'s spill container atomically (temp sibling +
/// rename), creating the shard directory on first use. Returns the final
/// path.
///
/// # Errors
///
/// [`RdsError::Checkpoint`] when the shard directory cannot be created
/// or the atomic write fails; the previous container (if any) is intact
/// in every failure case.
pub fn write_container(spill_dir: &Path, id: &str, json: &str) -> Result<PathBuf, RdsError> {
    let path = container_path(spill_dir, id);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| {
            RdsError::checkpoint(format!("create spill shard dir {}: {e}", parent.display()))
        })?;
    }
    rds_core::persist::write_atomic(&path, json).map_err(|e| {
        RdsError::checkpoint(format!("write spill container {}: {e}", path.display()))
    })?;
    Ok(path)
}

/// Reads tenant `id`'s spill container if one exists. `Ok(None)` means
/// the tenant has never been spilled (a fresh sampler should be built);
/// any other failure to read is an error, not an excuse to silently
/// restart the tenant from scratch.
///
/// # Errors
///
/// [`RdsError::Checkpoint`] for any I/O failure other than the file not
/// existing.
pub fn read_container(spill_dir: &Path, id: &str) -> Result<Option<String>, RdsError> {
    let path = container_path(spill_dir, id);
    match std::fs::read_to_string(&path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(RdsError::checkpoint(format!(
            "read spill container {}: {e}",
            path.display()
        ))),
    }
}

/// Seals any [`Checkpointable`] sampler's state into a checkpoint
/// container string, through the facade's one container writer
/// ([`seal_container`]) — same magic, version and checksum as writer
/// containers, so a mixed-up file fails loudly instead of parsing.
pub fn seal_state<S: Checkpointable>(sampler: &S) -> String {
    seal_container(&sampler.checkpoint_state())
}

/// Verifies and reopens a container written by [`seal_state`], through
/// the facade's one container reader ([`open_container`]), restoring
/// the sampler through its panic-free `try_from_state` path.
///
/// # Errors
///
/// [`RdsError::Checkpoint`] naming what failed: unparseable JSON, bad
/// magic, unsupported version, checksum mismatch, malformed state, or a
/// state the sampler family rejects.
pub fn open_state<S: Checkpointable>(text: &str) -> Result<S, RdsError> {
    let payload = open_container(text)?;
    let state = S::State::from_value(&payload)
        .map_err(|e| RdsError::checkpoint(format!("malformed spill payload: {e}")))?;
    S::try_from_state(state)
}
