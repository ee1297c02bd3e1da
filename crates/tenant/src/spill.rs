//! Spill containers and the sharded spill directory layout.
//!
//! An evicted tenant's state leaves memory as exactly the checkpoint
//! container the rest of the workspace already writes (`rds-checkpoint`
//! magic, format version, FNV-1a checksum over the canonical payload
//! bytes — see `WriterCheckpoint::to_container_json`), landed with
//! [`rds_core::persist::write_atomic`] so a crash mid-spill can never
//! destroy the previous good container: the incomplete write stays on a
//! temp sibling and the rename is the commit.
//!
//! Containers live under `spill_dir/{hh}/{id}.chk` where `hh` is the low
//! byte of `fnv1a64(id)` in hex — 256 shard directories, so a million
//! spilled tenants do not pile into one directory and directory scans
//! stay cheap.
//!
//! The registry itself spills whole writers via their
//! [`WriterCheckpoint`](robust_distinct_sampling::WriterCheckpoint); the
//! generic [`seal_state`]/[`open_state`] pair below wraps *any*
//! [`Checkpointable`] sampler state in the same container discipline, so
//! the eviction-invisibility property tests can drive every sampler
//! family — not just the two the facade hosts.

use rds_core::{Checkpointable, RdsError};
use robust_distinct_sampling::{fnv1a64, CHECKPOINT_FORMAT_VERSION, CHECKPOINT_MAGIC};
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
/// container string — same magic, version and checksum discipline as the
/// facade's writer containers, so a mixed-up file fails loudly instead
/// of parsing.
pub fn seal_state<S: Checkpointable>(sampler: &S) -> String {
    let payload_json =
        // lint:allow(L9) serializing an in-memory Value tree has no I/O
        // and no unrepresentable cases; it cannot fail
        serde_json::to_string(&sampler.checkpoint_state()).expect("value serialization is infallible");
    let checksum = fnv1a64(payload_json.as_bytes());
    format!(
        "{{\"magic\":\"{CHECKPOINT_MAGIC}\",\
         \"version\":{CHECKPOINT_FORMAT_VERSION},\
         \"checksum\":{checksum},\
         \"payload\":{payload_json}}}"
    )
}

/// Verifies and reopens a container written by [`seal_state`], restoring
/// the sampler through its panic-free `try_from_state` path.
///
/// # Errors
///
/// [`RdsError::Checkpoint`] naming what failed: unparseable JSON, bad
/// magic, unsupported version, checksum mismatch, malformed state, or a
/// state the sampler family rejects.
pub fn open_state<S: Checkpointable>(text: &str) -> Result<S, RdsError> {
    let payload = verify_container(text)?;
    let state = S::State::from_value(&payload)
        .map_err(|e| RdsError::checkpoint(format!("malformed spill payload: {e}")))?;
    S::try_from_state(state)
}

/// Checks a container's magic, format version and checksum, returning
/// the verified payload value.
fn verify_container(text: &str) -> Result<serde::Value, RdsError> {
    let container: serde::Value = serde_json::from_str(text)
        .map_err(|e| RdsError::checkpoint(format!("not a valid JSON container: {e}")))?;
    match container.get("magic") {
        Some(serde::Value::Str(m)) if m == CHECKPOINT_MAGIC => {}
        Some(serde::Value::Str(m)) => {
            return Err(RdsError::checkpoint(format!(
                "bad magic `{m}` (expected `{CHECKPOINT_MAGIC}`)"
            )))
        }
        _ => {
            return Err(RdsError::checkpoint(format!(
                "missing magic (expected `{CHECKPOINT_MAGIC}`) — not a checkpoint file?"
            )))
        }
    }
    let version = container
        .get("version")
        .map(u64::from_value)
        .transpose()
        .map_err(|e| RdsError::checkpoint(format!("bad version field: {e}")))?
        .ok_or_else(|| RdsError::checkpoint("missing format version"))?;
    if version != CHECKPOINT_FORMAT_VERSION {
        return Err(RdsError::checkpoint(format!(
            "unsupported format version {version} (this build reads \
             version {CHECKPOINT_FORMAT_VERSION})"
        )));
    }
    let expected = container
        .get("checksum")
        .map(u64::from_value)
        .transpose()
        .map_err(|e| RdsError::checkpoint(format!("bad checksum field: {e}")))?
        .ok_or_else(|| RdsError::checkpoint("missing checksum"))?;
    let payload = container
        .get("payload")
        .ok_or_else(|| RdsError::checkpoint("missing payload"))?;
    let payload_json =
        // lint:allow(L9) serializing an in-memory Value tree has no I/O
        // and no unrepresentable cases; it cannot fail
        serde_json::to_string(payload).expect("value serialization is infallible");
    let actual = fnv1a64(payload_json.as_bytes());
    if actual != expected {
        return Err(RdsError::checkpoint(format!(
            "checksum mismatch (stored {expected:#018x}, computed {actual:#018x}) — \
             the payload was truncated or altered"
        )));
    }
    Ok(payload.clone())
}
