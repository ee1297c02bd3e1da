//! # rds-tenant
//!
//! Multi-tenant sampler registry: one process, millions of keyed
//! streams, one global space budget.
//!
//! A [`TenantRegistry`] owns a sampler per tenant id, all built from one
//! [`TenantTemplate`] (per-tenant seeds derive from the id, so tenants
//! are independent yet individually deterministic). Resident samplers
//! are metered in machine `words()` — the paper's space-accounting unit
//! — against a global budget; when the budget runs out, a second-chance
//! clock evicts idle tenants by spilling their complete
//! `Checkpointable` state to checkpoint containers on disk (atomic
//! writes, sharded directory) and restores them lazily on next touch.
//!
//! **Eviction is invisible.** A spilled-and-restored tenant continues
//! from the exact PRNG position it was evicted at: every subsequent
//! answer is bit-identical (`f64::to_bits` identical) to a tenant that
//! was never evicted. The property tests drive this across every
//! sampler family and adversarial eviction schedules.
//!
//! ```
//! use rds_tenant::{TenantRegistry, TenantTemplate};
//! use rds_geometry::Point;
//!
//! let dir = std::env::temp_dir().join("rds-tenant-doc");
//! let reg = TenantRegistry::new(TenantTemplate::new(2, 0.1), 1 << 20, &dir).unwrap();
//! reg.ingest("acme", &[Point::new(vec![1.0, 2.0])], None).unwrap();
//! assert!(reg.f0_estimate("acme").unwrap() >= 1.0);
//! ```

#![warn(missing_docs)]

mod registry;
pub mod spill;

pub use registry::{
    validate_tenant_id, RegistryStats, TenantAck, TenantRegistry, TenantTemplate, MAX_TENANT_ID_LEN,
};
