//! Controller-as-a-service: one PARALEON tuner process managing a
//! fleet of simulated fabrics.
//!
//! The paper's deployment story is a *shared* controller: one tuning
//! service monitors and re-parameterizes many independent RDMA fabrics,
//! rather than each fabric running its own controller stack. This crate
//! models that service over the existing building blocks — each tenant
//! is one `(topology, workload, fault plan, DCQCN seed)` fabric on the
//! ordinary [`Engine`], paired with the controller state extracted into
//! [`TunerCell`] — under one deterministic cooperative scheduler.
//!
//! A service tick is one fan-out (see [`FleetService::tick`]): every
//! tenant, optionally on a worker thread, runs one interval exactly as
//! its standalone loop would — its fabric advances one λ_MI, then its
//! cell takes its one controller turn over that interval, the paper's
//! one monitor → tune → dispatch round per λ_MI — and the coordinator
//! replays the telemetry they captured in tenant id order. The whole
//! service checkpoints into a [`FleetSnapshot`] that restores mid-run,
//! with or without crash semantics. Tenants can be admitted at runtime.
//!
//! Two properties anchor everything (enforced in tests and by
//! `exp fleet`):
//!
//! 1. **Standalone equivalence** — each tenant's interval history,
//!    tuned parameters and flow completions are bit-identical to the
//!    same spec run as a standalone [`ClosedLoop`].
//! 2. **Thread-count invariance** — the fleet's results (including
//!    telemetry emission order) are byte-identical between `threads: 1`
//!    and any `threads: N`.
//!
//! [`Engine`]: paraleon_netsim::Engine
//! [`TunerCell`]: paraleon::prelude::TunerCell
//! [`ClosedLoop`]: paraleon::prelude::ClosedLoop

mod service;
mod snapshot;
mod tenant;

pub use service::{FleetConfig, FleetService, FleetStats, TickReport};
pub use snapshot::{FleetSnapshot, RestoreError, TenantSnapshot};
pub use tenant::{standalone_run, Tenant, TenantId, TenantSpec};
