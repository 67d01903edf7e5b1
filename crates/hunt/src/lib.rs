//! Collie-style adversarial anomaly hunting for the PARALEON stack.
//!
//! The paper tunes DCQCN for average-case utility; this crate searches
//! for the *worst* cases — the PFC pause storms, goodput collapses,
//! starvation patterns and livelocks DCQCN fabrics are famous for —
//! by mutating a compact genome ([`genome::HuntPoint`]: topology spec,
//! workload, fault plan, DCQCN parameters, seed) to maximize the signal
//! of a machine-checkable [`oracle`] suite, the way Collie (NSDI'22)
//! hunts performance anomalies in RDMA deployments by guided search
//! instead of hand-written scenarios.
//!
//! The pipeline:
//!
//! 1. [`eval`] runs a candidate point and its fault-free *twin* (same
//!    topology/workload/seed, no faults, default parameters) through the
//!    deterministic simulator and extracts per-interval signals.
//! 2. [`oracle`] scores the pair: goodput collapse vs the twin, sustained
//!    PFC pause-storm ratio, per-flow unfairness/starvation, audit
//!    invariant violations, and an event-budget livelock detector.
//! 3. [`search`] runs a seeded (µ+λ)-style mutation loop, fanning
//!    candidate evaluation across threads with the index-addressed
//!    [`paraleon::sweep`] runner (results in job order — parallel hunts
//!    reproduce serial ones bit for bit).
//! 4. [`mod@minimize`] delta-debugs every confirmed finding — dropping
//!    flows and fault events, shrinking counts/bytes/topology, resetting
//!    parameters to defaults — while the oracle keeps firing.
//! 5. [`corpus`] serializes minimized repros as JSON; `corpus replay`
//!    re-runs every committed case and demands *byte-identical* oracle
//!    reports, turning each found pathology into a regression gate.
//!
//! Everything is deterministic: same binary, same seed, same findings.

pub mod corpus;
pub mod eval;
pub mod genome;
pub mod minimize;
pub mod mutate;
pub mod oracle;
pub mod search;

pub use corpus::HuntCase;
pub use eval::{evaluate, EvalConfig, Evaluation, RunMetrics};
pub use genome::{FlowSpec, GenomeCaps, HuntPoint};
pub use minimize::{minimize, MinimizeStats};
pub use oracle::{OracleConfig, OracleKind, OracleOutcome, OracleReport};
pub use search::{Finding, HuntResult, SearchConfig};
