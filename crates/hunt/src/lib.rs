//! Collie-style adversarial anomaly hunting for the PARALEON stack.
//!
//! The paper tunes DCQCN for average-case utility; this crate searches
//! for the *worst* cases — the PFC pause storms, goodput collapses,
//! starvation patterns and livelocks DCQCN fabrics are famous for —
//! by mutating a compact genome ([`HuntPoint`]: topology spec,
//! workload, fault plan, DCQCN parameters, seed) to maximize the signal
//! of a machine-checkable oracle suite ([`OracleKind`]), the way Collie
//! (NSDI'22) hunts performance anomalies in RDMA deployments by guided
//! search instead of hand-written scenarios.
//!
//! The pipeline:
//!
//! 1. [`evaluate`] runs a candidate point and its fault-free *twin* (same
//!    topology/workload/seed, no faults, default parameters) through the
//!    deterministic simulator and extracts per-interval signals.
//! 2. [`OracleReport`] scores the pair: goodput collapse vs the twin,
//!    sustained PFC pause-storm ratio, per-flow unfairness/starvation,
//!    audit invariant violations, and an event-budget livelock detector.
//! 3. [`hunt`] runs a seeded (µ+λ)-style mutation loop, fanning
//!    candidate evaluation across threads with the index-addressed
//!    [`paraleon::sweep`] runner (results in job order — parallel hunts
//!    reproduce serial ones bit for bit).
//! 4. [`minimize()`] delta-debugs every confirmed finding — dropping
//!    flows and fault events, shrinking counts/bytes/topology, resetting
//!    parameters to defaults — while the oracle keeps firing.
//! 5. [`corpus`] reads minimized repros back from JSON; the `exp corpus`
//!    row of `paraleon-bench` re-runs every committed case and demands
//!    *byte-identical* case files, turning each found pathology into a
//!    regression gate (the `exp hunt` row runs the committed search).
//!
//! Everything is deterministic: same binary, same seed, same findings.

pub mod corpus;
mod eval;
mod genome;
mod minimize;
mod mutate;
mod oracle;
mod search;

pub use eval::{evaluate, EvalConfig, Evaluation, RunMetrics};
pub use genome::{FlowSpec, HuntPoint};
pub use minimize::{minimize, minimize_with, MinimizeStats};
pub use mutate::{mutate, seed_point};
pub use oracle::{goodput_collapse, pfc_storm, CollapseMeasure, CtrlMeasure, StormMeasure};
pub use oracle::{OracleConfig, OracleKind, OracleOutcome, OracleReport, ALL_ORACLES};
pub use search::{hunt, Finding, HuntResult, SearchConfig};
