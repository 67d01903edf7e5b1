//! Workload generators for the PARALEON evaluation.
//!
//! The paper evaluates on four traffic patterns, all reproduced here:
//!
//! * **FB_Hadoop** — the Facebook Hadoop-cluster distribution (Roy et al.,
//!   SIGCOMM 2015): most *flows* are mice, most *bytes* belong to
//!   elephants. Generated as an open-loop Poisson process at a target
//!   load ([`PoissonWorkload`] over [`FlowSizeDist::fb_hadoop`]).
//! * **LLM training alltoall** — an ON-OFF pattern (Janus, SIGCOMM 2023):
//!   during ON, every worker sends an equal-size message to every other
//!   worker; when the collective finishes, all workers compute for an OFF
//!   period, then repeat ([`Collective`] over [`CollectiveKind::Alltoall`]).
//! * **SolarRPC** — the Alibaba storage-RPC distribution (SIGCOMM 2022),
//!   entirely mice below 128 KB ([`FlowSizeDist::solar_rpc`]).
//! * **NCCL-Tests-style alltoall sweeps** — single synchronized alltoall
//!   rounds of configurable message size, used by Table II and Fig. 13.
//!
//! Beyond the paper, one [`CollectiveSpec`] describes every collective
//! NCCL schedules — alltoall, ring allreduce, binomial-tree allreduce and
//! pipeline-parallel activation bursts — and one [`Collective`] round
//! machine runs any of them, so the harness can ask whether PARALEON's
//! tuning guidance survives barrier-synchronized traffic that is *not* a
//! full mesh (ROADMAP item 2). The hunt's genomes carry the same spec.
//!
//! The generators are pure: they emit [`FlowRequest`] values (or round
//! state machines) and never touch the simulator, so the same workload
//! can drive the packet simulator, the monitoring accuracy harness, and
//! unit tests. Published CDFs are encoded as piecewise log-linear
//! interpolations ([`FlowSizeDist`]); exact trace files are proprietary,
//! so the curves approximate the published plots (documented per
//! distribution).

mod collective;
mod fsize;
mod poisson;

pub use collective::{
    AllToAll, AllToAllConfig, Collective, CollectiveError, CollectiveKind, CollectiveSpec, Progress,
};
pub use fsize::FlowSizeDist;
pub use poisson::{PoissonConfig, PoissonWorkload};

/// Host identifier within a workload (maps to a simulator node).
pub(crate) type HostId = usize;

/// Nanoseconds since simulation start (matches the simulator clock).
pub type Nanos = u64;

/// One flow the workload asks the network to carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRequest {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Flow size in bytes.
    pub bytes: u64,
    /// Requested start time.
    pub start: Nanos,
}
