//! Why the engine refused an API call.

use crate::Nanos;

/// Why the simulator refused an API call (bounds-checked alternatives to
/// the panicking entry points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A switch index at or beyond the number of switches.
    SwitchIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Switch count (every tier above the hosts).
        n_switches: usize,
    },
    /// A node id at or beyond the number of nodes.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Node count.
        n_nodes: usize,
    },
    /// A port index at or beyond the node's radix.
    PortOutOfRange {
        /// The node addressed.
        node: usize,
        /// The offending port index.
        port: usize,
        /// The node's radix.
        n_ports: usize,
    },
    /// Flow endpoints must be two distinct hosts.
    BadEndpoints {
        /// Requested source.
        src: usize,
        /// Requested destination.
        dst: usize,
        /// Host count.
        n_hosts: usize,
    },
    /// Zero-byte flows are not admissible.
    EmptyFlow,
    /// Something was scheduled before the current simulation time.
    TimeInPast {
        /// Requested time.
        at: Nanos,
        /// Current simulation time.
        now: Nanos,
    },
    /// A host-only fault (PFC storm) targeted a non-host node.
    NotAHost {
        /// The offending node id.
        node: usize,
    },
    /// A `Degrade` factor outside `[10⁻⁶, 1]` or a `PktLoss` probability
    /// outside `[0, 1]` (NaN and infinities included).
    FaultParamOutOfRange {
        /// Index of the offending transition in the plan.
        index: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SimError::SwitchIndexOutOfRange { index, n_switches } => {
                write!(f, "switch index {index} out of range (have {n_switches})")
            }
            SimError::NodeOutOfRange { node, n_nodes } => {
                write!(f, "node {node} out of range (have {n_nodes})")
            }
            SimError::PortOutOfRange {
                node,
                port,
                n_ports,
            } => write!(
                f,
                "port {port} out of range on node {node} (radix {n_ports})"
            ),
            SimError::BadEndpoints { src, dst, n_hosts } => write!(
                f,
                "flow endpoints {src}->{dst} must be distinct hosts (< {n_hosts})"
            ),
            SimError::EmptyFlow => write!(f, "zero-byte flow"),
            SimError::TimeInPast { at, now } => {
                write!(f, "time {at} is in the past (now {now})")
            }
            SimError::NotAHost { node } => write!(f, "node {node} is not a host"),
            SimError::FaultParamOutOfRange { index } => write!(
                f,
                "fault {index}: degrade factor or drop probability out of range"
            ),
        }
    }
}

impl std::error::Error for SimError {}
