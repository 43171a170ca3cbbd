//! NUMA ("nodes per socket") BIOS configuration.
//!
//! Rome exposes its four I/O-die quadrants as configurable NUMA domains.
//! The paper's system uses "2-Channel Interleaving (per Quadrant)" (AMD
//! publication 56338), which corresponds to NPS4: each quadrant with its two
//! memory channels is one NUMA node.

use crate::ids::{NumaNodeId, QuadrantId, SocketId};
use std::fmt;

/// BIOS "NUMA nodes per socket" selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumaMode {
    /// One node per socket: all eight channels interleaved.
    Nps1,
    /// Two nodes per socket: four channels each.
    Nps2,
    /// Four nodes per socket: per-quadrant 2-channel interleaving — the
    /// paper's configuration.
    Nps4,
}

impl NumaMode {
    /// NUMA nodes exposed per socket.
    pub fn nodes_per_socket(self) -> u32 {
        match self {
            NumaMode::Nps1 => 1,
            NumaMode::Nps2 => 2,
            NumaMode::Nps4 => 4,
        }
    }

    /// DDR4 channels interleaved within one node.
    pub fn channels_per_node(self) -> u32 {
        8 / self.nodes_per_socket()
    }
}

impl fmt::Display for NumaMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumaMode::Nps1 => write!(f, "NPS1"),
            NumaMode::Nps2 => write!(f, "NPS2"),
            NumaMode::Nps4 => write!(f, "NPS4 (2-channel interleaving per quadrant)"),
        }
    }
}

/// Derived NUMA layout for a whole system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaConfig {
    mode: NumaMode,
    sockets: u32,
}

impl NumaConfig {
    /// Computes the layout for `sockets` packages in the given mode.
    pub fn derive(mode: NumaMode, sockets: u32) -> Self {
        Self { mode, sockets }
    }

    /// The BIOS mode this layout was derived from.
    pub fn mode(&self) -> NumaMode {
        self.mode
    }

    /// Total NUMA nodes in the system.
    pub fn num_nodes(&self) -> usize {
        (self.sockets * self.mode.nodes_per_socket()) as usize
    }

    /// The NUMA node local to an I/O-die quadrant.
    pub fn node_of_quadrant(&self, quadrant: QuadrantId) -> NumaNodeId {
        let socket = quadrant.0 / 4;
        let local_quadrant = quadrant.0 % 4;
        let per_socket = self.mode.nodes_per_socket();
        // Quadrants fold onto nodes evenly: NPS4 1:1, NPS2 2:1, NPS1 4:1.
        let local_node = local_quadrant * per_socket / 4;
        NumaNodeId(socket * per_socket + local_node)
    }

    /// The socket that owns a NUMA node.
    pub fn socket_of_node(&self, node: NumaNodeId) -> SocketId {
        SocketId(node.0 / self.mode.nodes_per_socket())
    }

    /// Whether an access from `from` to memory on `to` crosses the xGMI
    /// socket interconnect.
    pub fn is_cross_socket(&self, from: SocketId, to: NumaNodeId) -> bool {
        self.socket_of_node(to) != from
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_per_socket_counts() {
        assert_eq!(NumaMode::Nps1.nodes_per_socket(), 1);
        assert_eq!(NumaMode::Nps2.nodes_per_socket(), 2);
        assert_eq!(NumaMode::Nps4.nodes_per_socket(), 4);
        assert_eq!(NumaMode::Nps4.channels_per_node(), 2);
        assert_eq!(NumaMode::Nps1.channels_per_node(), 8);
    }

    #[test]
    fn nps4_two_socket_exposes_eight_nodes() {
        let cfg = NumaConfig::derive(NumaMode::Nps4, 2);
        assert_eq!(cfg.num_nodes(), 8);
        assert_eq!(cfg.node_of_quadrant(QuadrantId(0)), NumaNodeId(0));
        assert_eq!(cfg.node_of_quadrant(QuadrantId(3)), NumaNodeId(3));
        assert_eq!(cfg.node_of_quadrant(QuadrantId(4)), NumaNodeId(4));
        assert_eq!(cfg.node_of_quadrant(QuadrantId(7)), NumaNodeId(7));
    }

    #[test]
    fn nps1_folds_all_quadrants_per_socket() {
        let cfg = NumaConfig::derive(NumaMode::Nps1, 2);
        assert_eq!(cfg.num_nodes(), 2);
        for q in 0..4 {
            assert_eq!(cfg.node_of_quadrant(QuadrantId(q)), NumaNodeId(0));
        }
        for q in 4..8 {
            assert_eq!(cfg.node_of_quadrant(QuadrantId(q)), NumaNodeId(1));
        }
    }

    #[test]
    fn nps2_pairs_quadrants() {
        let cfg = NumaConfig::derive(NumaMode::Nps2, 1);
        assert_eq!(cfg.num_nodes(), 2);
        assert_eq!(cfg.node_of_quadrant(QuadrantId(0)), NumaNodeId(0));
        assert_eq!(cfg.node_of_quadrant(QuadrantId(1)), NumaNodeId(0));
        assert_eq!(cfg.node_of_quadrant(QuadrantId(2)), NumaNodeId(1));
        assert_eq!(cfg.node_of_quadrant(QuadrantId(3)), NumaNodeId(1));
    }

    #[test]
    fn cross_socket_detection() {
        let cfg = NumaConfig::derive(NumaMode::Nps4, 2);
        assert!(!cfg.is_cross_socket(SocketId(0), NumaNodeId(3)));
        assert!(cfg.is_cross_socket(SocketId(0), NumaNodeId(4)));
        assert!(cfg.is_cross_socket(SocketId(1), NumaNodeId(0)));
        assert!(!cfg.is_cross_socket(SocketId(1), NumaNodeId(7)));
    }

    #[test]
    fn display_names() {
        assert_eq!(NumaMode::Nps1.to_string(), "NPS1");
        assert!(NumaMode::Nps4.to_string().contains("quadrant"));
    }
}
