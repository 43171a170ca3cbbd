//! `lstopo`-style text rendering of the machine topology.
//!
//! Produces the tree view an operator would get from hwloc, so simulated
//! experiments can document the machine shape they ran on.

use crate::numbering::CpuNumbering;
use crate::topology::{consts, Topology};
use std::fmt::Write as _;

/// Renders the full machine tree with Linux logical CPU numbers.
pub fn lstopo(topology: &Topology) -> String {
    let numbering = CpuNumbering::linux_default(topology);
    let mut out = String::new();
    let _ = writeln!(out, "Machine ({})", topology.numa().mode());
    for socket in topology.all_sockets() {
        let _ = writeln!(out, "  Package P#{}", socket.0);
        for ccd in topology.ccds_of_socket(socket) {
            let quadrant = topology.quadrant_of_ccd(ccd);
            let node = topology.numa().node_of_quadrant(quadrant);
            let _ = writeln!(out, "    CCD #{} (IF switch {}, NUMA {})", ccd.0, quadrant.0, node.0);
            for ccx in topology.ccxs_of_ccd(ccd) {
                let _ = writeln!(
                    out,
                    "      CCX #{} (L3 {} MiB)",
                    ccx.0,
                    consts::L3_BYTES_PER_CCX / (1024 * 1024)
                );
                for core in topology.cores_of_ccx(ccx) {
                    let cpus: Vec<String> = topology
                        .threads_of_core(core)
                        .iter()
                        .flatten()
                        .map(|&t| format!("{}", numbering.cpu_of(t)))
                        .collect();
                    let _ = writeln!(
                        out,
                        "        Core #{:<3} (L2 {} KiB)  PU: {}",
                        core.0,
                        consts::L2_BYTES_PER_CORE / 1024,
                        cpus.join(" + ")
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lstopo_covers_every_level() {
        let out = lstopo(&Topology::epyc_7502_2s());
        assert_eq!(out.matches("Package").count(), 2);
        assert_eq!(out.matches("CCD #").count(), 8);
        assert_eq!(out.matches("CCX #").count(), 16);
        assert_eq!(out.matches("Core #").count(), 64);
        assert!(out.contains("L3 16 MiB"));
        assert!(out.contains("L2 512 KiB"));
        // First core of the machine pairs cpu0 with its SMT sibling cpu64.
        assert!(out.contains("PU: cpu0 + cpu64"), "{out}");
    }

    #[test]
    fn lstopo_works_without_smt() {
        let topo =
            crate::TopologyBuilder::new().sockets(1).ccds_per_socket(2).smt(false).build().unwrap();
        let out = lstopo(&topo);
        assert_eq!(out.matches("Core #").count(), 16);
        assert!(out.contains("PU: cpu0\n"), "single PU per core");
    }
}
