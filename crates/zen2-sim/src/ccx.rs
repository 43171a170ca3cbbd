//! CCX clock-mesh coupling (Section V-C, Table I, Fig. 4).
//!
//! Within one CCX, the L3 and the clock mesh run at the frequency of the
//! *fastest* core. Cores configured slower are re-derived from the mesh
//! clock through a frequency divider with ⅛-step granularity — the same
//! granularity as the `CpuDfsId` field in the P-state MSRs. Because the
//! divider must round *up* (a core may never exceed its configured
//! frequency), slow cores lose frequency whenever the mesh does not divide
//! evenly:
//!
//! ```text
//! set 2.2 GHz, mesh 2.5 GHz: 2.5/2.2 = 1.136 → divider 1.25 → 2.000 GHz
//! set 1.5 GHz, mesh 2.5 GHz: 2.5/1.5 = 1.667 → divider 1.75 → 1.4286 GHz
//! set 1.5 GHz, mesh 2.2 GHz: 2.2/1.5 = 1.467 → divider 1.50 → 1.4667 GHz
//! ```
//!
//! These are exactly the paper's Table I cells (1.466 / 1.428 / 2.000).

/// Divider granularity: eighths, as in the `CpuDfsId` encoding.
pub const DIVIDER_STEPS_PER_UNIT: u32 = 8;

/// Minimum supported L3/mesh frequency in MHz ("L3 frequencies below
/// 400 MHz are not supported by the architecture").
pub const L3_MIN_MHZ: u32 = 400;

/// Cores sharing one CCX clock mesh.
pub const CORES_PER_CCX: usize = zen2_topology::topology::consts::CORES_PER_CCX as usize;

/// The resolved clocks of one CCX.
#[derive(Debug, Clone, PartialEq)]
pub struct CcxClocks {
    /// The mesh / L3 frequency in MHz.
    pub mesh_mhz: u32,
    /// The effective frequency of each core in the CCX, in MHz, in the
    /// same order as the input requests.
    pub effective_mhz: [f64; CORES_PER_CCX],
}

/// Resolves the mesh and effective core frequencies for one CCX.
///
/// `requested_mhz` holds each core's granted DVFS frequency; `active[i]`
/// says whether the core has at least one thread in C0 (only active cores
/// drive the mesh, but every core's effective frequency is reported).
///
/// With `coupling` disabled (ablation), every core simply runs its request.
///
/// # Panics
/// Panics if a request is zero.
pub fn resolve(
    requested_mhz: &[u32; CORES_PER_CCX],
    active: &[bool; CORES_PER_CCX],
    coupling: bool,
) -> CcxClocks {
    assert!(requested_mhz.iter().all(|&f| f > 0), "requests must be positive");

    let mesh_driver =
        requested_mhz.iter().zip(active).filter(|&(_, &a)| a).map(|(&f, _)| f).max().unwrap_or(0);
    let mesh_mhz = mesh_driver.max(L3_MIN_MHZ);

    let effective_mhz = requested_mhz.map(|req| {
        if !coupling || req >= mesh_mhz {
            return req as f64;
        }
        (req as f64).min(divided_frequency(mesh_mhz, req))
    });

    CcxClocks { mesh_mhz, effective_mhz }
}

/// The frequency a core obtains from the mesh clock through the ⅛-step
/// divider, never exceeding its request.
pub fn divided_frequency(mesh_mhz: u32, requested_mhz: u32) -> f64 {
    assert!(requested_mhz > 0 && mesh_mhz > 0);
    if requested_mhz >= mesh_mhz {
        return requested_mhz as f64;
    }
    let steps = DIVIDER_STEPS_PER_UNIT as f64;
    // Smallest divider (in eighths) that brings the mesh clock down to at
    // most the requested frequency.
    let divider_eighths = (mesh_mhz as f64 * steps / requested_mhz as f64).ceil();
    mesh_mhz as f64 * steps / divider_eighths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_cells_are_exact() {
        // (set, others, expected effective GHz from Table I)
        let cases = [
            (1500u32, 2200u32, 1.4667),
            (1500, 2500, 1.4286),
            (2200, 2500, 2.0),
            (1500, 1500, 1.5),
            (2200, 2200, 2.2),
            (2500, 2500, 2.5),
            (2200, 1500, 2.2),
            (2500, 1500, 2.5),
            (2500, 2200, 2.5),
        ];
        for (set, others, expect_ghz) in cases {
            let clocks = resolve(&[set, others, others, others], &[true; 4], true);
            let got = clocks.effective_mhz[0] / 1000.0;
            assert!(
                (got - expect_ghz).abs() < 0.001,
                "set {set} others {others}: {got:.4} GHz vs {expect_ghz}"
            );
        }
    }

    #[test]
    fn mesh_follows_fastest_active_core() {
        let clocks = resolve(&[1500, 2200, 2500, 1500], &[true; 4], true);
        assert_eq!(clocks.mesh_mhz, 2500);
        // An idle 2.5 GHz core does not drive the mesh.
        let clocks = resolve(&[1500, 2200, 2500, 1500], &[true, true, false, true], true);
        assert_eq!(clocks.mesh_mhz, 2200);
    }

    #[test]
    fn all_idle_ccx_floors_at_400mhz() {
        let clocks = resolve(&[1500; 4], &[false; 4], true);
        assert_eq!(clocks.mesh_mhz, L3_MIN_MHZ);
    }

    #[test]
    fn divider_never_exceeds_request() {
        for mesh in [1500u32, 2200, 2500, 3200] {
            for req in [800u32, 1500, 1800, 2200, 2500] {
                let eff = divided_frequency(mesh, req);
                assert!(eff <= req as f64 + 1e-9, "mesh {mesh} req {req} -> {eff}");
                // And never loses more than one divider step.
                if req < mesh {
                    let steps = DIVIDER_STEPS_PER_UNIT as f64;
                    let d = (mesh as f64 * steps / req as f64).ceil();
                    let floor = mesh as f64 * steps / (d + 1.0);
                    assert!(eff > floor, "divider should be tight");
                }
            }
        }
    }

    #[test]
    fn coupling_ablation_gives_exact_requests() {
        let clocks = resolve(&[1500, 2500, 2200, 1500], &[true; 4], false);
        assert_eq!(clocks.effective_mhz, [1500.0, 2500.0, 2200.0, 1500.0]);
    }

    #[test]
    fn matched_frequencies_are_untouched() {
        let clocks = resolve(&[2200; 4], &[true; 4], true);
        for eff in clocks.effective_mhz {
            assert_eq!(eff, 2200.0);
        }
    }
}
