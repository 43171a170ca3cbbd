//! Fig. 5 — DRAM bandwidth and latency for I/O-die P-states and DRAM
//! frequencies.
//!
//! STREAM triad (Intel-compiled in the paper) with 1–4 cores on one CCD
//! plus the "4 (2 CCX)" placement, and the Molka pointer-chase latency
//! benchmark (prefetchers off, huge pages), swept over the BIOS I/O-die
//! P-state and both DRAM clocks.
//!
//! Every swept BIOS configuration is its own `SimConfig`; the cells are
//! declarative [`Scenario`]s observing [`Probe::StreamTriadGbs`] and
//! [`Probe::DramLatencyNs`], executed as one [`Session`] batch.

use crate::report::Table;
use zen2_mem::{DramFreq, IodPstate};
use zen2_sim::sweep::child_seed;
use zen2_sim::{Case, Probe, Run, Scenario, Session, SimConfig, Window};

/// The core-count columns of Fig. 5a ("4 (2 CCX)" is the fifth).
pub const CORE_COLUMNS: [u32; 5] = [1, 2, 3, 4, 4];

/// Paper Fig. 5a bandwidths in GB/s, indexed `[pstate][dram][core_col]`
/// with P-states in sweep order P3, P2, P1, P0, auto.
pub const PAPER_BW: [[[f64; 5]; 2]; 5] = [
    [[22.2, 28.3, 28.9, 31.7, 32.1], [22.2, 28.2, 30.0, 30.6, 31.0]],
    [[27.2, 33.7, 37.6, 39.6, 39.6], [27.1, 33.7, 39.1, 40.1, 40.1]],
    [[26.8, 32.9, 36.8, 38.8, 38.9], [26.8, 32.9, 38.5, 39.5, 39.5]],
    [[26.5, 32.4, 35.9, 38.1, 38.1], [26.4, 32.4, 37.8, 38.6, 38.6]],
    [[26.5, 32.6, 36.0, 38.2, 38.2], [26.5, 32.5, 37.9, 38.8, 38.8]],
];

/// Paper Fig. 5b latencies in ns, indexed `[pstate][dram]`.
pub const PAPER_LAT: [[f64; 2]; 5] =
    [[142.0, 137.0], [101.0, 104.0], [113.0, 110.0], [96.0, 109.0], [92.0, 104.0]];

/// One swept configuration's results.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// I/O-die P-state label.
    pub pstate: String,
    /// DRAM frequency label.
    pub dram: String,
    /// Triad bandwidth per core-count column, GB/s.
    pub bandwidth_gbs: [f64; 5],
    /// Pointer-chase latency, ns.
    pub latency_ns: f64,
}

/// Builds one cell's scenario: both benchmarks are pure functions of the
/// BIOS clock plan, so everything is observed at t = 0.
pub fn cell_scenario() -> Scenario {
    let mut sc = Scenario::new();
    sc.probe("lat", Probe::DramLatencyNs, Window::at(0));
    for (col, &cores) in CORE_COLUMNS.iter().enumerate() {
        sc.probe(format!("bw{col}"), Probe::StreamTriadGbs(cores), Window::at(0));
    }
    sc
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// All cells in sweep order (P3..auto × 1.467/1.6).
    pub cells: Vec<CellResult>,
    /// Worst relative bandwidth deviation from the paper.
    pub worst_bw_rel_err: f64,
    /// Worst relative latency deviation from the paper.
    pub worst_lat_rel_err: f64,
}

/// Reduces one cell's [`Run`].
fn reduce(pstate: IodPstate, dram: DramFreq, run: &Run) -> CellResult {
    let mut bw = [0.0; 5];
    for (col, slot) in bw.iter_mut().enumerate() {
        *slot = run.gbs(&format!("bw{col}"));
    }
    CellResult {
        pstate: pstate.to_string(),
        dram: dram.to_string(),
        bandwidth_gbs: bw,
        latency_ns: run.nanos("lat"),
    }
}

/// Runs the full sweep as one [`Session`] batch.
pub fn run(seed: u64) -> Fig5Result {
    let mut cases = Vec::new();
    let mut sweep = Vec::new();
    for (pi, &pstate) in IodPstate::SWEEP.iter().enumerate() {
        for (di, &dram) in DramFreq::SWEEP.iter().enumerate() {
            let mut cfg = SimConfig::epyc_7502_2s();
            cfg.iod_pstate = pstate;
            cfg.dram = dram;
            cases.push(Case::new(
                format!("{pstate}-{dram}"),
                cfg,
                cell_scenario(),
                child_seed(seed, (pi * 2 + di) as u64),
            ));
            sweep.push((pstate, dram));
        }
    }
    let runs = Session::new().run(&cases).expect("fig05 scenarios validate");
    let cells: Vec<CellResult> =
        sweep.iter().zip(&runs).map(|(&(pstate, dram), run)| reduce(pstate, dram, run)).collect();

    let mut worst_bw = 0.0f64;
    let mut worst_lat = 0.0f64;
    for (pi, (paper_bw_row, paper_lat_row)) in PAPER_BW.iter().zip(&PAPER_LAT).enumerate() {
        for (di, (paper_bw, &paper_lat)) in paper_bw_row.iter().zip(paper_lat_row).enumerate() {
            let cell = &cells[pi * 2 + di];
            for (&measured, &paper) in cell.bandwidth_gbs.iter().zip(paper_bw) {
                worst_bw = worst_bw.max((measured - paper).abs() / paper);
            }
            worst_lat = worst_lat.max((cell.latency_ns - paper_lat).abs() / paper_lat);
        }
    }
    Fig5Result { cells, worst_bw_rel_err: worst_bw, worst_lat_rel_err: worst_lat }
}

/// Renders both heatmaps as paper/measured tables.
pub fn render(result: &Fig5Result) -> String {
    let mut out: String = tables(result).iter().map(Table::render).collect();
    out.push_str(&format!(
        "worst deviation: bandwidth {:.1}%, latency {:.1}%\n",
        result.worst_bw_rel_err * 100.0,
        result.worst_lat_rel_err * 100.0
    ));
    out
}

/// Both heatmaps as [`Table`]s (for text or JSON output).
pub fn tables(result: &Fig5Result) -> Vec<Table> {
    let mut bw = Table::new(
        "Fig. 5a — STREAM triad bandwidth [GB/s], paper / measured",
        &["IOD P-state", "DRAM", "1 core", "2 cores", "3 cores", "4 cores", "4 (2 CCX)"],
    );
    for (pi, paper_row) in PAPER_BW.iter().enumerate() {
        for (di, paper_bw) in paper_row.iter().enumerate() {
            let cell = &result.cells[pi * 2 + di];
            let mut row = vec![cell.pstate.clone(), cell.dram.clone()];
            for (&paper, &measured) in paper_bw.iter().zip(&cell.bandwidth_gbs) {
                row.push(format!("{paper:.1} / {measured:.1}"));
            }
            bw.row(&row);
        }
    }
    let mut lat = Table::new(
        "Fig. 5b — memory latency [ns], paper / measured",
        &["IOD P-state", "DRAM 1.467 GHz", "DRAM 1.6 GHz"],
    );
    for (pi, _) in IodPstate::SWEEP.iter().enumerate() {
        lat.row(&[
            result.cells[pi * 2].pstate.clone(),
            format!("{:.0} / {:.1}", PAPER_LAT[pi][0], result.cells[pi * 2].latency_ns),
            format!("{:.0} / {:.1}", PAPER_LAT[pi][1], result.cells[pi * 2 + 1].latency_ns),
        ]);
    }
    vec![bw, lat]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_match_fig5_within_ten_percent() {
        let r = run(41);
        assert!(r.worst_bw_rel_err < 0.10, "bw {:.3}", r.worst_bw_rel_err);
        assert!(r.worst_lat_rel_err < 0.08, "lat {:.3}", r.worst_lat_rel_err);
    }

    #[test]
    fn auto_wins_latency_and_p0_matches_auto_bandwidth() {
        let r = run(42);
        let lat = |pi: usize, di: usize| r.cells[pi * 2 + di].latency_ns;
        // auto (index 4) beats pinned P0 (index 3) at DDR4-2933.
        assert!(lat(4, 0) < lat(3, 0));
        // auto ~ P0 in bandwidth (saturated column).
        let bw_auto = r.cells[4 * 2].bandwidth_gbs[3];
        let bw_p0 = r.cells[3 * 2].bandwidth_gbs[3];
        assert!((bw_auto - bw_p0).abs() / bw_p0 < 0.02);
    }

    #[test]
    fn p3_loses_a_third_of_bandwidth() {
        let r = run(43);
        let p3 = r.cells[0].bandwidth_gbs[3];
        let p0 = r.cells[3 * 2].bandwidth_gbs[3];
        assert!(p3 < 0.9 * p0, "P3 {p3:.1} vs P0 {p0:.1}");
    }

    #[test]
    fn two_ccx_column_equals_one_ccx_column() {
        let r = run(44);
        for cell in &r.cells {
            assert_eq!(cell.bandwidth_gbs[3], cell.bandwidth_gbs[4]);
        }
    }

    #[test]
    fn render_includes_both_panels() {
        let s = render(&run(45));
        assert!(s.contains("Fig. 5a"));
        assert!(s.contains("Fig. 5b"));
    }
}
