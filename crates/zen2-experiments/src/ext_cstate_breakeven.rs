//! Extension: break-even idle residencies for an *informed* C-state
//! governor.
//!
//! Section VI of the paper notes that the ACPI tables on the test system
//! report `UINT_MAX` power for C0 and `0` for the idle states, so they
//! "cannot contribute towards an informed selection of C-states" — and
//! the reported C2 exit latency (400 µs) is 16–20× the measured one.
//!
//! With the calibrated models this repository *can* make the informed
//! decision: this experiment computes, per frequency, the minimum idle
//! residency above which entering C2 beats staying in C1 (the classic
//! menu-governor break-even), using the measured exit latencies instead
//! of the ACPI fiction — plus the system-level PC6 consideration that
//! dwarfs the per-core numbers, measured by one [`Scenario`] on the
//! caller's [`Session`].

use crate::report::Table;
use zen2_sim::config::CstateParams;
use zen2_sim::cstate::ThreadState;
use zen2_sim::wakeup;
use zen2_sim::{Case, Probe, Scenario, Session, SimConfig, Window};
use zen2_topology::ThreadId;

/// Break-even figures for one core frequency.
#[derive(Debug, Clone)]
pub struct BreakEven {
    /// Core frequency, MHz.
    pub freq_mhz: u32,
    /// Measured C1 exit latency, µs.
    pub c1_exit_us: f64,
    /// Measured C2 exit latency, µs.
    pub c2_exit_us: f64,
    /// Break-even idle residency for C2 over C1, µs (per-core view).
    pub breakeven_us: f64,
    /// The same computed from the ACPI-reported 400 µs latency — the
    /// decision a governor trusting the firmware tables would make.
    pub acpi_breakeven_us: f64,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct BreakEvenResult {
    /// Per-frequency break-even figures.
    pub rows: Vec<BreakEven>,
    /// Power saved by the last thread entering C2 system-wide (the PC6
    /// step), W — the term that dominates every per-core consideration.
    pub pc6_step_w: f64,
}

/// The PC6 step as one scenario: the all-C2 floor over 0.1–0.3 s, then
/// thread 0 loses C2 at 0.3 s and idles in C1 over 0.35–0.55 s.
fn pc6_step_scenario() -> Scenario {
    let mut sc = Scenario::new();
    sc.at_secs(0.3).cstate(ThreadId(0), 2, false);
    sc.probe("floor", Probe::AcTrueMeanW, Window::span_secs(0.1, 0.3));
    sc.probe("one_c1", Probe::AcTrueMeanW, Window::span_secs(0.35, 0.55));
    sc
}

/// Computes the break-even residencies from the calibrated models and
/// measures the PC6 step through `session`.
pub fn run(seed: u64, session: &Session) -> BreakEvenResult {
    let cfg = SimConfig::epyc_7502_2s();
    let cstate = CstateParams::default();
    let c1_core_w = cfg.power.core.c1_power_w();
    let c2_core_w = cfg.power.core.c2_power_w();
    let delta_w = c1_core_w - c2_core_w;

    let mut rows = Vec::new();
    for &freq_mhz in &[1500u32, 2200, 2500] {
        let ghz = freq_mhz as f64 / 1000.0;
        let c1_exit = wakeup::base_latency_ns(&cstate, ThreadState::C1, ghz, false);
        let c2_exit = wakeup::base_latency_ns(&cstate, ThreadState::C2, ghz, false);
        // Energy overhead of choosing C2: the extra exit time runs the
        // core at active power instead of doing useful (or idle) work.
        // Approximate the wake path at the pause-loop power level.
        let wake_power_w = 0.31 * ghz / 2.5; // calibrated pause power, scaled
        let extra_exit_s = (c2_exit - c1_exit) / 1e9;
        let extra_energy_j = wake_power_w * extra_exit_s;
        let breakeven_s = extra_energy_j / delta_w;
        // The ACPI-table version uses the reported 400 us exit latency.
        let acpi_extra_s =
            (cstate.acpi_reported_c2_ns as f64 - cstate.acpi_reported_c1_ns as f64) / 1e9;
        let acpi_breakeven_s = wake_power_w * acpi_extra_s / delta_w;
        rows.push(BreakEven {
            freq_mhz,
            c1_exit_us: c1_exit / 1000.0,
            c2_exit_us: c2_exit / 1000.0,
            breakeven_us: breakeven_s * 1e6,
            acpi_breakeven_us: acpi_breakeven_s * 1e6,
        });
    }

    // The PC6 step, measured end to end on the simulator: power with one
    // C1 thread minus power with everything in C2.
    let case = Case::new("pc6-step", cfg, pc6_step_scenario(), seed);
    let runs = session.run(&[case]).expect("the PC6-step scenario validates");
    let pc6_step_w = runs[0].watts("one_c1") - runs[0].watts("floor");

    BreakEvenResult { rows, pc6_step_w }
}

/// Renders the governor guidance table.
pub fn render(r: &BreakEvenResult) -> String {
    let mut out = tables(r)[0].render();
    out.push_str(&format!(
        "system view: the *last* thread entering C2 additionally unlocks PC6 worth {:.1} W —\n\
         three orders of magnitude above any per-core consideration, which is why the paper's\n\
         first recommendation is to never block the deepest state.\n",
        r.pc6_step_w
    ));
    out
}

/// The guidance as a [`Table`] (for text or JSON output).
pub fn tables(r: &BreakEvenResult) -> Vec<Table> {
    let mut t = Table::new(
        "Extension — informed C-state break-even (what the ACPI tables cannot tell the governor)",
        &[
            "freq [GHz]",
            "C1 exit [us]",
            "C2 exit [us]",
            "break-even [us]",
            "ACPI-table break-even [us]",
        ],
    );
    for row in &r.rows {
        t.row(&[
            format!("{:.1}", row.freq_mhz as f64 / 1000.0),
            format!("{:.2}", row.c1_exit_us),
            format!("{:.2}", row.c2_exit_us),
            format!("{:.0}", row.breakeven_us),
            format!("{:.0}", row.acpi_breakeven_us),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_core_breakeven_is_tens_of_microseconds() {
        let r = run(141, &Session::new());
        for row in &r.rows {
            assert!(
                row.breakeven_us > 10.0 && row.breakeven_us < 500.0,
                "@{} MHz: {} us",
                row.freq_mhz,
                row.breakeven_us
            );
            // Trusting the ACPI 400 us figure inflates the break-even by
            // more than an order of magnitude.
            assert!(row.acpi_breakeven_us > 8.0 * row.breakeven_us);
        }
    }

    #[test]
    fn pc6_step_dominates_everything() {
        let r = run(142, &Session::new());
        assert!((r.pc6_step_w - 81.2).abs() < 3.0, "PC6 step {:.1} W", r.pc6_step_w);
    }

    #[test]
    fn breakeven_rises_with_frequency() {
        // Faster cores exit C2 sooner, but the wake path burns power at
        // f*V^2 — the energy term wins, so high-frequency cores need
        // longer idle periods to amortize C2.
        let r = run(143, &Session::new());
        assert!(r.rows[0].breakeven_us < r.rows[2].breakeven_us);
    }
}
