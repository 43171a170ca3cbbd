//! The two workloads: how each is set up, run through its public entry
//! point, rendered as its `--json` tables, and checked.
//!
//! Why these two (see `README.md` for the per-layer mapping):
//!
//! * `fig07_grid` — 513 ten-second idle cases through the `Session`
//!   pool: the step loop on an idle or partly loaded machine, plus fork
//!   and pool overhead; almost no probe dispatch, no DVFS traffic.
//! * `fig10_probes` — one case with 9000 probes and 384k workload
//!   changes, all 128 threads busy: per-breakpoint probe dispatch,
//!   trace scans and RAPL windows.
//!
//! Fig. 3 at paper scale (one ~1300 s case, 200k P-state steps) and a
//! sweep of 10^5 cases of 20 µs with checkpoint saves and a resume were
//! workloads too, and were dropped as unsteady: on a 2-core shared
//! virtual machine whose speed shifts by 30-40 % for minutes at a time,
//! ten consecutive runs of each spread by up to 22 % and 35 % of their
//! median against a 25 % bound, near or past it more often than these
//! two, and fewer workloads give fewer chances for that. The DVFS path,
//! the checkpoint layer and per-case overhead are still timed call by
//! call in the traced run.

use zen2_experiments::fig07_idle_power as fig07;
use zen2_experiments::report::tables_to_json;
use zen2_experiments::{fig10_hamming as fig10, Scale};
use zen2_isa::KernelClass;
use zen2_obs::clock;
use zen2_sim::{CheckpointSpec, Scenario, Session, Sweep, System};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig07Grid,
    Fig10Probes,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Fig07Grid, Workload::Fig10Probes];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig07Grid => "fig07_grid",
            Workload::Fig10Probes => "fig10_probes",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One output check; a failed check is counted, never fatal.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// What one run of a workload's public path produced.
pub struct Outcome {
    /// Host ns spent in the workload's run call (setup inside it
    /// included; the caller subtracts the separately timed set-up).
    pub run_ns: u64,
    /// Renders the result as the bin's `--json` document.
    pub render: Box<dyn Fn() -> String>,
    pub checks: Vec<Check>,
}

/// Case-count totals of a workload: the base of every per-case and
/// per-simulated-ms ratio.
pub struct Extent {
    pub cases: usize,
    pub steps: usize,
    pub probes: usize,
    /// Sum of `Scenario::end()` over the cases, simulated ms.
    pub sim_ms: f64,
}

/// A workload at a seed and size.
pub struct Job {
    pub workload: Workload,
    pub seed: u64,
    /// The smoke test's tiny size instead of the benchmark's own.
    pub tiny: bool,
}

impl Job {
    fn fig07_config(&self) -> fig07::Config {
        if self.tiny {
            fig07::Config {
                duration_s: 0.2,
                thread_counts: vec![1, 2, 4, 64, 65, 128],
                freqs_mhz: vec![1500, 2200, 2500],
            }
        } else {
            fig07::Config::new(Scale::Paper)
        }
    }

    fn fig10_config(&self) -> fig10::Config {
        fig10::Config { blocks: if self.tiny { 36 } else { 3000 }, block_s: 0.1 }
    }

    /// The workload's case grid.
    pub fn sweep(&self) -> Sweep {
        match self.workload {
            Workload::Fig07Grid => fig07::sweep(&self.fig07_config(), self.seed),
            Workload::Fig10Probes => {
                fig10::sweep(&self.fig10_config(), self.seed, KernelClass::VXorps).0
            }
        }
    }

    /// The axes a checkpoint of this workload's grid state is keyed by.
    pub fn group_by(&self) -> &'static [&'static str] {
        match self.workload {
            Workload::Fig07Grid => &["kind", "threads"],
            Workload::Fig10Probes => &["instr"],
        }
    }

    /// Everything before the first simulated nanosecond: build the sweep
    /// or scenario, validate its first case, boot the prototype.
    pub fn setup(&self) -> System {
        let case = self.sweep().case(0);
        case.scenario.validate(&case.config).expect("workload scenario validates");
        System::new(case.config, 0)
    }

    /// Case-count totals over every case the workload runs.
    pub fn extent(&self) -> Extent {
        let mut extent = Extent { cases: 0, steps: 0, probes: 0, sim_ms: 0.0 };
        let mut sim_ns = 0u64;
        let mut add = |steps: usize, scenario: &Scenario| {
            extent.cases += 1;
            extent.steps += steps;
            extent.probes += scenario.probes().len();
            sim_ns += scenario.end();
        };
        let sweep = self.sweep();
        for case in sweep.cases() {
            add(case.scenario.steps().len(), &case.scenario);
        }
        // Fig. 7's all-C2 baseline rider: the grid's window, no steps.
        if self.workload == Workload::Fig07Grid {
            add(0, &sweep.case(0).scenario);
        }
        extent.sim_ms = sim_ns as f64 / 1e6;
        extent
    }

    /// One case of the workload, run on a machine the caller keeps: the
    /// heaviest cell (last in grid order).
    pub fn representative_run(&self) -> System {
        let sweep = self.sweep();
        let case = sweep.case(sweep.len() - 1);
        let mut sys = System::new(case.config, case.seed);
        sys.run_scenario(&case.scenario).expect("workload scenario validates");
        sys
    }

    /// Runs the workload's public path through `session`.
    pub fn run(&self, session: &Session) -> Outcome {
        match self.workload {
            Workload::Fig07Grid => {
                let cfg = self.fig07_config();
                let t = clock::now_ns();
                let result =
                    fig07::run_checkpointed(&cfg, self.seed, session, &CheckpointSpec::none())
                        .expect("checkpointing disabled")
                        .expect("no halt configured");
                let run_ns = clock::now_ns() - t;
                let (_, slope) = fig07::c1_staircase(&result);
                let checks = vec![
                    check(
                        "fig07.all_c2_baseline",
                        (result.baseline_w - fig07::paper::ALL_C2_W).abs() < 1.5,
                        format!(
                            "{:.3} W, paper {} W ± 1.5",
                            result.baseline_w,
                            fig07::paper::ALL_C2_W
                        ),
                    ),
                    check(
                        "fig07.per_c1_core_slope",
                        (slope - fig07::paper::PER_C1_CORE_W).abs() < 0.02,
                        format!("{slope:.4} W, paper {} W ± 0.02", fig07::paper::PER_C1_CORE_W),
                    ),
                ];
                let render = Box::new(move || tables_to_json(&fig07::tables(&result)));
                Outcome { run_ns, render, checks }
            }
            Workload::Fig10Probes => {
                let cfg = self.fig10_config();
                let t = clock::now_ns();
                let result = fig10::run_checkpointed(
                    &cfg,
                    self.seed,
                    KernelClass::VXorps,
                    session,
                    &CheckpointSpec::none(),
                )
                .expect("checkpointing disabled")
                .expect("a whole run renders");
                let run_ns = clock::now_ns() - t;
                let spread = result.ac_w.mean_spread();
                let (_, mid, _) = result.rapl_core0_w.means();
                let rapl_rel = result.rapl_core0_w.mean_spread() / mid;
                let checks = vec![
                    check(
                        "fig10.ac_spread",
                        (spread - 21.0).abs() < 4.0,
                        format!("{spread:.2} W, paper 21 ± 4"),
                    ),
                    check(
                        "fig10.ac_w0_w1_separate",
                        !result.ac_w.distributions_overlap(),
                        "w0 and w1 AC samples must not overlap".into(),
                    ),
                    check(
                        "fig10.rapl_core_blind",
                        rapl_rel < 0.005,
                        format!("relative spread {rapl_rel:.5} < 0.005"),
                    ),
                ];
                let render = Box::new(move || tables_to_json(&fig10::tables(&result)));
                Outcome { run_ns, render, checks }
            }
        }
    }
}
