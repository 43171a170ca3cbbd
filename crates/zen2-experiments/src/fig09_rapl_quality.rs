//! Fig. 9 — quality of the integrated power measurement (RAPL vs the AC
//! reference).
//!
//! Following Hackenberg et al.: a grid of experiments, each a combination
//! of workload, thread placement and frequency, run for 10 s; RAPL package
//! and core energy plus the external AC power are recorded for each. If
//! RAPL were an accurate system-level measurement, one function would map
//! RAPL to the reference; instead the per-workload spread exposes the
//! model.
//!
//! Each grid point is a declarative [`Scenario`] (placement and pre-heat
//! as steps, [`Probe::RaplW`] and [`Probe::AcTrueMeanW`] over the same
//! window). The workload × placement × frequency cross product is a
//! three-axis [`Sweep`] streamed through the [`Session`] worker pool,
//! and the scatter rows come back as one cell per case (idle, which has
//! no placement or frequency fan-out, runs as one extra case once the
//! grid has returned). [`run_checkpointed`] persists those cells at
//! every shard boundary for the `--checkpoint` / `--resume` workflow
//! documented in `docs/SWEEPS.md`.

use crate::report::Table;
use crate::Scale;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_sim::checkpoint::run_resumable;
use zen2_sim::sweep::child_seed;
use zen2_sim::{
    Axis, Case, CheckpointError, CheckpointSpec, Json, Probe, Run, Scenario, Session, SimConfig,
    Snapshot, SnapshotError, Sweep, Window,
};
use zen2_topology::{CpuNumbering, LogicalCpu, ThreadId};

/// One experiment point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Workload name.
    pub workload: String,
    /// Active cores.
    pub cores: usize,
    /// Both SMT threads per active core.
    pub smt: bool,
    /// Core frequency, MHz.
    pub freq_mhz: u32,
    /// Mean system AC power, W.
    pub ac_w: f64,
    /// RAPL package-domain sum, W.
    pub rapl_pkg_w: f64,
    /// RAPL core-domain sum, W.
    pub rapl_core_w: f64,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// All measured points.
    pub points: Vec<Point>,
    /// Least-squares fit `AC ≈ a·RAPL_pkg + b`.
    pub fit_slope: f64,
    /// Fit intercept, W.
    pub fit_intercept_w: f64,
    /// Worst residual from the fit, W.
    pub worst_residual_w: f64,
    /// Mean residual of memory-bound workloads (positive = AC above fit:
    /// RAPL misses DRAM power).
    pub memory_residual_w: f64,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Duration per point, seconds (paper: 10 s).
    pub duration_s: f64,
    /// Core-count placements.
    pub placements: Vec<(usize, bool)>,
    /// Frequencies, MHz.
    pub freqs_mhz: Vec<u32>,
}

impl Config {
    /// Scaled configuration.
    pub fn new(scale: Scale) -> Self {
        Self {
            duration_s: scale.pick(0.4, 10.0),
            placements: match scale {
                Scale::Quick => vec![(8, false), (64, false), (64, true)],
                Scale::Paper => vec![(1, false), (16, false), (32, false), (64, false), (64, true)],
            },
            freqs_mhz: vec![1500, 2200, 2500],
        }
    }
}

/// Pre-heat time before the measurement window opens.
const T_MEASURE_S: f64 = 0.05;

/// Builds one grid point's scenario: the placement at t = 0, the pre-heat
/// at 50 ms, then RAPL and the AC reference over the same window.
pub fn point_scenario(
    cfg: &Config,
    class: KernelClass,
    cores: usize,
    smt: bool,
    mhz: u32,
) -> Scenario {
    let numbering = CpuNumbering::linux_default(&SimConfig::epyc_7502_2s().topology);
    let mut sc = Scenario::new();
    if class != KernelClass::Idle {
        let threads = if smt { cores * 2 } else { cores };
        let mut at = sc.at(0);
        for cpu in 0..threads {
            let t = numbering.thread_of(LogicalCpu(cpu as u32));
            let sib = ThreadId(t.0 ^ 1);
            at = at.pstate(t, mhz).pstate(sib, mhz).workload(t, class, OperandWeight::HALF);
        }
    }
    sc.at_secs(T_MEASURE_S).preheat();
    let window = Window::span_secs(T_MEASURE_S, T_MEASURE_S + cfg.duration_s);
    sc.probe("rapl", Probe::RaplW, window);
    sc.probe("ac", Probe::AcTrueMeanW, window);
    sc
}

/// The Fig. 9 workload set, in the paper's legend order.
fn classes() -> Vec<KernelClass> {
    zen2_isa::WorkloadSet::paper().rapl_quality_set().iter().map(|k| k.class).collect()
}

/// One scatter point's readings, W — the cell its case reduces to: AC
/// reference, RAPL package sum, RAPL core sum.
#[derive(Debug)]
struct Readings {
    ac: f64,
    pkg: f64,
    core: f64,
}

impl Readings {
    fn of(run: &Run) -> Self {
        let (pkg, core) = run.watts_pair("rapl");
        Self { ac: run.watts("ac"), pkg, core }
    }
}

impl Snapshot for Readings {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("ac", Json::f64(self.ac)),
            ("pkg", Json::f64(self.pkg)),
            ("core", Json::f64(self.core)),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            ac: json.get("ac")?.as_f64()?,
            pkg: json.get("pkg")?.as_f64()?,
            core: json.get("core")?.as_f64()?,
        })
    }
}

/// The non-idle grid as a declarative [`Sweep`]: workload × placement ×
/// frequency. The seed derivation reproduces the module's historical
/// flat job indices (idle — excluded here because it has no
/// placement/frequency fan-out — occupies one index in that flat
/// order).
pub fn sweep(cfg: &Config, seed: u64) -> Sweep {
    let active: Vec<KernelClass> =
        classes().into_iter().filter(|&c| c != KernelClass::Idle).collect();
    let workload_axis = Axis::new("workload", active.iter().map(|class| class.name()));
    let placement_axis = Axis::new(
        "placement",
        cfg.placements
            .iter()
            .map(|&(cores, smt)| format!("{cores}c{}", if smt { "+smt" } else { "" })),
    );
    let freq_axis = Axis::new("freq", &cfg.freqs_mhz);

    let (_, flat) = flat_job_indices(cfg);
    let cfg = cfg.clone();
    let sim_cfg = SimConfig::epyc_7502_2s();
    Sweep::new("fig09", move |ix| {
        let (cores, smt) = cfg.placements[ix[1]];
        (sim_cfg.clone(), point_scenario(&cfg, active[ix[0]], cores, smt, cfg.freqs_mhz[ix[2]]))
    })
    .seed_fn(move |i| child_seed(seed, flat[i as usize]))
    .axis(workload_axis)
    .axis(placement_axis)
    .axis(freq_axis)
}

/// The historical flat job indices, in one pass over the legend order:
/// the index of the single idle job, and the index of every non-idle
/// sweep case in sweep (row-major) order. The pre-port code enumerated
/// the workload set in legend order with idle as a single job in place,
/// seeding each job by its flat position — both walks must agree, so
/// they are derived together.
fn flat_job_indices(cfg: &Config) -> (u64, Vec<u64>) {
    let per_class = (cfg.placements.len() * cfg.freqs_mhz.len()) as u64;
    let mut idle = None;
    let mut flat = Vec::new();
    let mut next = 0u64;
    for class in classes() {
        if class == KernelClass::Idle {
            idle = Some(next);
            next += 1;
            continue;
        }
        flat.extend(next..next + per_class);
        next += per_class;
    }
    (idle.expect("idle is part of the Fig. 9 workload set"), flat)
}

/// Runs the full grid through the streaming sweep engine.
pub fn run(cfg: &Config, seed: u64, session: &Session) -> Fig9Result {
    run_checkpointed(cfg, seed, session, &CheckpointSpec::none())
        .expect("checkpointing disabled")
        .expect("no halt configured")
}

/// [`run`] with checkpoint/resume: persists the scatter cells at every
/// shard boundary per `spec`, resumes from `spec`'s checkpoint when
/// asked, and produces output byte-identical to an uninterrupted run.
/// The idle point is not checkpointed: it runs once the grid has
/// returned. Returns `None` when the run halted early (`--halt-after`)
/// or ran a [`CheckpointSpec::shard`] slice, with the checkpoint holding
/// everything needed to resume or merge.
///
/// # Errors
/// Errors when the checkpoint cannot be read, written, or does not
/// belong to this grid.
pub fn run_checkpointed(
    cfg: &Config,
    seed: u64,
    session: &Session,
    spec: &CheckpointSpec,
) -> Result<Option<Fig9Result>, CheckpointError> {
    let reduce = |_, run: Run| Readings::of(&run);
    let Some(cells) = run_resumable(&sweep(cfg, seed), session, spec, reduce)? else {
        return Ok(None);
    };
    // Idle has no placement/frequency fan-out, so it runs as its own
    // case at its historical flat-index seed.
    let (idle_index, _) = flat_job_indices(cfg);
    let idle_case = Case::new(
        "fig09/idle",
        SimConfig::epyc_7502_2s(),
        point_scenario(cfg, KernelClass::Idle, 0, false, 2500),
        child_seed(seed, idle_index),
    );
    let idle = Readings::of(&session.run(&[idle_case]).expect("the idle scenario validates")[0]);

    // Reassemble the scatter in the historical jobs order: the cells
    // arrive in grid order (workload-major), with idle spliced back in
    // at its legend position.
    let mut cells = cells.iter();
    let mut points = Vec::new();
    for class in classes() {
        if class == KernelClass::Idle {
            points.push(point(class, 0, false, 2500, &idle));
            continue;
        }
        for (cores, smt) in cfg.placements.iter().copied() {
            for &mhz in &cfg.freqs_mhz {
                let cell = cells.next().expect("one cell per grid case");
                points.push(point(class, cores, smt, mhz, cell));
            }
        }
    }

    Ok(Some(fit(points)))
}

/// Builds one scatter [`Point`] from a grid cell's readings.
fn point(class: KernelClass, cores: usize, smt: bool, mhz: u32, cell: &Readings) -> Point {
    Point {
        workload: class.name().into(),
        cores,
        smt,
        freq_mhz: mhz,
        ac_w: cell.ac,
        rapl_pkg_w: cell.pkg,
        rapl_core_w: cell.core,
    }
}

/// Fits `AC ≈ a·RAPL_pkg + b` over the scatter and derives the residual
/// diagnostics.
fn fit(points: Vec<Point>) -> Fig9Result {
    // Least squares AC = a*rapl + b.
    let n = points.len() as f64;
    // zen2-lint: allow(float-order) — single fixed-order pass over the grid-ordered point Vec
    let sx: f64 = points.iter().map(|p| p.rapl_pkg_w).sum();
    // zen2-lint: allow(float-order) — single fixed-order pass over the grid-ordered point Vec
    let sy: f64 = points.iter().map(|p| p.ac_w).sum();
    // zen2-lint: allow(float-order) — single fixed-order pass over the grid-ordered point Vec
    let sxx: f64 = points.iter().map(|p| p.rapl_pkg_w * p.rapl_pkg_w).sum();
    // zen2-lint: allow(float-order) — single fixed-order pass over the grid-ordered point Vec
    let sxy: f64 = points.iter().map(|p| p.rapl_pkg_w * p.ac_w).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;

    let residual = |p: &Point| p.ac_w - (slope * p.rapl_pkg_w + intercept);
    let worst = points.iter().map(|p| residual(p).abs()).fold(0.0, f64::max);
    let memory: Vec<f64> =
        points.iter().filter(|p| p.workload.starts_with("memory")).map(residual).collect();
    let memory_residual =
        if memory.is_empty() { 0.0 } else { memory.iter().sum::<f64>() / memory.len() as f64 }; // zen2-lint: allow(float-order) — residual Vec preserves grid point order; one pass

    Fig9Result {
        points,
        fit_slope: slope,
        fit_intercept_w: intercept,
        worst_residual_w: worst,
        memory_residual_w: memory_residual,
    }
}

/// Renders the scatter as a table plus fit statistics.
pub fn render(r: &Fig9Result) -> String {
    let mut out = tables(r)[0].render();
    out.push_str(&format!(
        "linear fit: AC = {:.2} x RAPL_pkg + {:.1} W; worst residual {:.1} W; \
         mean memory-workload residual {:+.1} W (RAPL misses DRAM)\n",
        r.fit_slope, r.fit_intercept_w, r.worst_residual_w, r.memory_residual_w
    ));
    out
}

/// The scatter as a [`Table`] (for text or JSON output).
pub fn tables(r: &Fig9Result) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 9 — RAPL vs AC reference (one row per experiment)",
        &["workload", "cores", "SMT", "f [MHz]", "AC [W]", "RAPL pkg [W]", "RAPL core [W]"],
    );
    for p in &r.points {
        t.row(&[
            p.workload.clone(),
            format!("{}", p.cores),
            format!("{}", p.smt),
            format!("{}", p.freq_mhz),
            format!("{:.1}", p.ac_w),
            format!("{:.1}", p.rapl_pkg_w),
            format!("{:.1}", p.rapl_core_w),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config {
            duration_s: 0.3,
            placements: vec![(16, false), (64, true)],
            freqs_mhz: vec![1500, 2500],
        }
    }

    #[test]
    fn sweep_engine_matches_materialized_session() {
        // The sweep port must not change results: the same jobs list
        // built by hand (as the module did before the sweep engine —
        // legend-ordered classes with idle as a single inline job,
        // seeded by flat job index) and run materialized produces a
        // byte-identical scatter table, for more than one worker/shard
        // split.
        use zen2_sim::Case;
        let cfg = quick();
        let seed = 85;
        let mut jobs = Vec::new();
        for class in classes() {
            if class == KernelClass::Idle {
                jobs.push((class, 0usize, false, 2500u32));
                continue;
            }
            for &(cores, smt) in &cfg.placements {
                for &mhz in &cfg.freqs_mhz {
                    jobs.push((class, cores, smt, mhz));
                }
            }
        }
        let cases: Vec<Case> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(class, cores, smt, mhz))| {
                Case::new(
                    format!("{}-{cores}c-smt{smt}-{mhz}", class.name()),
                    SimConfig::epyc_7502_2s(),
                    point_scenario(&cfg, class, cores, smt, mhz),
                    child_seed(seed, i as u64),
                )
            })
            .collect();
        let grid: Vec<Case> = jobs
            .iter()
            .zip(&cases)
            .filter(|((class, ..), _)| *class != KernelClass::Idle)
            .map(|(_, case)| case.clone())
            .collect();
        crate::assert_same_cases(&sweep(&cfg, seed), &grid);
        let runs = Session::new().run(&cases).unwrap();
        let points: Vec<Point> = jobs
            .iter()
            .zip(&runs)
            .map(|(&(class, cores, smt, mhz), run)| {
                let (rapl_pkg_w, rapl_core_w) = run.watts_pair("rapl");
                Point {
                    workload: class.name().into(),
                    cores,
                    smt,
                    freq_mhz: mhz,
                    ac_w: run.watts("ac"),
                    rapl_pkg_w,
                    rapl_core_w,
                }
            })
            .collect();
        let materialized = fit(points);
        for (workers, shard) in [(1, 1), (7, 5)] {
            let streamed = run(&cfg, seed, &Session::new().workers(workers).shard_size(shard));
            assert_eq!(render(&streamed), render(&materialized), "workers {workers} shard {shard}");
            assert_eq!(streamed.fit_slope, materialized.fit_slope);
            assert_eq!(streamed.worst_residual_w, materialized.worst_residual_w);
        }
        assert_eq!(
            tables(&run(&cfg, seed, &Session::new()))[0].to_json(),
            tables(&materialized)[0].to_json()
        );
    }

    #[test]
    fn halted_run_resumes_to_byte_identical_output() {
        // Interrupt after one checkpoint save (a clean stand-in for a
        // kill right after the save), resume from the file, and the
        // final report must be byte-identical to an uninterrupted run —
        // across different worker/shard splits on the two halves.
        let cfg = quick();
        let seed = 86;
        let clean = run(&cfg, seed, &Session::new());
        let path =
            std::env::temp_dir().join(format!("zen2-fig09-resume-test-{}", std::process::id()));
        let halted = run_checkpointed(
            &cfg,
            seed,
            &Session::new().workers(2).shard_size(3),
            &CheckpointSpec { halt_after: Some(1), ..CheckpointSpec::at(&path) },
        )
        .unwrap();
        assert!(halted.is_none(), "the run must actually halt mid-grid");
        let resumed = run_checkpointed(
            &cfg,
            seed,
            &Session::new().workers(7).shard_size(2),
            &CheckpointSpec::resume_from(&path),
        )
        .unwrap()
        .expect("resumed run completes");
        std::fs::remove_file(&path).unwrap();
        assert_eq!(render(&resumed), render(&clean));
        assert_eq!(tables(&resumed)[0].to_json(), tables(&clean)[0].to_json());
        assert_eq!(resumed.fit_slope.to_bits(), clean.fit_slope.to_bits());
    }

    #[test]
    fn resume_rejects_a_checkpoint_from_another_grid() {
        // A checkpoint written at one scale must not silently misfold
        // into a differently shaped grid.
        let path =
            std::env::temp_dir().join(format!("zen2-fig09-mismatch-test-{}", std::process::id()));
        let cfg = quick();
        let halted = run_checkpointed(
            &cfg,
            87,
            &Session::new().workers(2).shard_size(3),
            &CheckpointSpec { halt_after: Some(1), ..CheckpointSpec::at(&path) },
        )
        .unwrap();
        assert!(halted.is_none());
        let reshaped = Config { freqs_mhz: vec![1500], ..cfg };
        let err =
            run_checkpointed(&reshaped, 87, &Session::new(), &CheckpointSpec::resume_from(&path))
                .unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.to_string().contains("grid shape"), "{err}");
    }

    #[test]
    fn rapl_underreports_and_points_scatter() {
        let r = run(&quick(), 81, &Session::new());
        // "the RAPL package domain reports significantly lower power
        // compared to the external measurement": every active point.
        for p in r.points.iter().filter(|p| p.workload != "idle") {
            assert!(p.rapl_pkg_w < p.ac_w, "{}: {} vs {}", p.workload, p.rapl_pkg_w, p.ac_w);
        }
        // No single function maps RAPL to AC: substantial residuals.
        assert!(r.worst_residual_w > 10.0, "worst residual {:.1}", r.worst_residual_w);
    }

    #[test]
    fn memory_workloads_sit_above_the_fit() {
        let r = run(&quick(), 82, &Session::new());
        assert!(
            r.memory_residual_w > 5.0,
            "memory workloads draw AC that RAPL cannot see: {:+.1} W",
            r.memory_residual_w
        );
    }

    #[test]
    fn core_domain_is_below_package_domain() {
        let r = run(&quick(), 83, &Session::new());
        for p in &r.points {
            assert!(
                p.rapl_core_w <= p.rapl_pkg_w + 1e-6,
                "{}: core {} pkg {}",
                p.workload,
                p.rapl_core_w,
                p.rapl_pkg_w
            );
        }
    }

    #[test]
    fn compute_workloads_scale_with_frequency() {
        let r = run(&quick(), 84, &Session::new());
        let find = |mhz: u32| {
            r.points
                .iter()
                .find(|p| p.workload == "add_pd" && p.freq_mhz == mhz && p.cores == 64)
                .expect("point present")
                .ac_w
        };
        assert!(find(2500) > find(1500) + 30.0);
    }
}
