//! Per-layer measurements: a `Recorder` that turns the session's spans
//! into per-phase timings, and timed calls into the public functions of
//! `zen2-sim`'s system, power, scenario, sweep and checkpoint layers.
//!
//! Only entry points the simulator keeps are called: no legacy
//! `System::measure_*` wrapper, no `stats::Merge`, no criterion shim.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;

use zen2_isa::{KernelClass, OperandWeight};
use zen2_msr::address;
use zen2_obs::clock;
use zen2_sim::cstate::ThreadState;
use zen2_sim::obs::{
    Attr, AttrValue, Recorder, SpanId, CTR_CACHE_MISS, SPAN_BOOT, SPAN_CASE, SPAN_FORK, SPAN_POOL,
    SPAN_REDUCE, SPAN_SIM,
};
use zen2_sim::power::{self, MachineState};
use zen2_sim::time::MILLISECOND;
use zen2_sim::{Checkpoint, GroupedStats, OnlineStats, SimConfig, System};
use zen2_topology::ThreadId;

use crate::workloads::Job;

/// Median of `values` (which it sorts); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Times `body` on fresh inputs from `setup` (untimed) until at least
/// `min_reps` runs and `budget_s` seconds have passed, or `max_reps`
/// runs; returns the median host ns of one `body` call.
pub fn time_median_ns<S, T>(
    min_reps: usize,
    max_reps: usize,
    budget_s: f64,
    mut setup: impl FnMut(usize) -> S,
    mut body: impl FnMut(S) -> T,
) -> f64 {
    let start = clock::now_ns();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (samples.len() < max_reps && clock::secs_since(start) < budget_s)
    {
        let input = setup(samples.len());
        let t = clock::now_ns();
        black_box(body(black_box(input)));
        samples.push((clock::now_ns() - t) as f64);
    }
    median(&mut samples)
}

/// A timed metric of one layer: `(name, value)`.
pub type Metric = (&'static str, f64);

// ---- session spans ---------------------------------------------------------

struct Open {
    name: &'static str,
    parent: Option<&'static str>,
    t: u64,
    workers: u64,
}

#[derive(Default)]
struct SpanState {
    open: BTreeMap<u64, Open>,
    case_ms: Vec<f64>,
    case_ns: u64,
    sim_ns: u64,
    /// Machine preparation under each case span: a fork of the cached
    /// prototype, or a boot where none is cached.
    prep: (u64, u64),
    reduce: (u64, u64),
    /// Σ pool-span duration × the workers that pool ran.
    pool_capacity_ns: u64,
    cache_misses: u64,
}

/// A `Recorder` keeping span timings in memory, stamped with
/// `zen2_obs::clock`; read out once the run ends.
#[derive(Default)]
pub struct SpanRecorder {
    state: Mutex<SpanState>,
}

impl Recorder for SpanRecorder {
    fn span_open(
        &self,
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        attrs: &[Attr<'_>],
    ) {
        let t = clock::now_ns();
        let workers = attrs
            .iter()
            .find_map(|(k, v)| match v {
                AttrValue::U64(n) if *k == "workers" => Some(*n),
                _ => None,
            })
            .unwrap_or(1);
        let mut s = self.state.lock().expect("span recorder poisoned");
        let parent = parent.and_then(|p| s.open.get(&p.0)).map(|o| o.name);
        s.open.insert(id.0, Open { name, parent, t, workers });
    }

    fn span_close(&self, id: SpanId) {
        let t = clock::now_ns();
        let mut s = self.state.lock().expect("span recorder poisoned");
        let Some(open) = s.open.remove(&id.0) else { return };
        let dur = t.saturating_sub(open.t);
        match open.name {
            SPAN_CASE => {
                s.case_ms.push(dur as f64 / 1e6);
                s.case_ns += dur;
            }
            SPAN_SIM => s.sim_ns += dur,
            SPAN_FORK | SPAN_BOOT if open.parent == Some(SPAN_CASE) => {
                s.prep.0 += dur;
                s.prep.1 += 1;
            }
            SPAN_REDUCE => {
                s.reduce.0 += dur;
                s.reduce.1 += 1;
            }
            SPAN_POOL => s.pool_capacity_ns += dur * open.workers,
            _ => {}
        }
    }

    fn counter(&self, name: &'static str, delta: u64) {
        if name == CTR_CACHE_MISS {
            self.state.lock().expect("span recorder poisoned").cache_misses += delta;
        }
    }

    fn gauge(&self, _name: &'static str, _value: f64) {}
    fn observe(&self, _name: &'static str, _value: f64) {}
    fn event(&self, _name: &'static str, _attrs: &[Attr<'_>]) {}
}

/// The highest of these percentiles with at least ten samples beyond it
/// is the reported tail; below 11 samples the tail is the maximum.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

impl SpanRecorder {
    /// The session metrics.
    pub fn metrics(self) -> Vec<Metric> {
        let mut s = self.state.into_inner().expect("span recorder poisoned");
        let n = s.case_ms.len();
        let p50 = median(&mut s.case_ms);
        let pct = TAIL_PERCENTILES
            .into_iter()
            .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(100.0);
        // Nearest-rank percentile over the sorted samples.
        let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
        let tail = s.case_ms.get(rank - 1).copied().unwrap_or(0.0);
        let mean_us = |(total, count): (u64, u64)| total as f64 / count.max(1) as f64 / 1e3;
        vec![
            ("session.case_ms_p50", p50),
            ("session.case_ms_tail", tail),
            ("session.case_tail_pct", pct),
            ("session.case_samples", n as f64),
            ("session.sim_ms_total", s.sim_ns as f64 / 1e6),
            ("session.fork_us", mean_us(s.prep)),
            ("session.reduce_us", mean_us(s.reduce)),
            ("session.worker_util", s.case_ns as f64 / s.pool_capacity_ns.max(1) as f64),
            ("session.cache_misses", s.cache_misses as f64),
        ]
    }
}

// ---- timed calls into the simulator layers ---------------------------------

const BUDGET_S: f64 = 0.25;

fn booted(seed: u64) -> System {
    System::new(SimConfig::epyc_7502_2s(), seed)
}

/// All 128 hardware threads running FIRESTARTER, settled for 50 ms.
fn loaded(seed: u64) -> System {
    let mut sys = booted(seed);
    for t in 0..128u32 {
        sys.set_workload(ThreadId(t), KernelClass::Firestarter, OperandWeight::HALF);
    }
    sys.run_for_ns(50 * MILLISECOND);
    sys
}

/// Core 0 busy-waiting at nominal frequency, settled for 20 ms.
fn dvfs_ready(seed: u64) -> System {
    let mut sys = booted(seed);
    sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
    sys.run_for_ns(20 * MILLISECOND);
    sys
}

/// Requests `mhz` on both siblings of core 0 — the userspace-governor
/// switch Fig. 3 makes at every sample.
fn request_core0(sys: &mut System, mhz: u32) {
    sys.set_thread_pstate_mhz(ThreadId(0), mhz);
    sys.set_thread_pstate_mhz(ThreadId(1), mhz);
}

/// Timed calls into the system layer that do not depend on the workload.
pub fn system_layer() -> Vec<Metric> {
    let run_100ms = |prepare: fn(u64) -> System| {
        time_median_ns(
            5,
            200,
            BUDGET_S,
            |i| prepare(i as u64),
            |mut sys| {
                sys.run_for_ns(100 * MILLISECOND);
                sys.ac_power_w()
            },
        ) / 100.0
    };
    let prototype = booted(0);
    let mut requested = dvfs_ready(3);
    let mut busy = loaded(99);
    let mut scheduled = booted(5);
    vec![
        ("system.boot_us", time_median_ns(5, 500, BUDGET_S, |i| i as u64, booted) / 1e3),
        (
            "system.fork_us",
            time_median_ns(5, 2000, BUDGET_S, |i| i as u64, |seed| prototype.fork(seed)) / 1e3,
        ),
        ("system.run_idle_ns_per_sim_ms", run_100ms(booted)),
        ("system.run_loaded_ns_per_sim_ms", run_100ms(loaded)),
        (
            "system.pstate_request_us",
            time_median_ns(
                5,
                5000,
                BUDGET_S,
                |i| if i % 2 == 0 { 1500 } else { 2200 },
                |mhz| request_core0(&mut requested, mhz),
            ) / 1e3,
        ),
        (
            "system.dvfs_settle_us",
            time_median_ns(
                5,
                500,
                BUDGET_S,
                |i| dvfs_ready(i as u64),
                |mut sys| {
                    request_core0(&mut sys, 1500);
                    sys.run_for_ns(3 * MILLISECOND);
                    sys.effective_core_ghz(zen2_topology::CoreId(0))
                },
            ) / 1e3,
        ),
        (
            "system.rapl_read_us",
            time_median_ns(
                5,
                5000,
                BUDGET_S,
                |_| (),
                |()| {
                    busy.sync_rapl_msrs();
                    let msrs = busy.msrs();
                    let pkg = msrs.read(ThreadId(0), address::PKG_ENERGY_STAT);
                    let core = msrs.read(ThreadId(0), address::CORE_ENERGY_STAT);
                    (pkg.expect("package energy MSR"), core.expect("core energy MSR"))
                },
            ) / 1e3,
        ),
        (
            "system.set_workload_us",
            time_median_ns(
                5,
                5000,
                BUDGET_S,
                |i| {
                    let class =
                        if i % 2 == 0 { KernelClass::VXorps } else { KernelClass::Firestarter };
                    (ThreadId((i % 128) as u32), class)
                },
                |(thread, class)| scheduled.set_workload(thread, class, OperandWeight::HALF),
            ) / 1e3,
        ),
    ]
}

/// Timed `power::evaluate` on an idle (all C2) and a fully loaded (all
/// threads FIRESTARTER at nominal clock) machine state.
pub fn power_layer() -> Vec<Metric> {
    let cfg = SimConfig::epyc_7502_2s();
    let threads = cfg.topology.num_threads();
    let cores = cfg.topology.num_cores();
    let ghz = vec![cfg.nominal_mhz() as f64 / 1000.0; cores];
    let volts = vec![cfg.voltage_for_mhz(cfg.nominal_mhz()); cores];
    let temps = vec![60.0; cfg.topology.num_sockets()];
    let noise = vec![0.0; cores];
    let evaluate_us = |states: &[ThreadState], work: &[Option<(KernelClass, OperandWeight)>]| {
        let state = MachineState {
            thread_states: states,
            workloads: work,
            core_eff_ghz: &ghz,
            core_voltage: &volts,
            die_temp_c: &temps,
            est_noise_w: &noise,
        };
        time_median_ns(5, 20_000, BUDGET_S, |_| (), |()| power::evaluate(&cfg, &state)) / 1e3
    };
    let idle = evaluate_us(&vec![ThreadState::C2; threads], &vec![None; threads]);
    let loaded = evaluate_us(
        &vec![ThreadState::Active; threads],
        &vec![Some((KernelClass::Firestarter, OperandWeight::HALF)); threads],
    );
    vec![("power.evaluate_idle_us", idle), ("power.evaluate_loaded_us", loaded)]
}

/// Timed calls on the workload's own inputs: scenario validation, one
/// case pull from its sweep, a save and load of a checkpoint of its grid
/// state, and `trace_mean_w` after one of its cases has run.
pub fn workload_layers(job: &Job, scratch: &Path) -> Vec<Metric> {
    let sweep = job.sweep();
    let first = sweep.case(0);
    let validate_ms = time_median_ns(
        3,
        200,
        BUDGET_S,
        |_| (),
        |()| first.scenario.validate(&first.config).expect("workload scenario validates"),
    ) / 1e6;
    let case_gen_us =
        time_median_ns(3, 20_000, BUDGET_S, |i| i % sweep.len(), |i| sweep.case(i)) / 1e3;

    // The grid state a checkpoint of this workload holds: one on-line
    // aggregate per cell of the workload's grouping axes.
    let mut grid = GroupedStats::<OnlineStats>::new(&sweep, job.group_by());
    for i in 0..sweep.len() {
        grid.entry(i).push(i as f64);
    }
    let path = scratch.join("layer.ckpt");
    let checkpoint = || {
        let mut c = Checkpoint::new(&sweep, sweep.len(), sweep.len());
        c.set_grouped("grid", &grid);
        c
    };
    let save_us = time_median_ns(
        5,
        500,
        BUDGET_S,
        |_| checkpoint(),
        |c| c.save(&path).expect("checkpoint saves"),
    ) / 1e3;
    let bytes = std::fs::metadata(&path).expect("checkpoint written").len() as f64;
    let load_ms = time_median_ns(
        5,
        500,
        BUDGET_S,
        |_| (),
        |()| Checkpoint::load(&path).expect("checkpoint loads"),
    ) / 1e6;
    let _ = std::fs::remove_file(&path);

    let sys = job.representative_run();
    let to = sys.now_ns();
    let from = to.saturating_sub(100 * MILLISECOND);
    let trace_mean_w_us =
        time_median_ns(5, 2000, BUDGET_S, |_| (), |()| sys.trace_mean_w(from, to)) / 1e3;

    vec![
        ("scenario.validate_ms", validate_ms),
        ("sweep.case_gen_us", case_gen_us),
        ("checkpoint.save_us", save_us),
        ("checkpoint.bytes", bytes),
        ("checkpoint.load_ms", load_ms),
        ("system.trace_mean_w_us", trace_mean_w_us),
    ]
}
