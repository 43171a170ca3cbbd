//! Scenario torture: a seeded random-[`Scenario`] generator plus a
//! physics-invariant checker for every resulting [`Run`].
//!
//! The paper's evidence is bounded by its 16 figures; this module is how
//! scenario diversity stops being bounded by them. [`generate_case`]
//! derives a topology-valid random case — machine preset, ablation
//! switches, action timeline, probe set — from `(root_seed, index)`
//! through [`child_seed`], so any case anywhere in a soak is
//! reproducible from two numbers. [`Invariants::check`] then audits the
//! run against contracts the simulator must never break, whatever the
//! scenario:
//!
//! * **Residency conservation** — per-core time-at-frequency fractions
//!   sum to exactly 1: the [`FreqResidency`] histogram over the full
//!   window accounts every nanosecond (integer arithmetic, no float
//!   slop), and the `Freq(core)`-filtered event stream agrees
//!   bit-for-bit with the all-events stream filtered client-side.
//! * **Power envelopes** — every AC reading sits between the all-PC6
//!   floor and a PPT-bounded ceiling derived from the config's own
//!   power parameters; RAPL rails, package power, energies, counters,
//!   latencies and bandwidths all stay physical (NaN trips every check).
//! * **Trace discipline** — monotone timestamps, events inside their
//!   probe window and matching their filter, every `FreqRequested`
//!   target a defined P-state, applied frequencies never above nominal,
//!   request→apply pairing never time-travelling, and every scheduled
//!   P-state step producing its request record.
//! * **RAPL publication** — two package-energy MSR reads of one socket
//!   inside one 1 ms publication period agree (§VII).
//! * **[`Snapshot`] identity** — accumulators built from the run
//!   round-trip through their exact-JSON wire format bit-for-bit.
//!
//! Worker-count/shard-split invariance and the differential
//! `System::run_scenario`-vs-streaming check need more than one execution
//! of the same case, so they live in the `torture` bin and the proptest
//! suite, both of which drive this module. The streaming side runs a case
//! without RAPL accounting when it reads no RAPL counter
//! ([`keeps_rapl_accounting`]), with the performance counters of only
//! the threads its probes read, none when it reads none
//! ([`keeps_counters`]), and trims its AC trace behind its open windows
//! ([`trims_ac_trace`]); the direct side does none of these.
//! [`reads_energy_twice_per_period`] tells which cases exercise the
//! same-period RAPL check. A greedy
//! [`shrink_scenario`] reduces a failing case to a minimal reproducer
//! (the vendored proptest shim does not shrink), and [`inject_fault`]
//! seeds deliberate violations so the checker itself stays tested. See
//! `docs/TORTURE.md` for the invariant catalog with physical rationale.

use crate::config::SimConfig;
use crate::probe::{EventFilter, Measurement, Probe, ProbeSpec, Run, Window};
use crate::scenario::{Op, Scenario, ScenarioError, Step};
use crate::session::Case;
use crate::snapshot::Snapshot;
use crate::stats::{FreqResidency, OnlineStats, TransitionStats};
use crate::sweep::child_seed;
use crate::time::{Ns, MILLISECOND};
use crate::trace::{Event, Record};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_rapl::accounting::UPDATE_PERIOD_NS;
use zen2_topology::{CoreId, SocketId, ThreadId};

/// Label of the mandatory all-events trace probe every generated
/// scenario carries over its full `[0, end]` window.
pub const EV_ALL: &str = "ev-all";

/// Label of the mandatory per-core `Freq`-filtered trace probe (the
/// residency cross-check's second, independently filtered source).
pub const EV_CORE: &str = "ev-core";

/// Workload classes the generator schedules (everything but the
/// internal `Idle`/`Poll` pseudo-kernels, which the engine reserves for
/// its own idle transitions).
const WORKLOADS: &[KernelClass] = &[
    KernelClass::Pause,
    KernelClass::BusyWait,
    KernelClass::Compute,
    KernelClass::Matmul,
    KernelClass::Sqrt,
    KernelClass::AddPd,
    KernelClass::MulPd,
    KernelClass::MemoryRead,
    KernelClass::MemoryWrite,
    KernelClass::MemoryCopy,
    KernelClass::Firestarter,
    KernelClass::StreamTriad,
    KernelClass::PointerChase,
    KernelClass::VXorps,
];

/// Generates the `index`-th torture case of a soak rooted at
/// `root_seed`: a random machine preset with random ablation switches,
/// a topology-valid action timeline, and a probe set that always
/// includes the invariant probes ([`EV_ALL`], [`EV_CORE`]), a
/// zero-length window at `t = 0`, an instant probe exactly at the
/// scenario end, and span probes ending exactly at the end — the
/// boundary shapes regressions like to hide in.
///
/// Deterministic: the same `(root_seed, index)` always yields the same
/// case, on any machine, under any worker split.
pub fn generate_case(root_seed: u64, index: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(child_seed(root_seed, index));
    let config = random_config(&mut rng);
    let scenario = random_scenario(&config, &mut rng);
    let seed = rng.next_u64();
    Case::new(format!("torture-{index}"), config, scenario, seed)
}

/// The first `n` cases of a soak rooted at `root_seed`, lazily — feed
/// this straight into [`Session::run_streaming`](crate::Session).
pub fn cases(root_seed: u64, n: u64) -> impl Iterator<Item = Case> {
    (0..n).map(move |i| generate_case(root_seed, i))
}

fn random_config(rng: &mut StdRng) -> SimConfig {
    let mut cfg = match rng.gen_range(0u32..3) {
        0 => SimConfig::epyc_7502_2s(),
        1 => SimConfig::epyc_7502_1s(),
        _ => SimConfig::epyc_7742_1s(),
    };
    if rng.gen_bool(0.25) {
        cfg.ccx_coupling = !cfg.ccx_coupling;
    }
    if rng.gen_bool(0.25) {
        cfg.global_package_c6 = !cfg.global_package_c6;
    }
    cfg
}

/// A span `[a, b]` with `a < b <= end`, biased toward short windows so
/// degenerate (nanosecond-scale) spans appear regularly.
fn random_span(rng: &mut StdRng, end: Ns) -> (Ns, Ns) {
    let a = rng.gen_range(0..end);
    let b = if rng.gen_bool(0.2) {
        rng.gen_range(a + 1..=(a + 1000).min(end))
    } else {
        rng.gen_range(a + 1..=end)
    };
    (a, b)
}

fn random_scenario(cfg: &SimConfig, rng: &mut StdRng) -> Scenario {
    let end = rng.gen_range(20 * MILLISECOND..=150 * MILLISECOND);
    let mut sc = Scenario::new();
    let targets = if rng.gen_range(0u32..8) == 0 {
        load_every_thread(&mut sc, rng, cfg.topology.num_threads() as u32, end)
    } else {
        random_timeline(cfg, &mut sc, rng, end)
    };
    random_probes(&mut sc, rng, cfg, &targets, end);
    sc
}

/// The timeline of about one case in eight: every thread loads with
/// FIRESTARTER at `t = 0`, which pushes the package estimates past PPT
/// so the cap moves, and one later tick re-weights every thread, as a
/// Fig. 10 block does, so the engine settles a tick that touches every
/// core twice. Each tick is one `workloads` call, as Fig. 10's are.
/// Every thread is a target.
fn load_every_thread(sc: &mut Scenario, rng: &mut StdRng, num_threads: u32, end: Ns) -> Vec<u32> {
    let reweight_at = rng.gen_range(MILLISECOND..=end);
    let weight = OperandWeight(rng.gen_range(0.0..=1.0));
    for (at, weight) in [(0, OperandWeight::HALF), (reweight_at, weight)] {
        sc.at(at).workloads(ThreadId(0), num_threads, KernelClass::Firestarter, weight);
    }
    (0..num_threads).collect()
}

/// A random action timeline on 1–6 random targets; returns the targets.
fn random_timeline(cfg: &SimConfig, sc: &mut Scenario, rng: &mut StdRng, end: Ns) -> Vec<u32> {
    let num_threads = cfg.topology.num_threads() as u32;
    // A small set of distinct action targets: scenario cost scales with
    // active threads, and a handful exercises every interaction (SMT
    // siblings, CCX coupling, package-C6 criterion) as well as 128 do.
    let mut targets: Vec<u32> = Vec::new();
    let k = rng.gen_range(1..=6usize);
    while targets.len() < k {
        let t = rng.gen_range(0..num_threads);
        if !targets.contains(&t) {
            targets.push(t);
        }
    }

    // Replay hotplug state while generating (times are drawn sorted), so
    // no workload or idle step ever targets a thread that is offline at
    // that point — the generator proposes only valid timelines.
    let mut offline = vec![false; num_threads as usize];
    let n_steps = rng.gen_range(0..=10usize);
    let mut times: Vec<Ns> = (0..n_steps).map(|_| rng.gen_range(0..=end)).collect();
    times.sort_unstable();
    for at in times {
        let online: Vec<u32> = targets.iter().copied().filter(|&t| !offline[t as usize]).collect();
        match rng.gen_range(0u32..100) {
            0..=34 => {
                if let Some(&t) = online.choose(rng) {
                    let class = WORKLOADS.choose(rng).copied().unwrap_or(KernelClass::BusyWait);
                    let weight = OperandWeight(rng.gen_range(0.0..=1.0));
                    sc.at(at).workload(ThreadId(t), class, weight);
                }
            }
            35..=49 => {
                if let Some(&t) = online.choose(rng) {
                    sc.at(at).idle(ThreadId(t));
                }
            }
            50..=64 => {
                if let Some(&t) = targets.choose(rng) {
                    if let Some(&mhz) = cfg.pstates.frequencies_mhz().choose(rng) {
                        sc.at(at).pstate(ThreadId(t), mhz);
                    }
                }
            }
            65..=74 => {
                if let Some(&t) = targets.choose(rng) {
                    sc.at(at).cstate(ThreadId(t), rng.gen_range(1..=2u8), rng.gen_bool(0.5));
                }
            }
            75..=89 => {
                if let Some(&t) = targets.choose(rng) {
                    let was_online = !offline[t as usize];
                    sc.at(at).online(ThreadId(t), !was_online);
                    offline[t as usize] = was_online;
                }
            }
            90..=94 => {
                sc.at(at).preheat();
            }
            _ => {
                // `tracing(false)` would blind the invariant probes
                // mid-run, so the generator only ever turns tracing on.
                sc.at(at).tracing(true);
            }
        }
    }
    targets
}

/// The probe set and `run_until` mode of a case whose action targets are
/// `targets`.
fn random_probes(sc: &mut Scenario, rng: &mut StdRng, cfg: &SimConfig, targets: &[u32], end: Ns) {
    let num_threads = cfg.topology.num_threads() as u32;
    let num_cores = cfg.topology.num_cores() as u32;
    let num_sockets = cfg.topology.num_sockets() as u32;

    // Mandatory probes: the two invariant trace streams over the full
    // window (spans ending exactly at the scenario end), plus instant
    // (zero-length) windows at both boundaries.
    let focus = CoreId(rng.gen_range(0..num_cores));
    sc.probe(EV_ALL, Probe::TraceEvents(EventFilter::All), Window::span(0, end));
    sc.probe(EV_CORE, Probe::TraceEvents(EventFilter::Freq(focus)), Window::span(0, end));
    sc.probe("ac-end", Probe::AcPowerW, Window::at(end));
    sc.probe("ghz-start", Probe::EffectiveGhz(focus), Window::at(0));

    for i in 0..rng.gen_range(0usize..=5) {
        let label = format!("p{i}");
        let (a, b) = random_span(rng, end);
        match rng.gen_range(0u32..10) {
            0 => {
                sc.probe(label, Probe::AcTrueMeanW, Window::span(a, b));
            }
            1 => {
                // The LMG670 integrates 50 ms windows; give the metered
                // mean a window its inner-80% trim can populate.
                if end >= 120 * MILLISECOND {
                    let from = rng.gen_range(0..=end - 120 * MILLISECOND);
                    sc.probe(label, Probe::AcMeteredW, Window::span(from, end));
                } else {
                    sc.probe(label, Probe::MeterSamples, Window::span(a, b));
                }
            }
            2 => {
                // Both RAPL sums, or the package sum alone, which a case
                // reads keeping no core domain.
                let probe =
                    if rng.gen_range(0u32..2) == 0 { Probe::RaplW } else { Probe::RaplPkgW };
                sc.probe(label, probe, Window::span(a, b));
            }
            3 => {
                let core = CoreId(rng.gen_range(0..num_cores));
                sc.probe(label, Probe::RaplCoreW(core), Window::span(a, b));
            }
            4 => {
                let thread = ThreadId(rng.gen_range(0..num_threads));
                sc.probe(label, Probe::CounterDelta(thread), Window::span(a, b));
            }
            5 => {
                let thread = ThreadId(rng.gen_range(0..num_threads));
                let every = ((b - a) / rng.gen_range(1..=16u64)).max(1);
                sc.probe(label, Probe::CounterSeries { thread, every }, Window::span(a, b));
            }
            6 => {
                // Wakeup sampling needs a callee that sleeps across every
                // sample time; an untouched thread sleeps from boot.
                let callee = (0..num_threads).find(|t| !targets.contains(t));
                let count = rng.gen_range(1..=4u64);
                match callee {
                    Some(callee) if b - a >= count => {
                        let caller =
                            ThreadId(if callee == 0 { num_threads - 1 } else { callee - 1 });
                        let gap = ((b - a) / (count + 1)).max(1);
                        sc.probe(
                            label,
                            Probe::WakeupSamples {
                                caller,
                                callee: ThreadId(callee),
                                count: count as usize,
                                gap,
                            },
                            Window::span(a, b),
                        );
                    }
                    _ => {
                        sc.probe(label, Probe::AcTrueMeanW, Window::span(a, b));
                    }
                }
            }
            7 => {
                sc.probe(label, Probe::AcEnergyJ, Window::span(a, b));
            }
            8 => {
                let t = match rng.gen_range(0u32..3) {
                    0 => 0,
                    1 => end,
                    _ => rng.gen_range(0..=end),
                };
                let probe = match rng.gen_range(0u32..7) {
                    0 => Probe::EffectiveGhz(CoreId(rng.gen_range(0..num_cores))),
                    1 => Probe::AcPowerW,
                    2 => Probe::PkgTrueW(SocketId(rng.gen_range(0..num_sockets))),
                    3 => Probe::L3LatencyNs(CoreId(rng.gen_range(0..num_cores))),
                    4 => Probe::DramLatencyNs,
                    5 => Probe::StreamTriadGbs(rng.gen_range(1..=num_cores)),
                    _ => {
                        // A second read of the socket inside the same
                        // publication period, which the checker requires
                        // to agree with the first.
                        let socket = SocketId(rng.gen_range(0..num_sockets));
                        let period = t - t % UPDATE_PERIOD_NS;
                        let again = rng.gen_range(period..=end.min(period + UPDATE_PERIOD_NS - 1));
                        let probe = Probe::PkgEnergyMsr(socket);
                        sc.probe(format!("{label}-again"), probe, Window::at(again));
                        probe
                    }
                };
                sc.probe(label, probe, Window::at(t));
            }
            _ => {
                let filter = match rng.gen_range(0u32..5) {
                    0 => EventFilter::All,
                    1 => EventFilter::Freq(CoreId(rng.gen_range(0..num_cores))),
                    2 => EventFilter::ThreadState(ThreadId(rng.gen_range(0..num_threads))),
                    3 => EventFilter::PackageSleep(SocketId(rng.gen_range(0..num_sockets))),
                    _ => EventFilter::CapChanged(SocketId(rng.gen_range(0..num_sockets))),
                };
                sc.probe(label, Probe::TraceEvents(filter), Window::span(a, b));
            }
        }
    }

    // run_until boundaries: sometimes the explicit minimum coincides
    // with the probes' end, sometimes it sits *below* the last step or
    // window (steps after `run_until` are legal — it is a minimum, not
    // a cap), and sometimes it is absent entirely.
    match rng.gen_range(0u32..3) {
        0 => {
            sc.run_until(end);
        }
        1 => {
            let t = rng.gen_range(0..=end);
            sc.run_until(t);
        }
        _ => {}
    }
}

// ---- invariant checking ----------------------------------------------------

/// One audited contract a [`Run`] broke. [`Violation::kind`] names the
/// invariant family, so tests can assert a tampered run trips exactly
/// its own invariant and nothing else.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Per-core residency fractions failed to sum to 1, or the filtered
    /// and client-filtered event streams disagreed.
    Residency {
        /// Label of the trace probe the histogram was reduced from.
        label: String,
        /// What went wrong.
        detail: String,
    },
    /// A power, energy, frequency, latency, or bandwidth reading left
    /// its physical envelope (NaN always lands here).
    Power {
        /// Label of the offending measurement (`final_ac_w` for the
        /// run's closing power).
        label: String,
        /// The reading.
        value: f64,
        /// Lowest admissible value.
        lo: f64,
        /// Highest admissible value.
        hi: f64,
    },
    /// A trace stream broke its discipline: non-monotone timestamps,
    /// events outside the probe window or filter, undefined request
    /// targets, super-nominal applies, or broken request→apply pairing.
    Trace {
        /// Label of the offending trace probe.
        label: String,
        /// What went wrong.
        detail: String,
    },
    /// A hardware counter ran backwards or beat its own reference clock.
    Counters {
        /// Label of the offending counter probe.
        label: String,
        /// What went wrong.
        detail: String,
    },
    /// An accumulator built from the run failed to round-trip through
    /// its exact-JSON [`Snapshot`] wire format bit-for-bit.
    Snapshot {
        /// Which accumulator.
        what: &'static str,
    },
    /// Two execution paths disagreed on the same case (reported by the
    /// `torture` bin's differential mode, not by [`Invariants::check`]).
    Differential {
        /// What disagreed.
        detail: String,
    },
    /// The run does not structurally match its scenario (missing or
    /// re-ordered measurements, a sampled window holding more or fewer
    /// samples than its window takes, a run shorter than its scenario) —
    /// or the generator proposed a scenario that failed validation.
    Malformed {
        /// What went wrong.
        detail: String,
    },
}

impl Violation {
    /// The invariant family this violation belongs to.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Residency { .. } => "residency",
            Self::Power { .. } => "power",
            Self::Trace { .. } => "trace",
            Self::Counters { .. } => "counters",
            Self::Snapshot { .. } => "snapshot",
            Self::Differential { .. } => "differential",
            Self::Malformed { .. } => "malformed",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Residency { label, detail } => write!(f, "residency[{label}]: {detail}"),
            Self::Power { label, value, lo, hi } => {
                write!(f, "power[{label}]: {value} W outside [{lo:.1}, {hi:.1}]")
            }
            Self::Trace { label, detail } => write!(f, "trace[{label}]: {detail}"),
            Self::Counters { label, detail } => write!(f, "counters[{label}]: {detail}"),
            Self::Snapshot { what } => {
                write!(f, "snapshot[{what}]: wire round-trip is not bit-identical")
            }
            Self::Differential { detail } => write!(f, "differential: {detail}"),
            Self::Malformed { detail } => write!(f, "malformed: {detail}"),
        }
    }
}

/// The physics-invariant checker for one machine configuration: every
/// bound is derived from the config's own power and P-state parameters,
/// so the same checker audits the 2-socket 7502, the 1-socket presets,
/// and any ablation variant.
#[derive(Debug, Clone)]
pub struct Invariants {
    ac_floor_w: f64,
    ac_ceil_w: f64,
    socket_dc_ceil_w: f64,
    system_dc_ceil_w: f64,
    nominal_mhz: u32,
    table_mhz: Vec<u32>,
    topology: zen2_topology::Topology,
}

/// The admissible ceiling of a windowed RAPL power reading.
///
/// RAPL counters publish every 1 ms (`zen2_rapl`'s `UPDATE_PERIOD_NS`;
/// the paper's Section VII measures exactly this). ΔE/Δt over a window
/// shorter than the update period therefore spikes legitimately: one
/// counter update inside a 17 µs window credits a full millisecond of
/// energy to 17 µs of wall time. Scale the steady-state ceiling by the
/// worst case — up to two boundary updates beyond the window's own
/// share. (The torture soak *found* this: the first 10⁴-case run
/// flagged a 5 kW "violation" on a degenerate 17 µs RaplW window.)
fn rapl_window_ceiling(dc_ceil_w: f64, window: &Window) -> f64 {
    let len = (window.to - window.from).max(1);
    dc_ceil_w * (len + 2 * UPDATE_PERIOD_NS) as f64 / len as f64
}

impl Invariants {
    /// Derives the envelopes for one configuration.
    ///
    /// The AC floor is the all-packages-PC6 state (package C6 power per
    /// socket, DRAM in self-refresh, platform overhead, through the PSU
    /// efficiency curve) with 5 % slack for thermal/leakage transients;
    /// the ceiling allows every socket 1.6× TDP (PPT caps the *SMU
    /// estimate*, and the paper's point is that true power exceeds it)
    /// plus 150 W of DRAM and fan headroom.
    pub fn for_config(cfg: &SimConfig) -> Self {
        let sockets = cfg.topology.num_sockets() as f64;
        let p = &cfg.power;
        let floor_dc = sockets * p.package.pc6_w + p.dram.self_refresh_w() + p.platform_dc_w;
        let ceil_dc = sockets * p.package.tdp_w * 1.6 + 150.0 + p.platform_dc_w;
        Self {
            ac_floor_w: p.psu.ac_from_dc(floor_dc) * 0.95,
            ac_ceil_w: p.psu.ac_from_dc(ceil_dc),
            socket_dc_ceil_w: p.package.tdp_w * 1.6,
            system_dc_ceil_w: sockets * p.package.tdp_w * 1.6,
            nominal_mhz: cfg.nominal_mhz(),
            table_mhz: cfg.pstates.frequencies_mhz(),
            topology: cfg.topology.clone(),
        }
    }

    /// Audits one run of `scenario` and returns every violation found
    /// (empty = the run upholds every invariant).
    pub fn check(&self, scenario: &Scenario, run: &Run) -> Vec<Violation> {
        let mut out = Vec::new();
        let end = scenario.end();
        let Some(offset) = run.end_ns.checked_sub(end) else {
            return vec![Violation::Malformed {
                detail: format!(
                    "run ends at {} ns but the scenario alone is {end} ns long",
                    run.end_ns
                ),
            }];
        };
        if run.measurements.len() != scenario.probes().len() {
            return vec![Violation::Malformed {
                detail: format!(
                    "{} measurements for {} probes",
                    run.measurements.len(),
                    scenario.probes().len()
                ),
            }];
        }
        for (spec, (label, m)) in scenario.probes().iter().zip(&run.measurements) {
            if &spec.label != label {
                out.push(Violation::Malformed {
                    detail: format!("probe {:?} delivered as {label:?}", spec.label),
                });
                continue;
            }
            self.check_measurement(spec, m, offset, scenario, &mut out);
        }
        self.check_ac("final_ac_w", run.final_ac_w, &mut out);
        check_energy_reads(scenario, run, offset, &mut out);
        self.check_residency(scenario, run, offset, end, &mut out);
        self.check_snapshots(scenario, run, &mut out);
        out
    }

    fn check_ac(&self, label: &str, w: f64, out: &mut Vec<Violation>) {
        if !(w >= self.ac_floor_w && w <= self.ac_ceil_w) {
            out.push(Violation::Power {
                label: label.to_string(),
                value: w,
                lo: self.ac_floor_w,
                hi: self.ac_ceil_w,
            });
        }
    }

    fn check_bounds(&self, label: &str, v: f64, lo: f64, hi: f64, out: &mut Vec<Violation>) {
        if !(v >= lo && v <= hi) {
            out.push(Violation::Power { label: label.to_string(), value: v, lo, hi });
        }
    }

    // Negated comparisons here are load-bearing: a NaN fails `!(a <= b)`
    // but would pass the clippy-preferred `a > b`, and a NaN that slips
    // through an envelope check is exactly the kind of bug this module
    // exists to catch.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn check_measurement(
        &self,
        spec: &ProbeSpec,
        m: &Measurement,
        offset: Ns,
        scenario: &Scenario,
        out: &mut Vec<Violation>,
    ) {
        let label = spec.label.as_str();
        match (&spec.probe, m) {
            (Probe::AcTrueMeanW | Probe::AcMeteredW | Probe::AcPowerW, Measurement::Watts(w)) => {
                self.check_ac(label, *w, out);
            }
            (Probe::PkgTrueW(_), Measurement::Watts(w)) => {
                self.check_bounds(label, *w, 0.0, self.socket_dc_ceil_w, out);
            }
            (Probe::RaplCoreW(_), Measurement::Watts(w)) => {
                let hi = rapl_window_ceiling(self.socket_dc_ceil_w, &spec.window);
                self.check_bounds(label, *w, 0.0, hi, out);
            }
            (Probe::RaplW, Measurement::WattsPair { pkg_w, core_w }) => {
                let hi = rapl_window_ceiling(self.system_dc_ceil_w, &spec.window);
                self.check_bounds(label, *pkg_w, 0.0, hi, out);
                // The package rail contains the core rail: AMD's package
                // counter is cores + SoC, never less than its cores.
                self.check_bounds(label, *core_w, 0.0, *pkg_w + 1e-6, out);
            }
            (Probe::RaplPkgW, Measurement::Watts(pkg_w)) => {
                let hi = rapl_window_ceiling(self.system_dc_ceil_w, &spec.window);
                self.check_bounds(label, *pkg_w, 0.0, hi, out);
            }
            (Probe::MeterSamples, Measurement::Samples(samples)) => {
                for pair in samples.windows(2) {
                    if pair[1].t_s <= pair[0].t_s {
                        out.push(Violation::Trace {
                            label: label.to_string(),
                            detail: format!(
                                "meter samples run backwards ({} s then {} s)",
                                pair[0].t_s, pair[1].t_s
                            ),
                        });
                        break;
                    }
                }
                for s in samples {
                    // LMG670 noise is well under 1 W at these powers.
                    self.check_bounds(
                        label,
                        s.watts,
                        self.ac_floor_w - 2.0,
                        self.ac_ceil_w + 2.0,
                        out,
                    );
                }
            }
            (Probe::AcEnergyJ, Measurement::Joules(j)) => {
                let len = spec.window.secs();
                self.check_bounds(
                    label,
                    *j,
                    self.ac_floor_w * len * 0.9 - 0.1,
                    self.ac_ceil_w * len * 1.1 + 0.1,
                    out,
                );
            }
            (Probe::EffectiveGhz(_), Measurement::Ghz(g)) => {
                self.check_bounds(label, *g, 0.0, self.nominal_mhz as f64 / 1000.0 + 1e-3, out);
            }
            (Probe::L3LatencyNs(_) | Probe::DramLatencyNs, Measurement::Nanos(n)) => {
                if !(*n > 0.0 && *n < 1e6) {
                    out.push(Violation::Power {
                        label: label.to_string(),
                        value: *n,
                        lo: 0.0,
                        hi: 1e6,
                    });
                }
            }
            (Probe::StreamTriadGbs(_), Measurement::GigabytesPerSec(b)) => {
                if !(*b > 0.0 && *b < 1e4) {
                    out.push(Violation::Power {
                        label: label.to_string(),
                        value: *b,
                        lo: 0.0,
                        hi: 1e4,
                    });
                }
            }
            (Probe::WakeupSamples { count, .. }, Measurement::DurationsNs(ds)) => {
                check_sample_count(label, "wakeup samples", ds.len(), *count as u64, out);
                for d in ds {
                    if !(*d >= 0.0 && *d <= 1e8) {
                        out.push(Violation::Power {
                            label: label.to_string(),
                            value: *d,
                            lo: 0.0,
                            hi: 1e8,
                        });
                    }
                }
            }
            (Probe::CounterDelta(_), Measurement::CounterDelta { begin, end, wall_s }) => {
                self.check_counter_step(label, begin, end, out);
                // The TSC is invariant: it ticks at the nominal rate no
                // matter what the core clock, C-states, or hotplug do.
                let expected_tsc = wall_s * self.nominal_mhz as f64 * 1e6;
                let dt = end.tsc - begin.tsc;
                if !((dt - expected_tsc).abs() <= expected_tsc * 1e-3 + 10.0) {
                    out.push(Violation::Counters {
                        label: label.to_string(),
                        detail: format!(
                            "TSC advanced {dt} over {wall_s} s (expected {expected_tsc})"
                        ),
                    });
                }
            }
            (Probe::CounterSeries { every, .. }, Measurement::CounterSeries(snaps)) => {
                // One snapshot at the start and one every `every` after it.
                let expected = 1 + (spec.window.to - spec.window.from) / every;
                check_sample_count(label, "counter snapshots", snaps.len(), expected, out);
                for pair in snaps.windows(2) {
                    self.check_counter_step(label, &pair[0], &pair[1], out);
                }
            }
            (Probe::TraceEvents(filter), Measurement::Events(records)) => {
                self.check_events(spec, filter, records, offset, scenario, out);
            }
            // Audited across reads by `check_energy_reads`.
            (Probe::PkgEnergyMsr(_), Measurement::Raw(_)) => {}
            _ => out.push(Violation::Malformed {
                detail: format!("probe {label:?} delivered a foreign measurement shape"),
            }),
        }
    }

    // Same NaN-trapping rationale as `check_measurement`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn check_counter_step(
        &self,
        label: &str,
        a: &crate::perf::ThreadCounters,
        b: &crate::perf::ThreadCounters,
        out: &mut Vec<Violation>,
    ) {
        let fields = [
            ("tsc", a.tsc, b.tsc),
            ("aperf", a.aperf, b.aperf),
            ("mperf", a.mperf, b.mperf),
            ("cycles", a.cycles, b.cycles),
            ("instructions", a.instructions, b.instructions),
        ];
        for (name, from, to) in fields {
            if !(to >= from) {
                out.push(Violation::Counters {
                    label: label.to_string(),
                    detail: format!("{name} ran backwards ({from} -> {to})"),
                });
            }
        }
        // APERF/MPERF only tick in C0 and never faster than the TSC's
        // nominal reference.
        let dt = b.tsc - a.tsc;
        for (name, from, to) in [("aperf", a.aperf, b.aperf), ("mperf", a.mperf, b.mperf)] {
            if !(to - from <= dt * (1.0 + 1e-6) + 1.0) {
                out.push(Violation::Counters {
                    label: label.to_string(),
                    detail: format!("{name} outran the TSC ({} vs {dt})", to - from),
                });
            }
        }
    }

    fn check_events(
        &self,
        spec: &ProbeSpec,
        filter: &EventFilter,
        records: &[Record],
        offset: Ns,
        scenario: &Scenario,
        out: &mut Vec<Violation>,
    ) {
        let label = spec.label.as_str();
        let (from, to) = (offset + spec.window.from, offset + spec.window.to);
        let mut monotone = true;
        for pair in records.windows(2) {
            if pair[1].at_ns < pair[0].at_ns {
                out.push(Violation::Trace {
                    label: label.to_string(),
                    detail: format!(
                        "timestamps run backwards ({} ns then {} ns)",
                        pair[0].at_ns, pair[1].at_ns
                    ),
                });
                monotone = false;
                break;
            }
        }
        for r in records {
            if r.at_ns < from || r.at_ns > to {
                out.push(Violation::Trace {
                    label: label.to_string(),
                    detail: format!("event at {} ns outside window [{from}, {to}]", r.at_ns),
                });
                break;
            }
        }
        if let Some(r) = records.iter().find(|r| !filter.matches(&r.event)) {
            out.push(Violation::Trace {
                label: label.to_string(),
                detail: format!("event {:?} leaked through filter {filter:?}", r.event),
            });
        }
        for r in records {
            match r.event {
                Event::FreqRequested { target_mhz, .. }
                    if !self.table_mhz.contains(&target_mhz) =>
                {
                    out.push(Violation::Trace {
                        label: label.to_string(),
                        detail: format!("request for undefined P-state {target_mhz} MHz"),
                    });
                }
                Event::FreqApplied { mhz, .. } if mhz == 0 || mhz > self.nominal_mhz => {
                    out.push(Violation::Trace {
                        label: label.to_string(),
                        detail: format!("applied {mhz} MHz outside (0, nominal]"),
                    });
                }
                _ => {}
            }
        }
        // Pairing and step coverage only make sense on the one stream
        // that sees everything over the whole scenario.
        if matches!(filter, EventFilter::All) && spec.window.from == 0 && monotone {
            self.check_pairing(label, records, out);
            self.check_step_requests(label, records, offset, scenario, out);
        }
    }

    /// Request→apply pairing on the all-events stream, with the same
    /// per-core queue semantics as [`TransitionStats`]: unmatched
    /// applies are legitimate (the PPT controller and CCX re-derivation
    /// retarget cores without a traced request), but a *matched* apply
    /// must never precede its request. No upper latency bound: a
    /// throttled or coupling-masked request legitimately waits until
    /// conditions change — the soak found a real 103 ms wait within a
    /// 150 ms scenario, so any fixed bound is a flake source.
    fn check_pairing(&self, label: &str, records: &[Record], out: &mut Vec<Violation>) {
        let mut pending: BTreeMap<u32, Vec<(Ns, u32)>> = BTreeMap::new();
        for r in records {
            match r.event {
                Event::FreqRequested { core, target_mhz } => {
                    let queue = pending.entry(core.0).or_default();
                    if queue.iter().all(|&(_, mhz)| mhz != target_mhz) {
                        queue.push((r.at_ns, target_mhz));
                    }
                }
                Event::FreqApplied { core, mhz, .. } => {
                    let Some(queue) = pending.get_mut(&core.0) else { continue };
                    let Some(at) = queue.iter().position(|&(_, target)| target == mhz) else {
                        continue;
                    };
                    let (requested_at, _) = queue[at];
                    queue.drain(..=at);
                    if r.at_ns.checked_sub(requested_at).is_none() {
                        out.push(Violation::Trace {
                            label: label.to_string(),
                            detail: format!(
                                "core {} applied {mhz} MHz at {} ns before its request at \
                                 {requested_at} ns",
                                core.0, r.at_ns
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
    }

    /// Every scheduled `PstateMhz` step must surface as a
    /// `FreqRequested` record for the thread's core at exactly the
    /// step's time — the tracer may not drop or shift requests.
    fn check_step_requests(
        &self,
        label: &str,
        records: &[Record],
        offset: Ns,
        scenario: &Scenario,
        out: &mut Vec<Violation>,
    ) {
        for step in scenario.steps() {
            let Op::PstateMhz { thread, mhz } = step.op else { continue };
            let core = self.topology.core_of(thread);
            let at = offset + step.at;
            let found = records.iter().any(|r| {
                r.at_ns == at
                    && matches!(r.event, Event::FreqRequested { core: c, target_mhz }
                        if c == core && target_mhz == mhz)
            });
            if !found {
                out.push(Violation::Trace {
                    label: label.to_string(),
                    detail: format!(
                        "P-state step ({} MHz on thread {} at {} ns) left no request record",
                        mhz, thread.0, step.at
                    ),
                });
            }
        }
    }

    /// Residency conservation and filter agreement: the `Freq(core)`
    /// stream's histogram must account every nanosecond of the window
    /// (fractions sum to exactly 1 in integer arithmetic) and must be
    /// bit-identical to the histogram built from the all-events stream
    /// filtered client-side.
    fn check_residency(
        &self,
        scenario: &Scenario,
        run: &Run,
        offset: Ns,
        end: Ns,
        out: &mut Vec<Violation>,
    ) {
        let full = |s: &ProbeSpec| s.window.from == 0 && s.window.to == end;
        let core_spec = scenario
            .probes()
            .iter()
            .find(|s| matches!(s.probe, Probe::TraceEvents(EventFilter::Freq(_))) && full(s));
        let all_spec = scenario
            .probes()
            .iter()
            .find(|s| matches!(s.probe, Probe::TraceEvents(EventFilter::All)) && full(s));
        let (Some(core_spec), Some(all_spec)) = (core_spec, all_spec) else { return };
        let Probe::TraceEvents(core_filter @ EventFilter::Freq(core)) = core_spec.probe else {
            return;
        };
        let find = |label: &str| {
            run.measurements.iter().find(|(l, _)| l == label).and_then(|(_, m)| match m {
                Measurement::Events(records) => Some(records),
                _ => None,
            })
        };
        let (Some(core_events), Some(all_events)) = (find(&core_spec.label), find(&all_spec.label))
        else {
            return;
        };
        let (from, to) = (offset, offset + end);
        let mut filtered = FreqResidency::new();
        filtered.observe(core_events, from, to);
        if filtered.total_ns() != end {
            out.push(Violation::Residency {
                label: core_spec.label.clone(),
                detail: format!(
                    "histogram accounts {} of {end} ns (fractions sum to {:.6}, not 1)",
                    filtered.total_ns(),
                    filtered.total_ns() as f64 / end.max(1) as f64
                ),
            });
        }
        let reference_records: Vec<Record> =
            all_events.iter().filter(|r| core_filter.matches(&r.event)).cloned().collect();
        let mut reference = FreqResidency::new();
        reference.observe(&reference_records, from, to);
        if filtered != reference {
            let known = |r: &FreqResidency| r.total_ns() - r.unknown_ns();
            out.push(Violation::Residency {
                label: core_spec.label.clone(),
                detail: format!(
                    "core {}: Freq-filtered stream disagrees with the all-events stream \
                     ({} vs {} known ns)",
                    core.0,
                    known(&filtered),
                    known(&reference)
                ),
            });
        }
    }

    /// Accumulators built from the run must round-trip through their
    /// exact-JSON wire format bit-for-bit — the contract checkpointed
    /// sweeps stand on.
    fn check_snapshots(&self, scenario: &Scenario, run: &Run, out: &mut Vec<Violation>) {
        fn roundtrip<S: Snapshot + PartialEq>(x: &S, what: &'static str, out: &mut Vec<Violation>) {
            let text = x.to_json_text();
            match S::from_json_text(&text) {
                Ok(back) if back == *x && back.to_json_text() == text => {}
                _ => out.push(Violation::Snapshot { what }),
            }
        }
        let mut stats = OnlineStats::new();
        stats.push(run.final_ac_w);
        for (_, m) in &run.measurements {
            match m {
                Measurement::Watts(w) => stats.push(*w),
                Measurement::Ghz(g) => stats.push(*g),
                Measurement::Joules(j) => stats.push(*j),
                _ => {}
            }
        }
        roundtrip(&stats, "OnlineStats", out);
        let end = scenario.end();
        let full_all = scenario.probes().iter().find(|s| {
            matches!(s.probe, Probe::TraceEvents(EventFilter::All))
                && s.window.from == 0
                && s.window.to == end
        });
        if let Some(spec) = full_all {
            if let Some(Measurement::Events(records)) =
                run.measurements.iter().find(|(l, _)| *l == spec.label).map(|(_, m)| m)
            {
                let mut transitions = TransitionStats::new();
                transitions.observe(records);
                roundtrip(&transitions, "TransitionStats", out);
                let mut residency = FreqResidency::new();
                let offset = run.end_ns - end;
                residency.observe(records, offset, offset + end);
                roundtrip(&residency, "FreqResidency", out);
            }
        }
    }
}

/// Two reads of one socket's package-energy MSR inside one 1 ms
/// publication period must agree: the counter publishes only at period
/// boundaries (§VII). A window's period counts from machine boot, so the
/// read times include the run's `offset`.
fn check_energy_reads(scenario: &Scenario, run: &Run, offset: Ns, out: &mut Vec<Violation>) {
    let mut first: BTreeMap<(SocketId, Ns), (&str, u64)> = BTreeMap::new();
    for (spec, (label, m)) in scenario.probes().iter().zip(&run.measurements) {
        let (Probe::PkgEnergyMsr(socket), Measurement::Raw(counts)) = (spec.probe, m) else {
            continue;
        };
        let period = (offset + spec.window.from) / UPDATE_PERIOD_NS;
        let (earlier, was) = *first.entry((socket, period)).or_insert((label, *counts));
        if was != *counts {
            out.push(Violation::Counters {
                label: label.clone(),
                detail: format!(
                    "socket {} energy read {counts} counts, {earlier:?} read {was} in the same \
                     1 ms publication period",
                    socket.0
                ),
            });
        }
    }
}

/// Flags a sampled window whose measurement holds other than one sample
/// per obligation its scenario declares: the engine dropped or doubled a
/// draw or snapshot.
fn check_sample_count(
    label: &str,
    what: &str,
    held: usize,
    expected: u64,
    out: &mut Vec<Violation>,
) {
    if held as u64 != expected {
        out.push(Violation::Malformed {
            detail: format!("probe {label:?} holds {held} {what}, its window takes {expected}"),
        });
    }
}

/// Convenience: derive the checker from the case's own config and audit
/// its run.
pub fn check_case(case: &Case, run: &Run) -> Vec<Violation> {
    Invariants::for_config(&case.config).check(&case.scenario, run)
}

/// Whether [`Session`](crate::Session) runs `case` on a machine that
/// keeps RAPL accounting: only a case whose scenario reads a RAPL counter
/// does. The differential soak compares the other cases' session runs
/// with direct [`System::run_scenario`](crate::System::run_scenario)
/// runs, which keep it.
pub fn keeps_rapl_accounting(case: &Case) -> bool {
    case.scenario.reads_rapl()
}

/// Whether [`Session`](crate::Session) runs `case` on a machine that
/// keeps performance counters: only a case whose scenario reads one
/// ([`Probe::CounterDelta`] or [`Probe::CounterSeries`]) does, and it
/// keeps those of the threads its probes read only. The differential
/// soak compares every case's session run with a direct
/// [`System::run_scenario`](crate::System::run_scenario) run, which keeps
/// every thread's counters.
pub fn keeps_counters(case: &Case) -> bool {
    !case.scenario.counter_threads().is_empty()
}

/// Whether `case`'s scenario reads one socket's package-energy MSR twice
/// inside one 1 ms publication period, so that [`Invariants::check`]
/// compares the two reads. A case runs on a freshly booted machine, so
/// its periods count from the scenario's start.
pub fn reads_energy_twice_per_period(case: &Case) -> bool {
    let mut reads = BTreeSet::new();
    case.scenario.probes().iter().any(|spec| match spec.probe {
        Probe::PkgEnergyMsr(socket) => !reads.insert((socket, spec.window.from / UPDATE_PERIOD_NS)),
        _ => false,
    })
}

/// Whether [`Session`](crate::Session) trims `case`'s AC trace behind a
/// window that read it: its scenario closes a window reading the trace
/// ([`Probe::AcTrueMeanW`], [`Probe::AcMeteredW`] or
/// [`Probe::MeterSamples`]) before its end, so the run goes on without
/// the segments behind it. The differential soak compares those runs
/// with direct [`System::run_scenario`](crate::System::run_scenario)
/// runs, which keep the whole trace.
pub fn trims_ac_trace(case: &Case) -> bool {
    let end = case.scenario.end();
    case.scenario.probes().iter().any(|spec| spec.probe.reads_ac_trace() && spec.window.to < end)
}

/// Whether `case`'s scenario stores a run of like actions as one entry
/// of two or more steps, as the all-thread ticks of about one case in
/// eight do. Both the session and a direct run apply the entry as one,
/// looping over its threads; the `zen2-sim` proptest
/// `stored_runs_apply_like_their_expanded_steps` compares that with its
/// steps applied one at a time.
pub fn stores_runs(case: &Case) -> bool {
    case.scenario.stores_runs()
}

/// Whether `case`'s scenario holds a sampled window, a
/// [`Probe::WakeupSamples`] or [`Probe::CounterSeries`] one, whose
/// samples [`Invariants::check`] counts against the draws or snapshots
/// its window takes. The engine queues each window's next draw or
/// snapshot only when it serves the one before, so a dropped or doubled
/// one shows in the count.
pub fn samples_windows(case: &Case) -> bool {
    case.scenario
        .probes()
        .iter()
        .any(|spec| matches!(spec.probe, Probe::WakeupSamples { .. } | Probe::CounterSeries { .. }))
}

/// Whether the PPT loop moved a cap during `run`: its [`EV_ALL`] trace
/// holds a `CapChanged` event.
pub fn throttled(run: &Run) -> bool {
    matches!(
        run.get(EV_ALL),
        Measurement::Events(records)
            if records.iter().any(|r| matches!(r.event, Event::CapChanged { .. }))
    )
}

// ---- deliberate faults -----------------------------------------------------

/// A deliberate, seeded defect for checker self-validation and the
/// `torture` bin's reproducer drill: each fault trips exactly its own
/// invariant family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Splices a bogus `FreqApplied` into the [`EV_CORE`] stream so the
    /// per-core residency no longer agrees with the all-events stream.
    Residency,
    /// Appends two out-of-order package-sleep records to the [`EV_ALL`]
    /// stream so its timestamps run backwards.
    Trace,
    /// Replaces the run's closing AC power with a megawatt.
    Power,
}

impl Fault {
    /// Parses a `--inject-fault` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "residency" => Some(Self::Residency),
            "trace" => Some(Self::Trace),
            "power" => Some(Self::Power),
            _ => None,
        }
    }

    /// The [`Violation::kind`] this fault must trip — and the only one.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Residency => "residency",
            Self::Trace => "trace",
            Self::Power => "power",
        }
    }
}

/// Tampers with a run so it violates exactly one invariant family
/// (see [`Fault`]). The case provides the probe layout the tampering
/// targets; a run without the targeted probe is left unchanged.
pub fn inject_fault(case: &Case, run: &mut Run, fault: Fault) {
    let end = case.scenario.end();
    let end_ns = run.end_ns;
    fn find<'a>(run: &'a mut Run, label: &str) -> Option<&'a mut Measurement> {
        run.measurements.iter_mut().find(|(l, _)| l == label).map(|(_, m)| m)
    }
    match fault {
        Fault::Power => run.final_ac_w = 1.0e6,
        Fault::Trace => {
            if let Some(Measurement::Events(records)) = find(run, EV_ALL) {
                let socket = SocketId(0);
                records.push(Record {
                    at_ns: end_ns,
                    event: Event::PackageSleep { socket, asleep: true },
                });
                records.push(Record {
                    at_ns: end_ns - 1,
                    event: Event::PackageSleep { socket, asleep: false },
                });
            }
        }
        Fault::Residency => {
            let core = case.scenario.probes().iter().find_map(|s| match s.probe {
                Probe::TraceEvents(EventFilter::Freq(core)) => Some(core),
                _ => None,
            });
            let Some(core) = core else { return };
            if let Some(Measurement::Events(records)) = find(run, EV_CORE) {
                // Mid-window, at a timestamp no SMU event lands on, so
                // the splice stays monotone and credits real time to a
                // frequency the machine never ran at.
                let at_ns = end_ns - end / 2 - 7;
                let idx = records.partition_point(|r| r.at_ns <= at_ns);
                records.insert(
                    idx,
                    Record { at_ns, event: Event::FreqApplied { core, mhz: 1, fast_path: false } },
                );
            }
        }
    }
}

// ---- shrinking -------------------------------------------------------------

/// Greedily shrinks a failing scenario to a minimal one: repeatedly
/// drops steps and probes (and the explicit `run_until` minimum) while
/// `still_fails` keeps returning `true`, to a fixpoint. Deterministic;
/// the vendored proptest shim cannot shrink, so both the proptest suite
/// and the `torture` bin reduce reproducers through this.
pub fn shrink_scenario(
    scenario: &Scenario,
    still_fails: &mut dyn FnMut(&Scenario) -> bool,
) -> Scenario {
    let mut steps: Vec<Step> = scenario.steps().collect();
    let mut probes: Vec<ProbeSpec> = scenario.probes().to_vec();
    let mut run_until = scenario.run_until_ns();
    loop {
        let mut changed = false;
        let mut i = steps.len();
        while i > 0 {
            i -= 1;
            let mut candidate = steps.clone();
            candidate.remove(i);
            if still_fails(&rebuild(&candidate, &probes, run_until)) {
                steps = candidate;
                changed = true;
            }
        }
        let mut i = probes.len();
        while i > 0 {
            i -= 1;
            let mut candidate = probes.clone();
            candidate.remove(i);
            if still_fails(&rebuild(&steps, &candidate, run_until)) {
                probes = candidate;
                changed = true;
            }
        }
        if run_until > 0 && still_fails(&rebuild(&steps, &probes, 0)) {
            run_until = 0;
            changed = true;
        }
        if !changed {
            break;
        }
    }
    rebuild(&steps, &probes, run_until)
}

/// Reassembles a scenario from parts through the public builder — the
/// shrinker's constructor, also usable to replay a rendered reproducer.
pub fn rebuild(steps: &[Step], probes: &[ProbeSpec], run_until: Ns) -> Scenario {
    let mut sc = Scenario::new();
    for s in steps {
        let at = sc.at(s.at);
        match s.op {
            Op::Workload { thread, class, weight } => {
                at.workload(thread, class, weight);
            }
            Op::Idle { thread } => {
                at.idle(thread);
            }
            Op::PstateMhz { thread, mhz } => {
                at.pstate(thread, mhz);
            }
            Op::CstateEnabled { thread, level, enabled } => {
                at.cstate(thread, level, enabled);
            }
            Op::Online { thread, online } => {
                at.online(thread, online);
            }
            Op::Preheat => {
                at.preheat();
            }
            Op::Tracing(enabled) => {
                at.tracing(enabled);
            }
        }
    }
    for p in probes {
        sc.probe(p.label.clone(), p.probe, p.window);
    }
    if run_until > 0 {
        sc.run_until(run_until);
    }
    sc
}

/// Renders a self-contained reproducer: the two numbers that regenerate
/// the case, the machine it ran on, the violations, and the shrunk
/// minimal scenario.
pub fn render_reproducer(
    root_seed: u64,
    index: u64,
    case: &Case,
    violations: &[Violation],
    shrunk: &Scenario,
) -> String {
    use fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "torture reproducer");
    let _ = writeln!(out, "==================");
    let _ = writeln!(out, "root seed : {root_seed}");
    let _ = writeln!(
        out,
        "case index: {index}  (regenerate: torture::generate_case({root_seed}, {index}))"
    );
    let _ = writeln!(out, "case seed : {}", case.seed);
    let t = &case.config.topology;
    let _ = writeln!(
        out,
        "machine   : {} threads / {} cores / {} sockets, ccx_coupling={}, global_package_c6={}",
        t.num_threads(),
        t.num_cores(),
        t.num_sockets(),
        case.config.ccx_coupling,
        case.config.global_package_c6,
    );
    let _ = writeln!(out, "violations:");
    for v in violations {
        let _ = writeln!(out, "  - {v}");
    }
    let _ = writeln!(
        out,
        "shrunk scenario ({} steps, {} probes, run_until {} ns):",
        shrunk.steps().len(),
        shrunk.probes().len(),
        shrunk.run_until_ns(),
    );
    for s in shrunk.steps() {
        let _ = writeln!(out, "  step  at {:>12} ns: {:?}", s.at, s.op);
    }
    for p in shrunk.probes() {
        let _ = writeln!(
            out,
            "  probe {:?}: {:?} over [{}, {}] ns",
            p.label, p.probe, p.window.from, p.window.to
        );
    }
    out
}

// ---- invalid proposals -----------------------------------------------------

/// Number of distinct invalid timelines [`invalid_proposal`] can build —
/// one per [`ScenarioError`] variant the validator names.
pub const INVALID_PROPOSALS: usize = 15;

/// Mutates a *valid* scenario into one the validator must reject,
/// returning the proposal and the name of the [`ScenarioError`] variant
/// it must be rejected with. `kind` selects one of
/// [`INVALID_PROPOSALS`] mutations; the mutation only ever targets
/// threads the base scenario leaves untouched, so the expected error —
/// and no other — fires regardless of the base timeline.
pub fn invalid_proposal(cfg: &SimConfig, base: &Scenario, kind: usize) -> (Scenario, &'static str) {
    let num_threads = cfg.topology.num_threads() as u32;
    let num_cores = cfg.topology.num_cores() as u32;
    let num_sockets = cfg.topology.num_sockets() as u32;
    // A thread no base step touches: mutations on it cannot interact
    // with the base schedule's hotplug state.
    let free = (0..num_threads)
        .find(|&t| base.steps().all(|s| s.op.target() != Some(ThreadId(t))))
        .unwrap_or(0);
    let free = ThreadId(free);
    let mut sc = base.clone();
    let name = match kind {
        0 => {
            sc.at(0).idle(ThreadId(num_threads));
            "ThreadOutOfRange"
        }
        1 => {
            sc.probe("bad-core", Probe::EffectiveGhz(CoreId(num_cores)), Window::at(0));
            "CoreOutOfRange"
        }
        2 => {
            sc.probe("bad-socket", Probe::PkgTrueW(SocketId(num_sockets)), Window::at(0));
            "SocketOutOfRange"
        }
        3 => {
            sc.at(0).pstate(free, 123_456);
            "UndefinedPstate"
        }
        4 => {
            sc.at(0).cstate(free, 7, false);
            "UndefinedCstate"
        }
        5 => {
            sc.at(1).online(free, false);
            sc.at(2).workload(free, KernelClass::BusyWait, OperandWeight::HALF);
            "ActionOnOfflineThread"
        }
        6 => {
            let label =
                sc.probes().first().map(|p| p.label.clone()).unwrap_or_else(|| "dup".to_string());
            sc.probe(label.clone(), Probe::AcPowerW, Window::at(0));
            if sc.probes().len() == 1 {
                sc.probe(label, Probe::AcPowerW, Window::at(0));
            }
            "DuplicateLabel"
        }
        7 => {
            sc.at(0).workload(free, KernelClass::BusyWait, OperandWeight::HALF);
            let caller = ThreadId(if free.0 == 0 { 1 } else { 0 });
            sc.probe(
                "busy-callee",
                Probe::WakeupSamples { caller, callee: free, count: 1, gap: MILLISECOND / 2 },
                Window::span(MILLISECOND, 2 * MILLISECOND),
            );
            "WakeupCalleeNotSleeping"
        }
        8 => {
            sc.probe("backwards", Probe::AcTrueMeanW, Window { from: 2, to: 1 });
            "NegativeWindow"
        }
        9 => {
            sc.probe(
                "overfull",
                Probe::WakeupSamples {
                    caller: ThreadId(0),
                    callee: free,
                    count: 10,
                    gap: MILLISECOND,
                },
                Window::span(0, 5 * MILLISECOND),
            );
            "WindowOutOfRange"
        }
        10 => {
            sc.probe("span-as-instant", Probe::AcTrueMeanW, Window::at(0));
            "WindowShapeMismatch"
        }
        11 => {
            sc.probe(
                "zero-every",
                Probe::CounterSeries { thread: free, every: 0 },
                Window::span(0, MILLISECOND),
            );
            "ZeroInterval"
        }
        12 => {
            sc.probe(
                "firehose",
                Probe::CounterSeries { thread: free, every: 1 },
                Window::span(0, 100 * MILLISECOND),
            );
            "SamplingPlanTooLarge"
        }
        13 => {
            sc.run_until(crate::probe::MAX_WINDOW_NS + 1);
            "ScenarioTooLong"
        }
        _ => {
            sc.probe("starved-meter", Probe::AcMeteredW, Window::span(0, 10 * MILLISECOND));
            "MeterWindowTooShort"
        }
    };
    (sc, name)
}

/// The name of a [`ScenarioError`]'s variant, for matching rejections
/// against [`invalid_proposal`] expectations.
pub fn error_name(e: &ScenarioError) -> &'static str {
    match e {
        ScenarioError::ThreadOutOfRange { .. } => "ThreadOutOfRange",
        ScenarioError::CoreOutOfRange { .. } => "CoreOutOfRange",
        ScenarioError::SocketOutOfRange { .. } => "SocketOutOfRange",
        ScenarioError::UndefinedPstate { .. } => "UndefinedPstate",
        ScenarioError::UndefinedCstate { .. } => "UndefinedCstate",
        ScenarioError::ActionOnOfflineThread { .. } => "ActionOnOfflineThread",
        ScenarioError::DuplicateLabel { .. } => "DuplicateLabel",
        ScenarioError::WakeupCalleeNotSleeping { .. } => "WakeupCalleeNotSleeping",
        ScenarioError::NegativeWindow { .. } => "NegativeWindow",
        ScenarioError::WindowOutOfRange { .. } => "WindowOutOfRange",
        ScenarioError::WindowShapeMismatch { .. } => "WindowShapeMismatch",
        ScenarioError::ZeroInterval { .. } => "ZeroInterval",
        ScenarioError::SamplingPlanTooLarge { .. } => "SamplingPlanTooLarge",
        ScenarioError::ScenarioTooLong { .. } => "ScenarioTooLong",
        ScenarioError::MeterWindowTooShort { .. } => "MeterWindowTooShort",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;

    fn run_case(case: &Case) -> Run {
        let mut sys = System::new(case.config.clone(), case.seed);
        sys.run_scenario(&case.scenario).expect("generated scenarios validate")
    }

    #[test]
    fn generated_cases_validate_and_pass_every_invariant() {
        for index in 0..12 {
            let case = generate_case(0xF00D, index);
            case.scenario.validate(&case.config).expect("generator proposes valid timelines");
            let run = run_case(&case);
            let violations = check_case(&case, &run);
            assert!(
                violations.is_empty(),
                "case {index}: {:?}",
                violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_case(7, 3), generate_case(7, 3));
        assert_ne!(generate_case(7, 3), generate_case(7, 4));
    }

    #[test]
    fn every_generated_case_carries_the_boundary_probes() {
        let case = generate_case(11, 0);
        let end = case.scenario.end();
        let probes = case.scenario.probes();
        assert!(probes.iter().any(|p| p.label == EV_ALL && p.window == Window::span(0, end)));
        assert!(probes.iter().any(|p| p.label == EV_CORE && p.window == Window::span(0, end)));
        assert!(probes.iter().any(|p| p.window == Window::at(end)), "instant probe at end");
        assert!(probes.iter().any(|p| p.window == Window::at(0)), "instant probe at start");
    }

    #[test]
    fn every_invalid_proposal_is_rejected_with_its_named_error() {
        let case = generate_case(0xBAD, 2);
        for kind in 0..INVALID_PROPOSALS {
            let (proposal, expected) = invalid_proposal(&case.config, &case.scenario, kind);
            let err = proposal
                .validate(&case.config)
                .expect_err(&format!("proposal {kind} ({expected}) must be rejected"));
            assert_eq!(error_name(&err), expected, "proposal {kind}: got {err}");
        }
    }

    #[test]
    fn residency_fault_trips_exactly_the_residency_invariant() {
        let case = generate_case(1, 0);
        let mut run = run_case(&case);
        inject_fault(&case, &mut run, Fault::Residency);
        let violations = check_case(&case, &run);
        assert!(!violations.is_empty(), "fault must trip");
        assert!(
            violations.iter().all(|v| v.kind() == "residency"),
            "only residency may trip: {violations:?}"
        );
    }

    #[test]
    fn trace_fault_trips_exactly_the_trace_invariant() {
        let case = generate_case(1, 1);
        let mut run = run_case(&case);
        inject_fault(&case, &mut run, Fault::Trace);
        let violations = check_case(&case, &run);
        assert!(!violations.is_empty(), "fault must trip");
        assert!(
            violations.iter().all(|v| v.kind() == "trace"),
            "only trace may trip: {violations:?}"
        );
    }

    #[test]
    fn power_fault_trips_exactly_the_power_invariant() {
        let case = generate_case(1, 2);
        let mut run = run_case(&case);
        inject_fault(&case, &mut run, Fault::Power);
        let violations = check_case(&case, &run);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].kind(), "power");
        assert!(matches!(&violations[0], Violation::Power { label, .. } if label == "final_ac_w"));
    }

    #[test]
    fn a_dropped_or_doubled_sample_trips_the_malformed_invariant() {
        // Tamper the first generated cases' sampled windows until both
        // kinds have been dropped and doubled.
        let (mut draws, mut snapshots) = (0, 0);
        for case in (0..64).map(|index| generate_case(1, index)).filter(samples_windows) {
            let run = run_case(&case);
            assert_eq!(check_case(&case, &run), []);
            for (i, (_, m)) in run.measurements.iter().enumerate() {
                for doubled in [false, true] {
                    let mut run = run.clone();
                    match &mut run.measurements[i].1 {
                        Measurement::DurationsNs(samples) if doubled => samples.push(samples[0]),
                        Measurement::DurationsNs(samples) => drop(samples.pop()),
                        Measurement::CounterSeries(snaps) if doubled => {
                            snaps.push(snaps[snaps.len() - 1])
                        }
                        Measurement::CounterSeries(snaps) => drop(snaps.pop()),
                        _ => continue,
                    }
                    let violations = check_case(&case, &run);
                    assert_eq!(violations.len(), 1, "{violations:?}");
                    assert_eq!(violations[0].kind(), "malformed");
                    match m {
                        Measurement::DurationsNs(_) => draws += 1,
                        _ => snapshots += 1,
                    }
                }
            }
            if draws > 0 && snapshots > 0 {
                return;
            }
        }
        panic!("64 cases tampered {draws} wakeup and {snapshots} series windows");
    }

    #[test]
    fn shrinker_reduces_a_power_fault_to_the_empty_scenario() {
        let case = generate_case(3, 0);
        let fails = |sc: &Scenario| {
            let candidate = Case::new("shrink", case.config.clone(), sc.clone(), case.seed);
            if candidate.scenario.validate(&candidate.config).is_err() {
                return false;
            }
            let mut run = run_case(&candidate);
            inject_fault(&candidate, &mut run, Fault::Power);
            check_case(&candidate, &run).iter().any(|v| v.kind() == "power")
        };
        let mut fails = fails;
        let shrunk = shrink_scenario(&case.scenario, &mut fails);
        assert_eq!(shrunk.steps().len(), 0, "a run-level fault needs no steps: {shrunk:?}");
        assert!(shrunk.probes().is_empty(), "a run-level fault needs no probes");
        assert_eq!(shrunk.run_until_ns(), 0);
    }

    #[test]
    fn rebuild_round_trips_a_generated_scenario() {
        let case = generate_case(9, 4);
        let sc = &case.scenario;
        let back = rebuild(&sc.steps().collect::<Vec<_>>(), sc.probes(), sc.run_until_ns());
        assert_eq!(&back, sc);
    }
}
