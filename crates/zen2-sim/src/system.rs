//! The simulated machine: a deterministic, event-driven EPYC 7502 system.
//!
//! A step costs only what changed and what a case can read. A tick of
//! scheduling actions draws each action's noise uniforms as it comes,
//! then settles each touched core once and re-evaluates clocks and power
//! once, and resolves no DVFS (it moves no request and no cap); a P-state
//! request resolves only its own core and re-evaluates nothing, so a tick
//! that interleaves requests with scheduling actions still resolves clocks
//! and power once. Clocks re-resolve only in the CCXs
//! whose applied frequencies or core activity moved. A segment reuses the
//! thermal α of the last segment length, so a run of 1 ms slots computes
//! `exp` once, and RAPL publication copies no counter; a RAPL sync writes
//! each energy counter once per kept domain. A machine integrates the
//! RAPL energy of only the core domains it keeps (see
//! `System::keep_rapl_cores`), and one that keeps no RAPL accounting
//! (see `System::drop_rapl_accounting`) integrates no RAPL energy, skips
//! the estimates in thermal-only steps, and lets its PPT loop decide from
//! a bound on each package estimate. A tick applies a stored run of like
//! `Workload` or `Idle` actions in one loop over its threads. A segment advances
//! the performance counters of only the threads the machine keeps (see
//! `System::keep_counters`), so one that keeps none advances none.
//!
//! The PPT loop proves a package's hold once per machine state, not once
//! per 1 ms slot: the first slot after a full evaluation bounds the
//! estimate over every die temperature the package can reach before the
//! next one (`System::prove_hold`), and while that proof stands a slot
//! only checks that its die temperature lies in the proven range. The
//! slot boundaries themselves are found by adding one period to the last.
//! On a machine that keeps no performance counters, the slots that every
//! package's standing proof decides run in one loop that keeps each
//! package's die temperature and true power, and the DC, AC and AC
//! energy, in locals and writes the machine back once
//! (`System::run_held_slots`), with the per-slot expressions in their
//! order, so every result stays bit-identical. On a machine that keeps
//! RAPL accounting the loop also records each slot's estimate terms, and
//! the span's RAPL energy integrates after it, core by core and period
//! by period, with the same expressions in the same order.
//!
//! The machine records its AC power as a piecewise-constant trace, one
//! segment per change. A hand-driven machine keeps all of it, so
//! `System::trace_mean_w` can read any past window; a session case drops
//! the segments behind its open windows as it runs (see
//! `System::trim_ac_trace`), so its trace stays about one window long.

use crate::ccx;
use crate::config::SimConfig;
use crate::controller::PptController;
use crate::cstate::ThreadState;
use crate::obs;
use crate::os::IdleConfig;
use crate::perf::ThreadCounters;
use crate::power::{self, MachineState, PowerBreakdown, PowerEval};
use crate::scenario::{nth, Op};
use crate::smu::{PendingTransition, Smu};
use crate::time::{next_boundary, to_secs, Ns, MILLISECOND};
use crate::trace::{Event, Tracer};
use crate::wakeup;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use zen2_isa::{KernelClass, OperandWeight, SmtMode, WorkloadSet};
use zen2_mem::ClockPlan;
use zen2_msr::{address, MsrFile};
use zen2_power::MeterSample;
use zen2_rapl::accounting::UPDATE_PERIOD_NS;
use zen2_rapl::RaplAccounting;
use zen2_topology::{CoreId, SocketId, ThreadId, Topology};

/// Maximum segment length, bounding thermal-integration error.
const MAX_SEGMENT_NS: Ns = 100 * MILLISECOND;

/// What the current tick's scheduling actions left one core to settle at
/// the tick's flush.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Touch {
    /// No action of the tick touched it.
    None,
    /// Its threads changed: its IPC is refreshed.
    Threads,
    /// Its threads changed and it drew estimate noise: the uniforms of its
    /// last draw, which the flush transforms.
    Noise { u1: f64, u2: f64 },
}

/// What one CCX's clocks resolve from: each core's applied frequency and
/// whether it has an active thread.
type CcxInputs = ([u32; ccx::CORES_PER_CCX], [bool; ccx::CORES_PER_CCX]);

/// What the PPT loop knows of one package's step between two full
/// evaluations.
#[derive(Debug, Clone, Copy, PartialEq)]
enum HoldProof {
    /// No slot has tried to prove the hold since the last full evaluation.
    Unproven,
    /// The step holds at every die temperature in `[lo_c, hi_c]`.
    Holds { lo_c: f64, hi_c: f64 },
    /// The step could not be proven to hold: every slot decides on its
    /// own until the next full evaluation or preheat.
    Failed,
}

/// How the PPT loop decided its package-slots (one package at one 1 ms
/// slot) since boot, how many slots the held loop advanced and how many
/// full power evaluations ran, as plain counts the session reports when a
/// case closes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SlotCounts {
    /// Package-slots a standing hold proof decided.
    pub(crate) proof_slots: u64,
    /// Hold proofs made.
    pub(crate) proofs: u64,
    /// Attempts at a hold proof that failed.
    pub(crate) proofs_failed: u64,
    /// Package-slots decided on their own: no proof stood, or its range
    /// missed the die temperature.
    pub(crate) fallback_slots: u64,
    /// Exact estimate refreshes those package-slots made.
    pub(crate) exact_refreshes: u64,
    /// Slots (all packages at one 1 ms slot) the held loop advanced.
    pub(crate) held_loop_slots: u64,
    /// Full power evaluations, the two at boot included.
    pub(crate) full_evaluations: u64,
}

impl SlotCounts {
    /// Each count under its recorder counter name.
    pub(crate) fn named(&self) -> [(&'static str, u64); 7] {
        [
            (obs::CTR_PPT_PROOF_SLOTS, self.proof_slots),
            (obs::CTR_PPT_PROOFS, self.proofs),
            (obs::CTR_PPT_PROOFS_FAILED, self.proofs_failed),
            (obs::CTR_PPT_FALLBACK_SLOTS, self.fallback_slots),
            (obs::CTR_PPT_EXACT_REFRESHES, self.exact_refreshes),
            (obs::CTR_PPT_HELD_LOOP_SLOTS, self.held_loop_slots),
            (obs::CTR_POWER_FULL_EVALUATIONS, self.full_evaluations),
        ]
    }
}

/// Most packages whose state the held loop keeps in locals; every slot
/// of a machine with more runs through the per-slot loop.
const HELD_PKGS: usize = 2;

/// What the held loop advances in locals, slot by slot, and writes back
/// into the machine once (see [`System::run_held_slots`]).
#[derive(Debug, Clone, Copy)]
struct Held {
    /// The end of the last slot advanced.
    now: Ns,
    /// Slots advanced.
    slots: u64,
    /// Each package's die temperature.
    die_c: [f64; HELD_PKGS],
    /// Each package's true power.
    pkg_w: [f64; HELD_PKGS],
    dc_w: f64,
    ac_w: f64,
    /// AC energy since boot.
    ac_energy_j: f64,
}

/// Most slots a held span of a machine that keeps RAPL accounting
/// advances: the length of its per-slot buffers ([`SpanTerms`]).
const SPAN_SLOTS: usize = 128;

/// What a held span of a machine that keeps RAPL accounting records of
/// each slot, per package: the estimate's die-temperature term and
/// idle-core term at the slot's die temperature, from which its RAPL
/// energy integrates after the span (see [`System::publish_held_span`]).
struct SpanTerms {
    temperature_w: [[f64; SPAN_SLOTS]; HELD_PKGS],
    idle_w: [[f64; SPAN_SLOTS]; HELD_PKGS],
}

/// The first hardware thread of package `pkg`, through which the MSR
/// file's one counter per package is written and read.
pub(crate) fn package_lead(topo: &Topology, pkg: usize) -> ThreadId {
    ThreadId((pkg * topo.cores_per_socket() * topo.threads_per_core()) as u32)
}

/// The simulated system.
#[derive(Clone)]
pub struct System {
    cfg: SimConfig,
    kernels: WorkloadSet,
    now: Ns,
    seed: u64,
    rng: ChaCha8Rng,
    msrs: MsrFile,

    // Per-thread state.
    thread_states: Vec<ThreadState>,
    workloads: Vec<Option<(KernelClass, OperandWeight)>>,
    /// Instructions per cycle under the core's SMT occupancy, refreshed
    /// at the flush of every tick whose actions touched the core.
    thread_ipc: Vec<f64>,
    pstate_req_mhz: Vec<u32>,
    idle_cfg: Vec<IdleConfig>,

    // The tick being applied.
    /// Per core, what the tick left to settle.
    tick_touch: Vec<Touch>,
    /// The cores the tick touched, each once.
    tick_cores: Vec<usize>,

    // Per-core state.
    smu: Smu,
    /// The P-state table's frequencies, decoded once at boot.
    pstate_mhz: Vec<u32>,
    core_eff_ghz: Vec<f64>,
    core_voltage: Vec<f64>,
    est_noise_w: Vec<f64>,
    /// Per CCX, the applied frequencies and core activity its clocks,
    /// voltages and `PSTATE_STAT` were last resolved from; `None` until
    /// the first resolution.
    ccx_resolved: Vec<Option<CcxInputs>>,

    // Per-package state.
    controllers: Vec<PptController>,
    /// What each package's PPT step is proven to do until the next full
    /// evaluation.
    hold_proofs: Vec<HoldProof>,
    /// Whether slots may decide from a hold proof; off only in tests that
    /// compare against machines deciding every slot on its own.
    #[cfg(test)]
    hold_proofs_enabled: bool,
    slot_counts: SlotCounts,
    die_temp_c: Vec<f64>,
    /// The last integrated segment's length and its thermal α, reused
    /// while segments keep that length.
    thermal_alpha: (Ns, f64),

    // Accounting.
    /// The performance counters of the threads the machine keeps, in
    /// thread order: every thread from boot, fewer after
    /// [`keep_counters`](Self::keep_counters).
    counters: Vec<(ThreadId, ThreadCounters)>,
    /// RAPL energy integration and publication; `None` on a machine whose
    /// scenario reads no RAPL counter (see
    /// [`drop_rapl_accounting`](Self::drop_rapl_accounting)).
    rapl: Option<RaplAccounting>,
    power: PowerEval,
    breakdown: PowerBreakdown,
    /// Scratch the next evaluation is written into before it is swapped
    /// with `breakdown`.
    next_breakdown: PowerBreakdown,
    ac_energy_j: f64,
    /// Piecewise-constant AC power trace: `(segment start, watts)`, from
    /// boot or, once trimmed (see [`trim_ac_trace`](Self::trim_ac_trace)),
    /// from the first segment a probe can still read.
    trace: Vec<(Ns, f64)>,
    /// The longest the AC trace has been.
    #[cfg(test)]
    trace_high_water: usize,
    /// The most probe windows open at once, and the most mid-window
    /// obligations queued at once, in the scenarios run on this machine.
    #[cfg(test)]
    probe_high_water: (usize, usize),
    /// Event recorder (disabled by default).
    tracer: Tracer,
}

impl System {
    /// Boots the machine: all threads idle in C2, all requests at nominal
    /// frequency, dies at their idle steady-state temperature.
    pub fn new(cfg: SimConfig, seed: u64) -> Self {
        let topo = cfg.topology.clone();
        let num_threads = topo.num_threads();
        let num_cores = topo.num_cores();
        let num_pkgs = topo.num_sockets();
        let pstate_mhz = cfg.pstates.frequencies_mhz();
        let nominal = pstate_mhz[0];

        let vf_points: Vec<(u32, f64)> =
            pstate_mhz.iter().rev().map(|&mhz| (mhz, cfg.voltage_for_mhz(mhz))).collect();
        let smu = Smu::new(cfg.smu.clone(), num_cores, nominal, vf_points);
        let controllers = (0..num_pkgs)
            .map(|_| PptController::new(&cfg.controller, nominal, cfg.min_mhz()))
            .collect();

        // Pushed one by one: collecting the same iterator made a boot about
        // 1 µs (a quarter) slower on a 2-CPU x86-64 host.
        let mut counters = Vec::with_capacity(num_threads);
        for t in 0..num_threads as u32 {
            counters.push((ThreadId(t), ThreadCounters::default()));
        }
        let mut sys = Self {
            msrs: MsrFile::with_pstate_table(&topo, &cfg.pstates),
            kernels: WorkloadSet::paper(),
            now: 0,
            seed,
            rng: ChaCha8Rng::seed_from_u64(seed),
            thread_states: vec![ThreadState::C2; num_threads],
            workloads: vec![None; num_threads],
            thread_ipc: vec![0.0; num_threads],
            pstate_req_mhz: vec![nominal; num_threads],
            idle_cfg: vec![IdleConfig::default(); num_threads],
            tick_touch: vec![Touch::None; num_cores],
            tick_cores: Vec::with_capacity(num_cores),
            smu,
            pstate_mhz,
            core_eff_ghz: vec![nominal as f64 / 1000.0; num_cores],
            core_voltage: vec![cfg.voltage_for_mhz(nominal); num_cores],
            est_noise_w: vec![0.0; num_cores],
            ccx_resolved: vec![None; topo.num_ccxs()],
            controllers,
            hold_proofs: vec![HoldProof::Unproven; num_pkgs],
            #[cfg(test)]
            hold_proofs_enabled: true,
            slot_counts: SlotCounts::default(),
            die_temp_c: vec![cfg.power.thermal.ambient_c; num_pkgs],
            thermal_alpha: (0, cfg.power.thermal.alpha(0.0)),
            counters,
            rapl: Some(RaplAccounting::new(num_cores, num_pkgs)),
            power: PowerEval::new(&topo),
            breakdown: PowerBreakdown::zeroed(&topo),
            next_breakdown: PowerBreakdown::zeroed(&topo),
            ac_energy_j: 0.0,
            trace: Vec::new(),
            #[cfg(test)]
            trace_high_water: 0,
            #[cfg(test)]
            probe_high_water: (0, 0),
            tracer: Tracer::new(),
            cfg,
        };
        sys.reevaluate_power();
        // Idle steady-state temperature.
        for pkg in 0..num_pkgs {
            sys.die_temp_c[pkg] =
                sys.cfg.power.thermal.steady_state_c(sys.breakdown.pkg_true_w[pkg]);
        }
        sys.reevaluate_power();
        sys.trace.clear();
        sys.trace.push((0, sys.breakdown.ac_w));
        sys
    }

    /// Forks a pristine booted machine into an identical one reseeded
    /// with `seed`: the result is indistinguishable from
    /// `System::new(cfg, seed)` but skips the boot cost.
    /// [`Session`](crate::Session) does not fork: it boots every case.
    ///
    /// # Panics
    /// Panics if this machine is not in its boot state — time advanced,
    /// any workload scheduled (scheduling consumes the RNG, which a
    /// reseed would not reproduce), any frequency request / C-state
    /// configuration changed from boot defaults, RAPL accounting dropped
    /// or any core domain's no longer kept, or any thread's performance
    /// counters no longer kept.
    pub fn fork(&self, seed: u64) -> System {
        let nominal = self.cfg.nominal_mhz();
        assert!(
            self.now == 0
                && self.workloads.iter().all(Option::is_none)
                && self.thread_states.iter().all(|&s| s == ThreadState::C2)
                && self.pstate_req_mhz.iter().all(|&mhz| mhz == nominal)
                && self.idle_cfg.iter().all(|c| *c == IdleConfig::default())
                && !self.tracer.is_enabled()
                && self.tracer.records().is_empty()
                && self
                    .rapl
                    .as_ref()
                    .is_some_and(|rapl| rapl.cores().len() == self.cfg.topology.num_cores())
                && self.counters.len() == self.thread_states.len(),
            "fork requires a pristine booted system"
        );
        let mut sys = self.clone();
        sys.seed = seed;
        sys.rng = ChaCha8Rng::seed_from_u64(seed);
        sys
    }

    // ---- accessors -------------------------------------------------------

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> Ns {
        self.now
    }

    /// The seed this machine was booted (or forked) with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configuration the machine was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Instantaneous true AC (wall) power.
    pub fn ac_power_w(&self) -> f64 {
        self.breakdown.ac_w
    }

    /// The latest power evaluation.
    pub fn power_breakdown(&self) -> &PowerBreakdown {
        &self.breakdown
    }

    /// Whether a package is awake (out of PC6).
    pub fn package_awake(&self, socket: SocketId) -> bool {
        self.breakdown.pkg_awake[socket.index()]
    }

    /// Effective (post-coupling) frequency of a core in GHz.
    pub fn effective_core_ghz(&self, core: CoreId) -> f64 {
        self.core_eff_ghz[core.index()]
    }

    /// Current die temperature of a package.
    pub fn die_temp_c(&self, socket: SocketId) -> f64 {
        self.die_temp_c[socket.index()]
    }

    /// Performance-counter snapshot for a thread.
    ///
    /// # Panics
    /// Panics if the machine no longer keeps the thread's counters: a
    /// session case keeps those of the threads its probes read, so any
    /// other read is a simulator bug.
    pub fn counters(&self, thread: ThreadId) -> ThreadCounters {
        match self.counters.binary_search_by_key(&thread, |&(t, _)| t) {
            Ok(i) => self.counters[i].1,
            Err(_) => panic!(
                "performance-counter read on a machine that keeps no performance counters \
                 for thread {}",
                thread.0
            ),
        }
    }

    /// The scheduling state of a thread.
    pub fn thread_state(&self, thread: ThreadId) -> ThreadState {
        self.thread_states[thread.index()]
    }

    /// The live per-thread state in the scenario validator's terms, so
    /// scenarios validate against what this machine actually looks like
    /// rather than boot defaults.
    pub(crate) fn scheduling_snapshot(&self) -> Vec<crate::scenario::VThread> {
        self.thread_states
            .iter()
            .zip(&self.idle_cfg)
            .map(|(&state, idle)| crate::scenario::VThread {
                // Active covers both real workloads and the POLL loop;
                // either way there is no sleep state to wake from.
                has_work: state.is_active(),
                polling: false,
                offline: state == ThreadState::Offline,
                c1_enabled: idle.c1_enabled,
                c2_enabled: idle.c2_enabled,
            })
            .collect()
    }

    /// Mutable access to the machine's RNG, for tests that compare its
    /// stream across machines.
    #[cfg(test)]
    pub(crate) fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }

    /// A package's PPT frequency cap.
    #[cfg(test)]
    pub(crate) fn cap_mhz(&self, socket: SocketId) -> u32 {
        self.controllers[socket.index()].cap_mhz()
    }

    /// The piecewise-constant AC power trace: `(segment start, watts)`.
    #[cfg(test)]
    pub(crate) fn ac_trace(&self) -> &[(Ns, f64)] {
        &self.trace
    }

    /// The longest the AC trace has been since boot, in segments.
    #[cfg(test)]
    pub(crate) fn ac_trace_high_water(&self) -> usize {
        self.trace_high_water
    }

    /// The most probe windows open at once and the most mid-window
    /// obligations queued at once in the scenarios run on this machine.
    #[cfg(test)]
    pub(crate) fn probe_high_water(&self) -> (usize, usize) {
        self.probe_high_water
    }

    /// Records that a scenario run holds `open` windows and `queued`
    /// obligations.
    #[cfg(test)]
    pub(crate) fn note_probe_state(&mut self, open: usize, queued: usize) {
        let (most_open, most_queued) = &mut self.probe_high_water;
        *most_open = (*most_open).max(open);
        *most_queued = (*most_queued).max(queued);
    }

    /// Every core's DVFS target: its queued, pending or applied frequency.
    #[cfg(test)]
    pub(crate) fn dvfs_targets(&self) -> Vec<u32> {
        (0..self.smu.num_cores()).map(|c| self.smu.core(c).target_mhz()).collect()
    }

    /// The interval the PPT step decides from on a machine without RAPL
    /// accounting: it holds the package estimate of the last evaluation.
    #[cfg(test)]
    pub(crate) fn estimate_bounds(&self, socket: SocketId) -> (f64, f64) {
        let pkg = socket.index();
        let die_c = self.power.die_c(pkg);
        self.power.estimate_bounds(&self.cfg, pkg, self.breakdown.pkg_awake[pkg], (die_c, die_c))
    }

    /// How the PPT loop decided its package-slots since boot.
    pub(crate) fn slot_counts(&self) -> SlotCounts {
        self.slot_counts
    }

    /// Makes every slot decide on its own, as a machine without hold
    /// proofs would.
    #[cfg(test)]
    pub(crate) fn disable_hold_proofs(&mut self) {
        self.hold_proofs_enabled = false;
    }

    /// The package estimate the PPT step reads at target `ppt_w`: a point
    /// of the bound, or the exact estimate when `ppt_w` lies inside it.
    #[cfg(test)]
    pub(crate) fn ppt_estimate_w(&mut self, socket: SocketId, ppt_w: f64) -> f64 {
        self.slot_estimate_w(socket.index(), ppt_w)
    }

    /// Stops RAPL accounting for good: segments no longer integrate or
    /// publish energy, thermal-only steps no longer recompute the
    /// estimates, and the PPT loop decides from a bound on each package
    /// estimate, computing it exactly only when a threshold falls inside
    /// the bound. Every other result stays bit-identical; the estimates in
    /// [`power_breakdown`](Self::power_breakdown) go stale, and reading a
    /// RAPL counter panics. [`Session`](crate::Session) drops the
    /// accounting of a case whose scenario reads no RAPL counter.
    pub(crate) fn drop_rapl_accounting(&mut self) {
        self.rapl = None;
    }

    /// Keeps the RAPL energy of the core domains of `cores` and of every
    /// package only, for good: segments no longer integrate or publish
    /// any other core domain, and a RAPL sync writes none. Nothing else
    /// reads them, so every other result stays bit-identical.
    /// [`Session`](crate::Session) keeps the core domains a case's probes
    /// read, none when they read package domains only.
    pub(crate) fn keep_rapl_cores(&mut self, cores: &[usize]) {
        if let Some(rapl) = &mut self.rapl {
            rapl.keep_cores(cores);
        }
    }

    /// How many core domains the machine keeps RAPL energy for.
    #[cfg(test)]
    pub(crate) fn rapl_core_count(&self) -> usize {
        self.rapl.as_ref().map_or(0, |rapl| rapl.cores().len())
    }

    /// Each package domain's published RAPL joules, unquantized.
    #[cfg(test)]
    pub(crate) fn rapl_package_joules(&self) -> Vec<f64> {
        let packages = self.cfg.topology.num_sockets();
        self.rapl.as_ref().map_or(Vec::new(), |rapl| {
            (0..packages).map(|pkg| rapl.package_published_joules(pkg)).collect()
        })
    }

    /// Each core's estimate noise.
    #[cfg(test)]
    pub(crate) fn est_noise_w(&self) -> &[f64] {
        &self.est_noise_w
    }

    /// Keeps the performance counters of `threads` only, for good:
    /// segments no longer advance any other thread's counters, and
    /// reading one panics. Nothing else reads them, so every other result
    /// stays bit-identical. [`Session`](crate::Session) keeps those of the
    /// threads a case's probes read, none for most cases.
    pub(crate) fn keep_counters(&mut self, threads: &[ThreadId]) {
        self.counters.retain(|(t, _)| threads.contains(t));
    }

    /// Enables or disables event tracing (lo2s-style). Enabling records
    /// the current package sleep states as baseline events so later
    /// residency accounting starts from the right state.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
        if enabled {
            for pkg in 0..self.breakdown.pkg_awake.len() {
                self.tracer.record(
                    self.now,
                    Event::PackageSleep {
                        socket: SocketId(pkg as u32),
                        asleep: !self.breakdown.pkg_awake[pkg],
                    },
                );
            }
        }
    }

    /// The recorded event trace.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The recorded event trace, for a session case's trace windows to
    /// take their records from.
    pub(crate) fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    // ---- OS-level controls ------------------------------------------------

    /// Schedules a workload on a hardware thread (pins it to C0).
    pub fn set_workload(&mut self, thread: ThreadId, class: KernelClass, weight: OperandWeight) {
        self.apply_ops([(Op::Workload { thread, class, weight }, 1)]);
    }

    /// Removes the workload: the thread idles into its deepest enabled
    /// C-state.
    pub fn set_idle(&mut self, thread: ThreadId) {
        self.apply_ops([(Op::Idle { thread }, 1)]);
    }

    /// Enables/disables an idle state for one thread (sysfs
    /// `cpuidle/stateN/disable`). Re-settles the thread if it is idle.
    pub fn set_cstate_enabled(&mut self, thread: ThreadId, level: u8, enabled: bool) {
        self.apply_ops([(Op::CstateEnabled { thread, level, enabled }, 1)]);
    }

    /// Hotplugs a thread (sysfs `online`). Offlining parks the thread per
    /// the configured kernel behavior (Section VI-B anomaly); onlining
    /// returns it to the idle path.
    pub fn set_online(&mut self, thread: ThreadId, online: bool) {
        self.apply_ops([(Op::Online { thread, online }, 1)]);
    }

    /// Applies one tick of actions in order, each entry `(op, n)` the `n`
    /// steps of a stored run: `op` and the same action on the `n − 1`
    /// threads after `op`'s. Scheduling actions
    /// (`Workload`, `Idle`, `CstateEnabled`, `Online`) change thread
    /// states and record `ThreadState` events as they come, and `Workload`
    /// and `Idle` draw their estimate-noise uniforms from the machine RNG
    /// at the action. A `Workload` or `Idle` run loops over its threads
    /// with the per-action body; any other run applies step by step. The
    /// tick's flush, after the last of them, settles
    /// each touched core once (the Box–Muller transform of its last draw,
    /// then its IPC), and clocks and power then resolve once. DVFS reads
    /// only frequency requests and caps, which scheduling actions never
    /// move, so they start no transition and nothing re-resolves DVFS.
    ///
    /// A P-state request runs as it comes, without flushing what is
    /// staged: it reads only the threads' requests, its package's cap and
    /// the SMU, which no scheduling action moves, and it re-evaluates
    /// nothing, so the flush after the tick's last action sees what a
    /// flush before the request would have. An in-flight ramp is never
    /// aborted, so every request stays observable. A preheat or tracing
    /// toggle first flushes what is staged, then runs on its own: preheat
    /// steps the dies from the settled package powers, and enabling
    /// tracing records the settled wake states.
    pub(crate) fn apply_ops(&mut self, entries: impl IntoIterator<Item = (Op, u32)>) {
        for (op, n) in entries {
            match op {
                Op::Workload { thread, class, weight } => {
                    for t in thread.0..thread.0 + n {
                        self.schedule_workload(ThreadId(t), class, weight);
                    }
                }
                Op::Idle { thread } => {
                    for t in thread.0..thread.0 + n {
                        self.schedule_idle(ThreadId(t));
                    }
                }
                _ => {
                    for k in 0..n {
                        self.apply_op(nth(op, k));
                    }
                }
            }
        }
        if !self.tick_cores.is_empty() {
            self.flush_tick();
        }
    }

    /// One `Workload` action of a tick.
    fn schedule_workload(&mut self, thread: ThreadId, class: KernelClass, weight: OperandWeight) {
        let t = thread.index();
        assert!(
            self.thread_states[t] != ThreadState::Offline,
            "cannot schedule on an offline thread"
        );
        self.thread_states[t] = ThreadState::Active;
        self.workloads[t] = Some((class, weight));
        self.touch(thread, true);
        self.trace_thread_state(thread);
    }

    /// One `Idle` action of a tick: an offline thread stays offline.
    fn schedule_idle(&mut self, thread: ThreadId) {
        let t = thread.index();
        if self.thread_states[t] == ThreadState::Offline {
            return;
        }
        self.workloads[t] = None;
        self.settle_idle(t);
        self.touch(thread, true);
        self.trace_thread_state(thread);
    }

    /// One action of a tick, a preheat or tracing toggle after flushing
    /// what the tick staged.
    fn apply_op(&mut self, op: Op) {
        if !self.tick_cores.is_empty() && matches!(op, Op::Preheat | Op::Tracing(_)) {
            self.flush_tick();
        }
        match op {
            Op::Workload { thread, class, weight } => self.schedule_workload(thread, class, weight),
            Op::Idle { thread } => self.schedule_idle(thread),
            Op::CstateEnabled { thread, level, enabled } => {
                let t = thread.index();
                match level {
                    1 => self.idle_cfg[t].c1_enabled = enabled,
                    2 => self.idle_cfg[t].c2_enabled = enabled,
                    other => panic!("the test system has C-states 1 and 2, not {other}"),
                }
                let before = self.thread_states[t];
                if !before.is_active() && before != ThreadState::Offline {
                    self.settle_idle(t);
                    if self.thread_states[t] != before {
                        self.trace_thread_state(thread);
                    }
                }
                self.touch(thread, false);
            }
            Op::Online { thread, online } => {
                let t = thread.index();
                if online {
                    if self.thread_states[t] == ThreadState::Offline {
                        self.thread_states[t] = self.idle_cfg[t].deepest_idle_state();
                    }
                } else {
                    self.workloads[t] = None;
                    self.thread_states[t] = ThreadState::Offline;
                }
                self.trace_thread_state(thread);
                self.touch(thread, false);
            }
            Op::PstateMhz { thread, mhz } => {
                let _ = self.set_thread_pstate_mhz(thread, mhz);
            }
            Op::Preheat => self.preheat(),
            Op::Tracing(enabled) => self.set_tracing(enabled),
        }
    }

    /// Marks `thread`'s core for the tick's flush; with `draw_noise`, draws
    /// the uniforms of a fresh estimate-noise sample for it now, so the
    /// RNG stream follows the actions.
    fn touch(&mut self, thread: ThreadId, draw_noise: bool) {
        let core = self.cfg.topology.core_of(thread).index();
        if self.tick_touch[core] == Touch::None {
            self.tick_cores.push(core);
            self.tick_touch[core] = Touch::Threads;
        }
        if draw_noise {
            let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            self.tick_touch[core] = Touch::Noise { u1, u2 };
        }
    }

    /// Settles each core the tick touched, once: its estimate noise from
    /// its last draw (Box–Muller), then its IPC, which depends only on its
    /// own threads. Then clocks and power resolve.
    fn flush_tick(&mut self) {
        let sigma = self.cfg.rapl.noise_sigma_w;
        for i in 0..self.tick_cores.len() {
            let core = self.tick_cores[i];
            if let Touch::Noise { u1, u2 } = self.tick_touch[core] {
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                self.est_noise_w[core] = sigma * z;
            }
            self.tick_touch[core] = Touch::None;
            self.refresh_ipc(core);
        }
        self.tick_cores.clear();
        self.update_clocks_and_power();
    }

    /// Sets the userspace-governor frequency request of one hardware
    /// thread. The core's DVFS request is the maximum over both siblings
    /// — including idle and offline ones (Section V-A). Returns the SMU
    /// transition this triggered, if any.
    ///
    /// Only the thread's core is resolved: every other core's request and
    /// cap are unchanged, so its resolution would start nothing. Nothing
    /// is re-evaluated either: `Smu::request` never changes an applied
    /// frequency, so clocks, voltages, `PSTATE_STAT` and power stay as
    /// the last evaluation left them. It reads no thread state, IPC or
    /// power, so inside a tick it needs nothing the tick has staged (see
    /// `apply_ops`).
    pub fn set_thread_pstate_mhz(
        &mut self,
        thread: ThreadId,
        mhz: u32,
    ) -> Option<PendingTransition> {
        assert!(
            self.cfg.pstates.index_of_frequency(mhz).is_some(),
            "{mhz} MHz is not a defined P-state"
        );
        self.pstate_req_mhz[thread.index()] = mhz;
        self.msrs.poke(
            thread,
            address::PSTATE_CTL,
            self.cfg.pstates.index_of_frequency(mhz).expect("checked above") as u64,
        );
        let core = self.cfg.topology.core_of(thread);
        self.tracer.record(self.now, Event::FreqRequested { core, target_mhz: mhz });
        self.resolve_core(core.index())
    }

    // ---- time advancement --------------------------------------------------

    /// Runs the machine forward by `dt` nanoseconds.
    pub fn run_for_ns(&mut self, dt: Ns) {
        let end = self.now + dt;
        // Thread states cannot change while time runs.
        let controller_active =
            self.cfg.controller.enabled && self.thread_states.iter().any(|t| t.is_active());
        let slot_ns = self.cfg.smu.slot_period_ns;
        // The next PPT slot boundary, one period further at each boundary
        // reached; none while no thread is active.
        let mut next_slot =
            if controller_active { next_boundary(self.now, slot_ns) } else { Ns::MAX };
        // Whether held slots may run in the held loop: a held slot then
        // advances no counter, and its RAPL energy, if the machine keeps
        // any, publishes at the slot's end.
        let held_loop = controller_active
            && self.counters.is_empty()
            && slot_ns <= MAX_SEGMENT_NS
            && (self.rapl.is_none() || slot_ns == UPDATE_PERIOD_NS);
        while self.now < end {
            if held_loop && self.now + slot_ns == next_slot {
                self.run_held_slots(end);
                next_slot = self.now + slot_ns;
                if self.now == end {
                    break;
                }
            }
            let smu_next = self.smu.next_event();
            let mut next = end.min(self.now + MAX_SEGMENT_NS).min(next_slot);
            if let Some(e) = smu_next {
                next = next.min(e);
            }
            self.integrate_segment(next - self.now);
            self.now = next;

            // Nothing completes before the SMU's next event.
            let completed = if smu_next.is_some_and(|e| e <= self.now) {
                self.smu.advance(self.now)
            } else {
                Vec::new()
            };
            let freq_changed = !completed.is_empty();
            if self.tracer.is_enabled() {
                for c in &completed {
                    self.tracer.record(
                        c.at,
                        Event::FreqApplied {
                            core: CoreId::from_index(c.core),
                            mhz: c.mhz,
                            fast_path: c.fast_path,
                        },
                    );
                }
            }
            let mut caps_changed = false;
            if self.now == next_slot {
                next_slot += slot_ns;
                caps_changed = self.ppt_slot();
            }
            if caps_changed {
                self.resolve_dvfs();
            }
            if freq_changed || caps_changed {
                self.update_clocks_and_power();
            } else {
                // Only the die temperatures moved, and with them leakage
                // and the estimates.
                self.reevaluate_thermal();
            }
        }
    }

    /// Advances, from `self.now`, a slot boundary, the whole PPT slots
    /// toward `end` that every package's standing hold proof decides, in
    /// one loop over per-package locals ([`Held`]) that writes the machine
    /// back once. On a machine that keeps no performance counters such a
    /// slot integrates only AC energy, die temperatures and, if the
    /// machine keeps RAPL accounting, RAPL energy, and it records no
    /// event: no SMU completion, cap move or wake change falls in it. Each
    /// slot evaluates what `integrate_segment`, `proven_hold` and
    /// `reevaluate_thermal` do, in their order and through the same
    /// helpers, so the machine ends bit for bit where the per-slot loop
    /// would. The loop stops at `end`'s last whole slot, before the slot
    /// holding the next SMU completion, and before the first slot whose
    /// die temperature leaves its proven range; the per-slot loop takes
    /// over there.
    ///
    /// A machine that keeps RAPL accounting runs here only while each
    /// slot is one RAPL update period, and a span starts only on a
    /// publication, so each slot publishes what the last published plus
    /// its own energy. The loop records each slot's estimate terms
    /// ([`SpanTerms`]) and stops when they fill; the span's RAPL energy
    /// then integrates in one pass ([`publish_held_span`](Self::publish_held_span)),
    /// and the estimates of its last slot are written once.
    fn run_held_slots(&mut self, end: Ns) {
        #[cfg(test)]
        if !self.hold_proofs_enabled {
            return;
        }
        let n = self.die_temp_c.len();
        let slot_ns = self.cfg.smu.slot_period_ns;
        // The latest a held slot may end: at `end`, and before the next
        // SMU completion.
        let limit = self.smu.next_event().map_or(end, |e| end.min(e.saturating_sub(1)));
        if n > HELD_PKGS
            || self.now + slot_ns > limit
            || self.rapl.as_ref().is_some_and(|rapl| !rapl.is_published())
        {
            return;
        }
        let mut held = Held {
            now: self.now,
            slots: 0,
            die_c: [0.0; HELD_PKGS],
            pkg_w: [0.0; HELD_PKGS],
            dc_w: self.breakdown.dc_w,
            ac_w: self.breakdown.ac_w,
            ac_energy_j: self.ac_energy_j,
        };
        let mut range_c = [(0.0, 0.0); HELD_PKGS];
        let mut last_c = [0.0; HELD_PKGS];
        let mut base_w = [0.0; HELD_PKGS];
        let mut awake = [false; HELD_PKGS];
        for pkg in 0..n {
            let HoldProof::Holds { lo_c, hi_c } = self.hold_proofs[pkg] else { return };
            range_c[pkg] = (lo_c, hi_c);
            last_c[pkg] = self.power.die_c(pkg);
            held.die_c[pkg] = self.die_temp_c[pkg];
            held.pkg_w[pkg] = self.breakdown.pkg_true_w[pkg];
            base_w[pkg] = self.power.package_base_w(pkg);
            awake[pkg] = self.breakdown.pkg_awake[pkg];
        }
        // Whether every package's proof covers these die temperatures, the
        // ones the next slot's check reads: the last evaluation's.
        let covers = |die_c: &[f64; HELD_PKGS]| {
            (0..n).all(|pkg| range_c[pkg].0 <= die_c[pkg] && die_c[pkg] <= range_c[pkg].1)
        };
        if !covers(&last_c) {
            return;
        }
        let thermal = self.cfg.power.thermal;
        let dt_s = to_secs(slot_ns);
        if self.thermal_alpha.0 != slot_ns {
            self.thermal_alpha = (slot_ns, thermal.alpha(dt_s));
        }
        let alpha = self.thermal_alpha.1;
        let dram_w = self.breakdown.dram_w;
        // Only a machine that keeps RAPL accounting records terms.
        let mut span = self.rapl.as_ref().map(|_| SpanTerms {
            temperature_w: [[0.0; SPAN_SLOTS]; HELD_PKGS],
            idle_w: [[0.0; SPAN_SLOTS]; HELD_PKGS],
        });
        loop {
            // Test builds re-run the per-slot decision of every package.
            #[cfg(test)]
            {
                if held.slots > 0 {
                    self.store_held(&held);
                }
                let ppt_w = self.cfg.power.package.ppt_estimated_w;
                for pkg in 0..n {
                    assert!(
                        self.per_slot_decision_holds(pkg, ppt_w),
                        "package {pkg}: a held slot at {} °C does not hold",
                        self.power.die_c(pkg)
                    );
                }
            }
            held.ac_energy_j += held.ac_w * dt_s;
            for pkg in 0..n {
                held.die_c[pkg] = thermal.step_by(held.die_c[pkg], held.pkg_w[pkg], alpha);
            }
            for pkg in 0..n {
                held.pkg_w[pkg] =
                    power::package_true_w(&self.cfg, awake[pkg], base_w[pkg], held.die_c[pkg]);
            }
            if let Some(span) = &mut span {
                let slot = held.slots as usize;
                for pkg in 0..n {
                    let die_c = held.die_c[pkg];
                    span.temperature_w[pkg][slot] = self.cfg.rapl.temperature_term_w(die_c);
                    span.idle_w[pkg][slot] = self.cfg.rapl.idle_core_estimate_w(die_c);
                }
            }
            let before_ac_w = held.ac_w;
            (held.dc_w, held.ac_w) = power::dc_ac_w(&self.cfg, &held.pkg_w[..n], dram_w);
            held.now += slot_ns;
            held.slots += 1;
            self.trace_ac(held.now, before_ac_w, held.ac_w);
            if held.now + slot_ns > limit
                || !covers(&held.die_c)
                || (span.is_some() && held.slots as usize == SPAN_SLOTS)
            {
                break;
            }
        }
        if let Some(span) = &span {
            self.publish_held_span(span, held.now, held.slots as usize, dt_s);
        }
        self.store_held(&held);
        if span.is_some() {
            self.power.refresh_estimates(&self.cfg, &self.est_noise_w, &mut self.breakdown);
        }
        self.slot_counts.proof_slots += held.slots * n as u64;
        self.slot_counts.held_loop_slots += held.slots;
    }

    /// Integrates and publishes the RAPL energy of a held span of `slots`
    /// slots ending at `end`, one update period each, on a machine that
    /// keeps RAPL accounting: slot `k` adds the estimates slot `k − 1`
    /// left, the first the estimates at the span's start. An awake
    /// package's estimates at each slot come from `span`'s terms through
    /// the thermal path's expressions ([`PowerEval::span_package_estimates`],
    /// [`PowerEval::span_core_estimates`]); a sleeping package's stay those
    /// of the last full evaluation.
    fn publish_held_span(&mut self, span: &SpanTerms, end: Ns, slots: usize, dt_s: f64) {
        let Some(rapl) = self.rapl.as_mut() else { return };
        let (cfg, power, breakdown) = (&self.cfg, &self.power, &self.breakdown);
        let per_pkg = cfg.topology.cores_per_socket();
        // The terms of the slots whose estimates a later slot integrates.
        let terms =
            |pkg: usize| (&span.temperature_w[pkg][..slots - 1], &span.idle_w[pkg][..slots - 1]);
        let mut watts = [0.0; SPAN_SLOTS];
        rapl.publish_periods(
            end,
            dt_s,
            &mut watts[..slots],
            |core, watts| {
                let pkg = core / per_pkg;
                let (start_w, later) = watts.split_at_mut(1);
                start_w[0] = breakdown.core_est_w[core];
                if breakdown.pkg_awake[pkg] {
                    let (temperature_w, idle_w) = terms(pkg);
                    let noise_w = self.est_noise_w[core];
                    power.span_core_estimates(pkg, core, noise_w, temperature_w, idle_w, later);
                } else {
                    later.fill(start_w[0]);
                }
            },
            |pkg, watts| {
                let (start_w, later) = watts.split_at_mut(1);
                start_w[0] = breakdown.pkg_est_w[pkg];
                if breakdown.pkg_awake[pkg] {
                    let (temperature_w, idle_w) = terms(pkg);
                    power.span_package_estimates(
                        cfg,
                        pkg,
                        &self.est_noise_w,
                        temperature_w,
                        idle_w,
                        later,
                    );
                } else {
                    later.fill(start_w[0]);
                }
            },
        );
    }

    /// Writes the held loop's locals back into the machine, as the last
    /// slot's thermal re-evaluation would have left it.
    fn store_held(&mut self, held: &Held) {
        let n = self.die_temp_c.len();
        self.now = held.now;
        self.die_temp_c.copy_from_slice(&held.die_c[..n]);
        self.power.record_thermal(&held.die_c[..n]);
        self.breakdown.pkg_true_w.copy_from_slice(&held.pkg_w[..n]);
        self.breakdown.dc_w = held.dc_w;
        self.breakdown.ac_w = held.ac_w;
        self.ac_energy_j = held.ac_energy_j;
    }

    /// One PPT slot: each package's step, decided by its hold proof where
    /// one covers the die temperature of the last evaluation, and on its
    /// own otherwise. Returns whether a cap moved.
    fn ppt_slot(&mut self) -> bool {
        let ppt_w = self.cfg.power.package.ppt_estimated_w;
        let cores_per_pkg = self.cfg.topology.cores_per_socket();
        let mut caps_changed = false;
        for pkg in 0..self.controllers.len() {
            if self.proven_hold(pkg, ppt_w) {
                continue;
            }
            self.slot_counts.fallback_slots += 1;
            let est_w = self.slot_estimate_w(pkg, ppt_w);
            if self.controllers[pkg].holds(est_w, ppt_w) {
                continue;
            }
            let applied = (pkg * cores_per_pkg..(pkg + 1) * cores_per_pkg)
                .map(|c| self.smu.core(c).applied_mhz())
                .min()
                .expect("packages have cores");
            let moved = self.controllers[pkg].step(est_w, ppt_w, applied);
            if moved {
                self.tracer.record(
                    self.now,
                    Event::CapChanged {
                        socket: SocketId(pkg as u32),
                        cap_mhz: self.controllers[pkg].cap_mhz(),
                    },
                );
            }
            caps_changed |= moved;
        }
        caps_changed
    }

    /// Whether package `pkg`'s step holds by proof this slot: a hold proof
    /// made since the last full evaluation covers the die temperature the
    /// last evaluation used. The first slot after a full evaluation or a
    /// preheat tries to make the proof ([`prove_hold`](Self::prove_hold));
    /// if that fails, every slot decides on its own until the next one.
    fn proven_hold(&mut self, pkg: usize, ppt_w: f64) -> bool {
        #[cfg(test)]
        if !self.hold_proofs_enabled {
            return false;
        }
        if self.hold_proofs[pkg] == HoldProof::Unproven {
            self.hold_proofs[pkg] = match self.prove_hold(pkg, ppt_w) {
                Some((lo_c, hi_c)) => {
                    self.slot_counts.proofs += 1;
                    HoldProof::Holds { lo_c, hi_c }
                }
                None => {
                    self.slot_counts.proofs_failed += 1;
                    HoldProof::Failed
                }
            };
        }
        let HoldProof::Holds { lo_c, hi_c } = self.hold_proofs[pkg] else { return false };
        let die_c = self.power.die_c(pkg);
        if !(lo_c <= die_c && die_c <= hi_c) {
            return false;
        }
        self.slot_counts.proof_slots += 1;
        #[cfg(test)]
        assert!(
            self.per_slot_decision_holds(pkg, ppt_w),
            "package {pkg}: a proven hold at {die_c} °C in [{lo_c}, {hi_c}] does not hold"
        );
        true
    }

    /// Tries to prove that package `pkg`'s step holds at every slot until
    /// the next full evaluation; returns the die-temperature range the
    /// proof covers.
    ///
    /// Until then only the die temperature moves the estimate. From the
    /// last evaluation's it relaxes toward the fixed point of the
    /// leakage-coupled thermal step, monotonically in exact arithmetic: a
    /// step moves it by `(1 − R·B·k)·α` of its distance there, a share in
    /// (0, 1). The estimate bound over that range
    /// ([`PowerEval::estimate_bounds`]) then holds every estimate a slot
    /// can read, and when no controller threshold lies inside it and the
    /// step holds there, every such slot holds. Rounding may still carry
    /// the die past the fixed point, so each slot checks that the die
    /// temperature it reads lies in the range.
    fn prove_hold(&self, pkg: usize, ppt_w: f64) -> Option<(f64, f64)> {
        let awake = self.breakdown.pkg_awake[pkg];
        let from_c = self.power.die_c(pkg);
        let to_c = self.power.die_fixed_point_c(&self.cfg, pkg, awake)?;
        let range = (from_c.min(to_c), from_c.max(to_c));
        let (lo_w, hi_w) = self.power.estimate_bounds(&self.cfg, pkg, awake, range);
        let controller = &self.controllers[pkg];
        (controller.decides_alike(lo_w, hi_w, ppt_w) && controller.holds(lo_w, ppt_w))
            .then_some(range)
    }

    /// Whether the per-slot decision holds package `pkg`'s step, made
    /// without touching the machine: at the exact estimate a thermal
    /// evaluation computes at the last evaluation's die temperatures.
    #[cfg(test)]
    fn per_slot_decision_holds(&self, pkg: usize, ppt_w: f64) -> bool {
        let est_w = if self.power.estimates_stale() {
            let mut exact = self.breakdown.clone();
            self.power.thermal_estimates(&self.cfg, &self.est_noise_w, &mut exact);
            exact.pkg_est_w[pkg]
        } else {
            self.breakdown.pkg_est_w[pkg]
        };
        self.controllers[pkg].holds(est_w, ppt_w)
    }

    /// Runs the machine forward by (fractional) seconds.
    pub fn run_for_secs(&mut self, secs: f64) {
        self.run_for_ns(crate::time::from_secs(secs));
    }

    /// Fast-forwards the thermal state to steady conditions (the paper's
    /// pre-heat phase) without paying for simulated seconds.
    pub fn preheat(&mut self) {
        // A hold proof covers the dies' relaxation through thermal steps;
        // preheating sets them another way, so the next slot proves anew.
        self.hold_proofs.fill(HoldProof::Unproven);
        for _ in 0..4 {
            for pkg in 0..self.die_temp_c.len() {
                self.die_temp_c[pkg] =
                    self.cfg.power.thermal.steady_state_c(self.breakdown.pkg_true_w[pkg]);
            }
            self.reevaluate_thermal();
        }
    }

    // ---- measurement interfaces ---------------------------------------------
    //
    // All windowed measurements share one core: `trace_mean_w` (true
    // power from the piecewise-constant trace), `metered_mean_w` (LMG670
    // samples + inner-window averaging) and `probe::RaplDomainsWindow` (MSR
    // energy-counter polling). The declarative `Probe` layer reads power
    // through these.

    /// Externally-measured mean AC power over a past interval: LMG670
    /// samples averaged over the inner 80 % of the window.
    pub(crate) fn metered_mean_w(&mut self, from: Ns, to: Ns) -> f64 {
        let samples = self.meter_samples(from, to);
        zen2_power::PowerMeter::inner_window_mean(&samples, to_secs(from), to_secs(to))
    }

    /// Materializes LMG670 samples over a past interval from the power
    /// trace.
    pub fn meter_samples(&mut self, from: Ns, to: Ns) -> Vec<MeterSample> {
        assert!(to <= self.now, "cannot meter the future");
        let meter = zen2_power::PowerMeter::lmg670();
        let period = crate::time::from_secs(meter.period_s());
        let mut samples = Vec::new();
        let mut t = from;
        while t + period <= to {
            let window_mean = self.trace_mean_w(t, t + period);
            let reading = meter.read(&mut self.rng, window_mean);
            samples.push(MeterSample { t_s: to_secs(t + period), watts: reading });
            t += period;
        }
        samples
    }

    /// True mean AC power over a past interval (no instrument noise).
    ///
    /// Scans only the segments that overlap the window: it starts at the
    /// last segment beginning at or before `from` and stops at the first
    /// one beginning at or after `to`. The segments outside never added
    /// anything, so the sum is the full scan's, bit for bit.
    ///
    /// # Panics
    /// Panics on an empty or future window, and on a window that starts
    /// before the kept trace: a [`Session`](crate::Session) case keeps
    /// only the segments its open windows can read.
    pub fn trace_mean_w(&self, from: Ns, to: Ns) -> f64 {
        assert!(from < to && to <= self.now, "invalid trace window");
        assert!(
            from >= self.trace[0].0,
            "AC trace window starts at {from} ns, before the kept trace ({} ns)",
            self.trace[0].0
        );
        let first = self.trace.partition_point(|&(start, _)| start <= from).saturating_sub(1);
        let mut energy = 0.0;
        for (idx, &(seg_start, watts)) in self.trace.iter().enumerate().skip(first) {
            if seg_start >= to {
                break;
            }
            let seg_end = self.trace.get(idx + 1).map(|&(t, _)| t).unwrap_or(self.now);
            let lo = seg_start.max(from);
            let hi = seg_end.min(to);
            if hi > lo {
                // zen2-lint: allow(float-order) — trace segments integrate in chronological order, which is fixed
                energy += watts * to_secs(hi - lo);
            }
        }
        energy / to_secs(to - from)
    }

    /// Copies the published RAPL counters into the MSR file (the moment
    /// software performs a read).
    ///
    /// # Panics
    /// Panics on a machine that dropped its RAPL accounting: the session
    /// drops it only for a scenario that reads no RAPL counter, so such a
    /// read is a simulator bug.
    pub fn sync_rapl_msrs(&mut self) {
        let Some(rapl) = self.rapl.as_mut() else {
            panic!("RAPL read on a machine that keeps no RAPL accounting");
        };
        rapl.maybe_publish(self.now);
        let rapl = &*rapl;
        // The MSR file keeps one counter per domain: one poke through the
        // domain's first thread reaches every thread of it. Only the kept
        // core domains are written.
        let tpc = self.cfg.topology.threads_per_core();
        for (core, raw) in rapl.core_counters() {
            self.msrs.poke(ThreadId((core * tpc) as u32), address::CORE_ENERGY_STAT, raw as u64);
        }
        for pkg in 0..self.cfg.topology.num_sockets() {
            let raw = rapl.package_counter(pkg) as u64;
            self.msrs.poke(package_lead(&self.cfg.topology, pkg), address::PKG_ENERGY_STAT, raw);
        }
    }

    /// A socket's `PKG_ENERGY_STAT` raw counts as the last
    /// [`sync_rapl_msrs`](Self::sync_rapl_msrs) left them.
    pub(crate) fn pkg_energy_counts(&self, socket: SocketId) -> u64 {
        self.msrs.peek(package_lead(&self.cfg.topology, socket.index()), address::PKG_ENERGY_STAT)
    }

    /// Read-only access to the MSR file (the `/dev/cpu/N/msr` interface).
    pub fn msrs(&self) -> &MsrFile {
        &self.msrs
    }

    /// Samples one cond-var wakeup of `callee` triggered by `caller`
    /// (Fig. 8 benchmark). The callee must be idle.
    pub(crate) fn sample_wakeup_ns(&mut self, caller: ThreadId, callee: ThreadId) -> f64 {
        let state = self.thread_states[callee.index()];
        let callee_core = self.cfg.topology.core_of(callee);
        let ghz = self.core_eff_ghz[callee_core.index()];
        let remote = self.cfg.topology.socket_of_thread(caller)
            != self.cfg.topology.socket_of_thread(callee);
        wakeup::sample_latency_ns(&mut self.rng, &self.cfg.cstate, state, ghz, remote)
    }

    /// Pointer-chase L3 hit latency for a reader core under the current
    /// CCX clocks (Fig. 4 benchmark; prefetchers off, huge pages).
    pub fn l3_latency_ns(&self, core: CoreId) -> f64 {
        let ccx = self.cfg.topology.ccx_of_core(core);
        let mesh_ghz = self
            .cfg
            .topology
            .cores_of_ccx(ccx)
            .map(|c| {
                let active = self.core_has_active_thread(c);
                if active {
                    self.core_eff_ghz[c.index()]
                } else {
                    0.0
                }
            })
            .fold(0.0f64, f64::max)
            .max(ccx::L3_MIN_MHZ as f64 / 1000.0);
        self.cfg.l3_latency.latency_ns(self.core_eff_ghz[core.index()], mesh_ghz)
    }

    /// Pointer-chase DRAM latency under the configured I/O-die P-state
    /// and DRAM clock (Fig. 5b benchmark).
    pub fn dram_latency_ns(&self) -> f64 {
        self.cfg.dram_latency.latency_ns(&ClockPlan::resolve(self.cfg.iod_pstate, self.cfg.dram))
    }

    /// STREAM-triad bandwidth for `cores` streaming cores on one CCD
    /// (Fig. 5a benchmark).
    pub fn stream_triad_gbs(&self, cores: u32) -> f64 {
        self.cfg
            .bandwidth
            .bandwidth_gbs(&ClockPlan::resolve(self.cfg.iod_pstate, self.cfg.dram), cores)
    }

    // ---- internals -----------------------------------------------------------

    fn core_has_active_thread(&self, core: CoreId) -> bool {
        let tpc = self.cfg.topology.threads_per_core();
        let base = core.index() * tpc;
        self.thread_states[base..base + tpc].iter().any(|t| t.is_active())
    }

    /// Re-resolves every core's DVFS target after a cap moved; returns
    /// how many transitions that started.
    pub(crate) fn resolve_dvfs(&mut self) -> usize {
        (0..self.cfg.topology.num_cores()).filter_map(|core| self.resolve_core(core)).count()
    }

    /// Resolves one core's DVFS target, its request capped by its
    /// package's PPT cap; returns the transition this started, if any.
    fn resolve_core(&mut self, core: usize) -> Option<PendingTransition> {
        let tpc = self.cfg.topology.threads_per_core();
        let base = core * tpc;
        // Section V-A: the request is the max over both hardware
        // threads, whether idle, offline or active.
        let req = self.pstate_req_mhz[base..base + tpc]
            .iter()
            .copied()
            .max()
            .expect("cores have threads");
        let pkg = self.cfg.topology.socket_of_core(CoreId::from_index(core)).index();
        let target = req.min(self.controllers[pkg].cap_mhz());
        self.smu.request(self.now, core, target)
    }

    /// The package estimate this slot's PPT step reads: the last
    /// evaluation's. While it is stale (a machine without RAPL accounting
    /// skips it in thermal-only steps), a bound on it stands in whenever
    /// no controller threshold lies inside the bound, since any point of
    /// the bound then gives the same step; otherwise the estimates are
    /// computed exactly, as the thermal path would have.
    fn slot_estimate_w(&mut self, pkg: usize, ppt_w: f64) -> f64 {
        if self.power.estimates_stale() {
            let awake = self.breakdown.pkg_awake[pkg];
            let die_c = self.power.die_c(pkg);
            let (lo_w, hi_w) = self.power.estimate_bounds(&self.cfg, pkg, awake, (die_c, die_c));
            if self.controllers[pkg].decides_alike(lo_w, hi_w, ppt_w) {
                return lo_w;
            }
            self.slot_counts.exact_refreshes += 1;
            self.power.refresh_estimates(&self.cfg, &self.est_noise_w, &mut self.breakdown);
        }
        self.breakdown.pkg_est_w[pkg]
    }

    /// Resolves the clocks of every CCX whose applied frequencies or core
    /// activity moved since its last resolution (the others would resolve
    /// to what they hold), then re-evaluates power.
    fn update_clocks_and_power(&mut self) {
        let tpc = self.cfg.topology.threads_per_core();
        for ccx in 0..self.cfg.topology.num_ccxs() {
            // A CCX's cores are numbered contiguously.
            let base = ccx * ccx::CORES_PER_CCX;
            let applied: [u32; ccx::CORES_PER_CCX] =
                std::array::from_fn(|i| self.smu.core(base + i).applied_mhz());
            let active: [bool; ccx::CORES_PER_CCX] =
                std::array::from_fn(|i| self.core_has_active_thread(CoreId::from_index(base + i)));
            if self.ccx_resolved[ccx] == Some((applied, active)) {
                continue;
            }
            self.ccx_resolved[ccx] = Some((applied, active));
            let clocks = ccx::resolve(&applied, &active, self.cfg.ccx_coupling);
            for (i, &mhz) in applied.iter().enumerate() {
                let core = base + i;
                self.core_eff_ghz[core] = clocks.effective_mhz[i] / 1000.0;
                self.core_voltage[core] = self.smu.voltage(mhz);
                // Hardware keeps PStateStat coherent with the applied
                // frequency (on-grid frequencies only; controller caps
                // between table entries report the next-slower P-state).
                let status = self
                    .pstate_mhz
                    .iter()
                    .position(|&table_mhz| table_mhz <= mhz)
                    .unwrap_or(self.cfg.pstates.len() - 1);
                for sib in 0..tpc {
                    self.msrs.poke(
                        ThreadId((core * tpc + sib) as u32),
                        address::PSTATE_STAT,
                        status as u64,
                    );
                }
            }
        }
        self.reevaluate_power();
    }

    fn reevaluate_power(&mut self) {
        // A new machine state: the hold proofs covered the old one.
        self.hold_proofs.fill(HoldProof::Unproven);
        self.slot_counts.full_evaluations += 1;
        let state = MachineState {
            thread_states: &self.thread_states,
            workloads: &self.workloads,
            core_eff_ghz: &self.core_eff_ghz,
            core_voltage: &self.core_voltage,
            die_temp_c: &self.die_temp_c,
            est_noise_w: &self.est_noise_w,
        };
        self.power.evaluate(&self.cfg, &self.kernels, &state, &mut self.next_breakdown);
        let breakdown = &self.next_breakdown;
        if self.tracer.is_enabled() {
            for pkg in 0..breakdown.pkg_awake.len() {
                if breakdown.pkg_awake[pkg] != self.breakdown.pkg_awake[pkg] {
                    self.tracer.record(
                        self.now,
                        Event::PackageSleep {
                            socket: SocketId(pkg as u32),
                            asleep: !breakdown.pkg_awake[pkg],
                        },
                    );
                }
            }
        }
        let before_ac_w = self.breakdown.ac_w;
        std::mem::swap(&mut self.breakdown, &mut self.next_breakdown);
        self.trace_ac(self.now, before_ac_w, self.breakdown.ac_w);
    }

    /// Re-evaluates power when only the die temperatures moved since the
    /// last evaluation. Package wake states cannot change, so there is no
    /// sleep event to record.
    fn reevaluate_thermal(&mut self) {
        let before_ac_w = self.breakdown.ac_w;
        self.power.reevaluate_thermal(
            &self.cfg,
            &self.die_temp_c,
            &self.est_noise_w,
            self.rapl.is_some(),
            &mut self.breakdown,
        );
        self.trace_ac(self.now, before_ac_w, self.breakdown.ac_w);
    }

    /// Starts a new AC-trace segment at `at` if the evaluation made there
    /// moved AC power from `before_ac_w` to `ac_w` by more than 1 nW.
    fn trace_ac(&mut self, at: Ns, before_ac_w: f64, ac_w: f64) {
        if (ac_w - before_ac_w).abs() > 1e-9 || self.trace.is_empty() {
            self.trace.push((at, ac_w));
            #[cfg(test)]
            {
                self.trace_high_water = self.trace_high_water.max(self.trace.len());
            }
        }
    }

    /// Drops the AC-trace segments that end at or before `keep_from`, once
    /// they are at least half the trace, so a drain moves no more segments
    /// than it drops. The segment holding `keep_from` stays first: a
    /// [`trace_mean_w`](Self::trace_mean_w) window starting at or after
    /// `keep_from` scans the same segments in the same order as on the
    /// whole trace, bit for bit.
    pub(crate) fn trim_ac_trace(&mut self, keep_from: Ns) {
        let dead = self.trace.partition_point(|&(start, _)| start <= keep_from).saturating_sub(1);
        if dead > 0 && 2 * dead >= self.trace.len() {
            self.trace.drain(..dead);
        }
    }

    /// The stateless [`power::evaluate`](crate::power::evaluate) of the
    /// current machine state, which the memoized step must match.
    #[cfg(test)]
    pub(crate) fn stateless_breakdown(&self) -> PowerBreakdown {
        crate::power::evaluate(
            &self.cfg,
            &MachineState {
                thread_states: &self.thread_states,
                workloads: &self.workloads,
                core_eff_ghz: &self.core_eff_ghz,
                core_voltage: &self.core_voltage,
                die_temp_c: &self.die_temp_c,
                est_noise_w: &self.est_noise_w,
            },
        )
    }

    /// Settles an idle thread into its deepest enabled C-state, or into
    /// the POLL loop when every C-state is disabled.
    fn settle_idle(&mut self, t: usize) {
        self.thread_states[t] = self.idle_cfg[t].deepest_idle_state();
        // POLL fallback (all idle states disabled) is an active loop.
        if self.thread_states[t] == ThreadState::Active {
            self.workloads[t] = Some((KernelClass::Poll, OperandWeight::HALF));
        }
    }

    /// Recomputes the instructions per cycle of one core's threads, which
    /// depend on their workloads and on how many siblings execute.
    fn refresh_ipc(&mut self, core: usize) {
        let tpc = self.cfg.topology.threads_per_core();
        let threads = core * tpc..(core + 1) * tpc;
        let active = self.thread_states[threads.clone()].iter().filter(|s| s.is_active()).count();
        for t in threads {
            self.thread_ipc[t] = match (self.thread_states[t], self.workloads[t]) {
                (ThreadState::Active, Some((class, _))) => {
                    self.kernels.kernel(class).ipc_per_thread(SmtMode::from_active(active))
                }
                _ => 0.0,
            };
        }
    }

    /// Records a thread's current scheduling state into the event trace.
    fn trace_thread_state(&mut self, thread: ThreadId) {
        if !self.tracer.is_enabled() {
            return;
        }
        let label = match self.thread_states[thread.index()] {
            ThreadState::Active => "C0",
            ThreadState::C1 => "C1",
            ThreadState::C2 => "C2",
            ThreadState::Offline => "offline",
        };
        self.tracer.record(self.now, Event::ThreadState { thread, state: label });
    }

    /// Integrates counters, energy and temperature over a constant-state
    /// segment.
    fn integrate_segment(&mut self, dt: Ns) {
        if dt == 0 {
            return;
        }
        let dt_s = to_secs(dt);
        let tpc = self.cfg.topology.threads_per_core();
        let nominal_ghz = self.pstate_mhz[0] as f64 / 1000.0;
        for (t, counters) in &mut self.counters {
            let t = t.index();
            counters.advance(
                dt_s,
                self.thread_states[t],
                self.core_eff_ghz[t / tpc],
                nominal_ghz,
                self.thread_ipc[t],
                self.cfg.os.idle_wake_cycles_per_s,
            );
        }

        if let Some(rapl) = &mut self.rapl {
            rapl.accumulate(dt_s, &self.breakdown.core_est_w, &self.breakdown.pkg_est_w);
            // RAPL counters publish on their 1 ms cadence.
            rapl.maybe_publish(self.now + dt);
        }
        self.ac_energy_j += self.breakdown.ac_w * dt_s;
        let thermal = &self.cfg.power.thermal;
        if self.thermal_alpha.0 != dt {
            self.thermal_alpha = (dt, thermal.alpha(dt_s));
        }
        let alpha = self.thermal_alpha.1;
        for (die_c, &pkg_w) in self.die_temp_c.iter_mut().zip(&self.breakdown.pkg_true_w) {
            *die_c = thermal.step_by(*die_c, pkg_w, alpha);
        }
    }

    /// Total AC energy consumed since boot, joules.
    pub fn ac_energy_j(&self) -> f64 {
        self.ac_energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Probe, Window};
    use crate::scenario::Scenario;
    use crate::time::MICROSECOND;

    fn boot() -> System {
        System::new(SimConfig::epyc_7502_2s(), 42)
    }

    #[test]
    fn boots_idle_at_the_fig7_floor() {
        let sys = boot();
        assert!((sys.ac_power_w() - 99.1).abs() < 1.5, "floor {:.1} W", sys.ac_power_w());
        assert!(!sys.package_awake(SocketId(0)));
    }

    #[test]
    fn scheduling_work_wakes_both_packages() {
        let mut sys = boot();
        sys.set_workload(ThreadId(0), KernelClass::Pause, OperandWeight::HALF);
        assert!(sys.package_awake(SocketId(0)));
        assert!(sys.package_awake(SocketId(1)), "global PC6 criterion");
        assert!((sys.ac_power_w() - 180.6).abs() < 2.5, "{:.1} W", sys.ac_power_w());
    }

    #[test]
    fn transition_delay_is_in_the_fig3_window() {
        let mut sys = boot();
        sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
        sys.run_for_ns(50 * MILLISECOND);
        // Request 1.5 GHz on both siblings of core 0.
        sys.set_thread_pstate_mhz(ThreadId(1), 1500);
        let start = sys.now_ns();
        let pending = sys.set_thread_pstate_mhz(ThreadId(0), 1500).expect("transition starts");
        let delay = pending.completes_at - start;
        assert!((390 * MICROSECOND..=1390 * MICROSECOND).contains(&delay), "{delay} ns");
        sys.run_for_ns(delay + MICROSECOND);
        assert!((sys.effective_core_ghz(CoreId(0)) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn idle_sibling_request_elevates_core_frequency() {
        // Section V-A: the active thread asks for 1.5 GHz but the idle
        // sibling's 2.5 GHz request wins.
        let mut sys = boot();
        sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
        sys.set_thread_pstate_mhz(ThreadId(0), 1500);
        sys.run_for_ns(5 * MILLISECOND);
        assert!((sys.effective_core_ghz(CoreId(0)) - 2.5).abs() < 1e-9);
        // Lowering the idle sibling's request releases the core.
        sys.set_thread_pstate_mhz(ThreadId(1), 1500);
        sys.run_for_ns(5 * MILLISECOND);
        assert!((sys.effective_core_ghz(CoreId(0)) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn offline_sibling_request_also_elevates() {
        let mut sys = boot();
        sys.set_online(ThreadId(1), false);
        sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
        sys.set_thread_pstate_mhz(ThreadId(0), 1500);
        sys.run_for_ns(5 * MILLISECOND);
        // "Still, the frequency of the core is defined by the offline
        // thread."
        assert!((sys.effective_core_ghz(CoreId(0)) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn ccx_coupling_reduces_slower_cores() {
        let mut sys = boot();
        // Core 0 at 2.2 GHz, cores 1-3 of the CCX at 2.5 GHz, all busy.
        for t in 0..8u32 {
            sys.set_workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
            let mhz = if t < 2 { 2200 } else { 2500 };
            sys.set_thread_pstate_mhz(ThreadId(t), mhz);
        }
        sys.run_for_ns(5 * MILLISECOND);
        let eff = sys.effective_core_ghz(CoreId(0));
        assert!((eff - 2.0).abs() < 0.001, "Table I cell: {eff:.4} GHz");
    }

    #[test]
    fn ccx_clocks_follow_activity_without_a_frequency_change() {
        let mut sys = boot();
        // Table I's cell: core 0 at 2.2 GHz under a 2.5 GHz mesh.
        for t in 0..8u32 {
            sys.set_workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
            sys.set_thread_pstate_mhz(ThreadId(t), if t < 2 { 2200 } else { 2500 });
        }
        sys.run_for_ns(5 * MILLISECOND);
        assert!((sys.effective_core_ghz(CoreId(0)) - 2.0).abs() < 0.001);
        // Cores 1-3 go idle and keep their 2.5 GHz: no applied frequency
        // moves, but the mesh follows core 0 now, which runs undivided.
        for t in 2..8u32 {
            sys.set_idle(ThreadId(t));
        }
        assert_eq!(sys.effective_core_ghz(CoreId(0)), 2.2);
    }

    #[test]
    fn firestarter_throttles_toward_fig6_equilibrium() {
        let mut sys = boot();
        for t in 0..128u32 {
            sys.set_workload(ThreadId(t), KernelClass::Firestarter, OperandWeight::HALF);
        }
        sys.preheat();
        sys.run_for_secs(0.2);
        let f = sys.effective_core_ghz(CoreId(0));
        assert!((1.95..=2.15).contains(&f), "SMT equilibrium {f:.3} GHz");
        let est: f64 = sys.power_breakdown().pkg_est_w.iter().sum::<f64>() / 2.0;
        assert!((est - 170.0).abs() < 4.0, "RAPL-visible package power {est:.1} W");
    }

    /// Each thread's counters run at its own core's clock: thread 0 at
    /// the nominal 2.5 GHz, thread 101 on socket 1 at the 1.5 GHz both
    /// threads of its core request.
    #[test]
    fn counters_report_effective_frequency() {
        let mut sys = boot();
        let threads = [ThreadId(0), ThreadId(101)];
        for t in threads {
            sys.set_workload(t, KernelClass::BusyWait, OperandWeight::HALF);
        }
        sys.set_thread_pstate_mhz(ThreadId(100), 1500);
        sys.set_thread_pstate_mhz(ThreadId(101), 1500);
        sys.run_for_ns(20 * MILLISECOND);
        let before = threads.map(|t| sys.counters(t));
        sys.run_for_secs(0.1);
        for (t, before, ghz) in [(threads[0], before[0], 2.5), (threads[1], before[1], 1.5)] {
            let eff = ThreadCounters::effective_ghz(&before, &sys.counters(t), 2.5);
            assert!((eff - ghz).abs() < 0.01, "thread {}: perf-observed {eff:.3} GHz", t.0);
        }
    }

    #[test]
    fn rapl_measurement_through_msrs() {
        let mut sc = Scenario::new();
        for t in 0..128u32 {
            sc.at(0).workload(ThreadId(t), KernelClass::AddPd, OperandWeight::HALF);
        }
        sc.probe("rapl", Probe::RaplW, Window::span_secs(0.05, 1.05));
        let (pkg_w, core_w) = boot().run_scenario(&sc).unwrap().watts_pair("rapl");
        assert!(pkg_w > 100.0 && pkg_w < 400.0, "package sum {pkg_w:.0} W");
        assert!(core_w > 50.0 && core_w < pkg_w, "core sum {core_w:.0} W");
    }

    #[test]
    fn meter_trace_reflects_power_steps() {
        let mut sys = boot();
        sys.run_for_secs(0.3);
        let idle_mean = sys.trace_mean_w(0, sys.now_ns());
        assert!((idle_mean - 99.1).abs() < 1.5);
        let t0 = sys.now_ns();
        for t in 0..128u32 {
            sys.set_workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
        }
        sys.run_for_secs(0.3);
        let busy_mean = sys.trace_mean_w(t0, sys.now_ns());
        assert!(busy_mean > idle_mean + 50.0, "busy {busy_mean:.0} vs idle {idle_mean:.0}");
    }

    #[test]
    fn windowed_trace_mean_equals_full_scan() {
        // Reference: the full scan from t=0, which the windowed scan must
        // match bit for bit.
        fn full_scan(sys: &System, from: Ns, to: Ns) -> f64 {
            let mut energy = 0.0;
            for (idx, &(seg_start, watts)) in sys.trace.iter().enumerate() {
                let seg_end = sys.trace.get(idx + 1).map(|&(t, _)| t).unwrap_or(sys.now);
                let lo = seg_start.max(from);
                let hi = seg_end.min(to);
                if hi > lo {
                    energy += watts * to_secs(hi - lo);
                }
            }
            energy / to_secs(to - from)
        }

        let mut sys = boot();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..40 {
            // Several changes in one tick leave zero-length segments.
            for _ in 0..rng.gen_range(1..4) {
                let thread = ThreadId(rng.gen_range(0..8));
                if rng.gen_bool(0.7) {
                    let weight = OperandWeight([0.0, 0.5, 1.0][rng.gen_range(0..3usize)]);
                    sys.set_workload(thread, KernelClass::VXorps, weight);
                } else {
                    sys.set_idle(thread);
                }
            }
            sys.run_for_ns(rng.gen_range(1..3 * MILLISECOND));
        }
        let now = sys.now_ns();
        let starts: Vec<Ns> = sys.trace.iter().map(|&(t, _)| t).collect();
        assert!(starts.len() > 40, "{} segments", starts.len());
        let mut windows = Vec::new();
        for _ in 0..300 {
            // Arbitrary windows.
            let a = rng.gen_range(0..now);
            windows.push((a, rng.gen_range(a + 1..=now)));
            // Windows starting on a segment boundary.
            let b = starts[rng.gen_range(0..starts.len())].min(now - 1);
            windows.push((b, rng.gen_range(b + 1..=now)));
            // Windows inside one segment.
            let i = rng.gen_range(0..starts.len());
            let end = starts.get(i + 1).copied().unwrap_or(now);
            if end > starts[i] + 1 {
                let lo = rng.gen_range(starts[i]..end - 1);
                windows.push((lo, rng.gen_range(lo + 1..=end)));
            }
        }
        windows.push((0, now));
        for (from, to) in windows {
            assert_eq!(
                sys.trace_mean_w(from, to).to_bits(),
                full_scan(&sys, from, to).to_bits(),
                "window [{from}, {to})"
            );
        }
    }

    #[test]
    fn measure_ac_matches_trace_within_instrument_noise() {
        let mut sc = Scenario::new();
        for t in 0..32u32 {
            sc.at(0).workload(ThreadId(t), KernelClass::Compute, OperandWeight::HALF);
        }
        let window = Window::span_secs(0.05, 1.05);
        sc.probe("metered", Probe::AcMeteredW, window);
        sc.probe("truth", Probe::AcTrueMeanW, window);
        let run = boot().run_scenario(&sc).unwrap();
        let (metered, truth) = (run.watts("metered"), run.watts("truth"));
        assert!((metered - truth).abs() < 0.5, "metered {metered:.2} vs truth {truth:.2}");
    }

    #[test]
    fn pstate_status_register_tracks_applied_frequency() {
        let mut sys = boot();
        sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
        sys.set_thread_pstate_mhz(ThreadId(0), 1500);
        sys.set_thread_pstate_mhz(ThreadId(1), 1500);
        sys.run_for_ns(5 * MILLISECOND);
        // P-state 2 is 1.5 GHz on this table; both siblings see it.
        let stat = sys.msrs().read(ThreadId(0), zen2_msr::address::PSTATE_STAT).unwrap();
        assert_eq!(stat, 2);
        let stat = sys.msrs().read(ThreadId(1), zen2_msr::address::PSTATE_STAT).unwrap();
        assert_eq!(stat, 2);
    }

    #[test]
    fn poll_fallback_draws_more_than_pause() {
        // Paper Fig. 7: the unrolled pause loop "exhibits a more stable
        // and slightly lower power consumption than POLL".
        let mut pause_sys = boot();
        pause_sys.set_workload(ThreadId(0), KernelClass::Pause, OperandWeight::HALF);
        pause_sys.run_for_secs(0.05);
        let mut poll_sys = boot();
        // Disabling every idle state forces the POLL loop.
        poll_sys.set_cstate_enabled(ThreadId(0), 2, false);
        poll_sys.set_cstate_enabled(ThreadId(0), 1, false);
        poll_sys.run_for_secs(0.05);
        assert!(
            poll_sys.ac_power_w() > pause_sys.ac_power_w(),
            "POLL {:.2} W vs pause {:.2} W",
            poll_sys.ac_power_w(),
            pause_sys.ac_power_w()
        );
    }

    #[test]
    fn wakeup_sampling_uses_callee_state() {
        let mut sys = boot();
        sys.set_workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
        // Callee idles in C2 on the same CCX.
        let c2 = sys.sample_wakeup_ns(ThreadId(0), ThreadId(2));
        assert!(c2 > 15_000.0, "C2 wake {c2:.0} ns");
        sys.set_cstate_enabled(ThreadId(2), 2, false);
        let c1 = sys.sample_wakeup_ns(ThreadId(0), ThreadId(2));
        assert!(c1 < 3_000.0, "C1 wake {c1:.0} ns");
    }

    /// A machine with hold proofs, and its twin deciding every slot on
    /// its own, built alike. `lean` machines keep neither RAPL accounting
    /// nor performance counters, as a Fig. 7 session case, so the first
    /// advances its held slots in the held loop.
    fn proven_and_per_slot(lean: bool) -> (System, System) {
        let mut pair = (boot(), boot());
        pair.1.disable_hold_proofs();
        if lean {
            both(&mut pair, |sys| {
                sys.drop_rapl_accounting();
                sys.keep_counters(&[]);
            });
        }
        pair
    }

    /// Applies `act` to both machines.
    fn both(pair: &mut (System, System), act: impl Fn(&mut System)) {
        act(&mut pair.0);
        act(&mut pair.1);
    }

    /// Asserts that both machines stepped alike: time, caps, die
    /// temperatures, the power breakdown, AC energy and the AC trace are
    /// bit-equal.
    fn assert_decided_alike((proven, per_slot): &(System, System)) {
        assert_eq!(proven.now_ns(), per_slot.now_ns());
        for socket in [SocketId(0), SocketId(1)] {
            assert_eq!(proven.cap_mhz(socket), per_slot.cap_mhz(socket));
            assert_eq!(proven.die_temp_c(socket).to_bits(), per_slot.die_temp_c(socket).to_bits());
        }
        // `Debug` prints each float's shortest round-trip form.
        let breakdown = |sys: &System| format!("{:?}", sys.power_breakdown());
        assert_eq!(breakdown(proven), breakdown(per_slot));
        assert_eq!(proven.ac_energy_j().to_bits(), per_slot.ac_energy_j().to_bits());
        let bits = |sys: &System| -> Vec<(Ns, u64)> {
            sys.trace.iter().map(|&(t, w)| (t, w.to_bits())).collect()
        };
        assert!(bits(proven) == bits(per_slot), "AC traces differ");
        assert_eq!(per_slot.slot_counts().proof_slots, 0);
        assert_eq!(per_slot.slot_counts().held_loop_slots, 0);
    }

    fn load_all(sys: &mut System, class: KernelClass) {
        for t in 0..128u32 {
            sys.set_workload(ThreadId(t), class, OperandWeight::HALF);
        }
    }

    #[test]
    fn hold_proofs_decide_light_loads_and_the_throttled_deadband() {
        for lean in [false, true] {
            hold_proofs_decide_light_loads_and_the_throttled_deadband_on(lean);
        }
    }

    fn hold_proofs_decide_light_loads_and_the_throttled_deadband_on(lean: bool) {
        let mut pair = proven_and_per_slot(lean);
        both(&mut pair, |sys| {
            for t in 0..8u32 {
                sys.set_workload(ThreadId(t), KernelClass::Pause, OperandWeight::HALF);
            }
            sys.run_for_ns(50 * MILLISECOND);
        });
        // A light load far below PPT: the first slot proves the hold at the
        // ceiling, and every later slot reads the proof; a lean machine
        // advances those 49 slots in the held loop. Two evaluations at
        // boot and one per workload action make ten.
        let light = pair.0.slot_counts();
        let expected = SlotCounts {
            proof_slots: 100,
            proofs: 2,
            held_loop_slots: if lean { 49 } else { 0 },
            full_evaluations: 10,
            ..SlotCounts::default()
        };
        assert_eq!(light, expected);
        assert_decided_alike(&pair);

        // FIRESTARTER everywhere is a new machine state, which the light
        // load's proofs do not cover: the cap steps down.
        both(&mut pair, |sys| {
            load_all(sys, KernelClass::Firestarter);
            sys.preheat();
            sys.run_for_ns(300 * MILLISECOND);
        });
        let cap = pair.0.cap_mhz(SocketId(0));
        assert!((1500..2500).contains(&cap), "throttled to {cap} MHz");
        let throttled = pair.0.slot_counts();
        assert!(throttled.proofs_failed > 0 && throttled.fallback_slots > 0, "{throttled:?}");
        assert_decided_alike(&pair);

        // Settled inside the deadband, the slots read proofs again.
        both(&mut pair, |sys| sys.run_for_ns(100 * MILLISECOND));
        let settled = pair.0.slot_counts();
        assert_eq!(pair.0.cap_mhz(SocketId(0)), cap);
        assert_eq!(settled.proof_slots - throttled.proof_slots, 200, "{settled:?}");
        assert_eq!(settled.fallback_slots, throttled.fallback_slots);
        // A lean machine advances every one of those slots in the held
        // loop.
        let held = settled.held_loop_slots - throttled.held_loop_slots;
        assert_eq!(held, if lean { 100 } else { 0 }, "{settled:?}");
        assert_decided_alike(&pair);
    }

    #[test]
    fn preheat_clears_the_hold_proofs() {
        let mut sys = boot();
        for t in 0..8u32 {
            sys.set_workload(ThreadId(t), KernelClass::Pause, OperandWeight::HALF);
        }
        sys.run_for_ns(10 * MILLISECOND);
        assert_eq!(sys.slot_counts().proofs, 2);
        // Preheating moves the dies without a full evaluation; the next
        // slot proves each package's hold again from the preheated die.
        sys.preheat();
        sys.run_for_ns(10 * MILLISECOND);
        assert_eq!(sys.slot_counts().proofs, 4);
        assert_eq!(sys.slot_counts().proof_slots, 40);
    }

    #[test]
    fn a_die_outside_the_proven_range_decides_on_its_own() {
        for lean in [false, true] {
            a_die_outside_the_proven_range_decides_on_its_own_on(lean);
        }
    }

    fn a_die_outside_the_proven_range_decides_on_its_own_on(lean: bool) {
        let mut pair = proven_and_per_slot(lean);
        both(&mut pair, |sys| {
            load_all(sys, KernelClass::Firestarter);
            sys.preheat();
            sys.run_for_ns(400 * MILLISECOND);
        });
        let before = pair.0.slot_counts();
        let cap = pair.0.cap_mhz(SocketId(0));
        assert_eq!(pair.0.hold_proofs[0], pair.0.hold_proofs[1]);
        assert!(matches!(pair.0.hold_proofs[0], HoldProof::Holds { .. }), "{before:?}");
        // Far hotter dies than the proofs cover push the estimate above
        // PPT: each slot must decide on its own and step the cap down.
        both(&mut pair, |sys| {
            sys.die_temp_c.iter_mut().for_each(|die_c| *die_c += 250.0);
            sys.run_for_ns(3 * MILLISECOND);
        });
        assert!(pair.0.cap_mhz(SocketId(0)) < cap);
        assert!(pair.0.slot_counts().fallback_slots > before.fallback_slots);
        assert_decided_alike(&pair);
    }

    /// Fig. 7's active-pause tick for all 128 threads: each thread's and
    /// its sibling's P-state request, then its pause workload; or every
    /// request first.
    fn fig7_pause_tick(requests_first: bool) -> Vec<Op> {
        let requests = |t: u32| {
            [ThreadId(t), ThreadId(t ^ 1)].map(|thread| Op::PstateMhz { thread, mhz: 1500 })
        };
        let pause = |t: u32| Op::Workload {
            thread: ThreadId(t),
            class: KernelClass::Pause,
            weight: OperandWeight::HALF,
        };
        if requests_first {
            (0..128).flat_map(requests).chain((0..128).map(pause)).collect()
        } else {
            (0..128).flat_map(|t| requests(t).into_iter().chain([pause(t)])).collect()
        }
    }

    #[test]
    fn a_tick_interleaving_pstate_requests_resolves_once() {
        use rand::RngCore;
        let mut interleaved = boot();
        let mut requests_first = boot();
        let booted = interleaved.slot_counts().full_evaluations;
        interleaved.apply_ops(fig7_pause_tick(false).into_iter().map(|op| (op, 1)));
        requests_first.apply_ops(fig7_pause_tick(true).into_iter().map(|op| (op, 1)));
        // One full evaluation for the tick, not one per thread after the
        // first.
        assert_eq!(interleaved.slot_counts().full_evaluations - booted, 1);
        let breakdown = |sys: &System| format!("{:?}", sys.power_breakdown());
        assert_eq!(breakdown(&interleaved), breakdown(&requests_first));
        assert_eq!(interleaved.rng().next_u64(), requests_first.rng().next_u64());
        assert_eq!(interleaved.dvfs_targets(), requests_first.dvfs_targets());
    }
}
