//! Declarative scenarios: timed machine actions recorded as data,
//! validated against the topology before any simulation runs.
//!
//! A [`Scenario`] is a schedule of [`Op`]s plus a set of
//! [`ProbeSpec`] observation windows. Building one does
//! not touch a machine; [`System::run_scenario`] (or a
//! [`Session`](crate::Session) batch) executes it:
//!
//! ```
//! use zen2_sim::{Probe, Scenario, SimConfig, System, Window};
//! use zen2_isa::{KernelClass, OperandWeight};
//! use zen2_topology::ThreadId;
//!
//! let mut sc = Scenario::new();
//! sc.at_secs(0.0).workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
//! sc.probe("busy", Probe::AcTrueMeanW, Window::span_secs(0.05, 0.25));
//! let run = System::new(SimConfig::epyc_7502_2s(), 7).run_scenario(&sc).unwrap();
//! assert!(run.watts("busy") > 150.0);
//! ```
//!
//! A scenario keeps its steps in time order (insertion order within one
//! tick) and holds steps and probes behind `Arc`s, so a clone — a
//! sweep's build function handing out its scenario, a
//! [`Case`](crate::Case) — shares them and copies none. Each [`At`]
//! cursor takes the steps once and puts its actions in time order.
//!
//! A run of like actions is stored once: consecutive actions at one tick
//! that repeat one action, parameters equal bit for bit, on consecutive
//! threads `t, t + 1, …` are one entry with a step count, so a Fig. 10
//! tick that re-weights all 128 threads is one entry, not 128. A cursor
//! in time order writes at the end of the steps, so the run its action
//! can extend is the last entry, and extending it compares a few fields.
//! [`At::workloads`] schedules one workload on a range of threads and,
//! when its first action lands at the end, counts the rest into that
//! entry at once, so building a tick costs per entry, not per thread.
//! [`Scenario::steps`], `Debug` and `==` see every step, in the same
//! order, however the runs are stored. An entry of one step takes the 24
//! bytes a [`Step`] does; the counts of longer runs live in a side list.
//! Validation checks a run's thread range once and then replays its
//! threads in a tight loop, and execution hands each tick's entries to
//! the machine as stored, which applies a run of like workload or idle
//! actions in one loop over its threads.
//!
//! Execution walks the steps in that order and the window ends and
//! window starts, each sorted by tick once, with one cursor each, plus a
//! queue holding each open window's next mid-window obligation (a RAPL
//! poll, a counter snapshot, a wakeup draw): the next breakpoint is the
//! earliest tick among them. Only open windows hold engine state, and a
//! closing window writes its measurement straight into the [`Run`], so a
//! run's probe state is bounded by the windows open at once, however
//! long it runs. The RAPL polls and window opens due at one breakpoint
//! read the energy MSRs of one sync. A [`Session`](crate::Session) case
//! also drops the AC-trace segments no probe can read any more, and a
//! trace window that closes while no other is open takes the tracer's
//! records instead of copying them (see `run_scenario_prechecked`).

use crate::config::SimConfig;
use crate::perf::ThreadCounters;
use crate::probe::{
    EventFilter, Measurement, Probe, ProbeSpec, RaplDomainsWindow, Run, Window, MAX_WINDOW_NS,
};
use crate::system::System;
use crate::time::{from_secs, to_secs, Ns, MILLISECOND};
use crate::trace::Record;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::sync::Arc;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_topology::ThreadId;

/// One machine action, recorded as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Schedule a workload on a hardware thread.
    Workload {
        /// Target thread.
        thread: ThreadId,
        /// Kernel class.
        class: KernelClass,
        /// Operand Hamming weight.
        weight: OperandWeight,
    },
    /// Remove the workload; the thread idles into its deepest C-state.
    Idle {
        /// Target thread.
        thread: ThreadId,
    },
    /// Set the userspace-governor frequency request of a thread.
    PstateMhz {
        /// Target thread.
        thread: ThreadId,
        /// Requested frequency; must be a defined P-state.
        mhz: u32,
    },
    /// Enable/disable an idle state (sysfs `cpuidle/stateN/disable`).
    CstateEnabled {
        /// Target thread.
        thread: ThreadId,
        /// C-state level (1 or 2 on this machine).
        level: u8,
        /// New enablement.
        enabled: bool,
    },
    /// Hotplug a thread (sysfs `online`).
    Online {
        /// Target thread.
        thread: ThreadId,
        /// New hotplug state.
        online: bool,
    },
    /// Fast-forward thermals to steady state (the paper's pre-heat).
    Preheat,
    /// Enable or disable the lo2s-style event tracer.
    Tracing(bool),
}

impl Op {
    /// The hardware thread this action targets, if any.
    pub fn target(&self) -> Option<ThreadId> {
        match *self {
            Op::Workload { thread, .. }
            | Op::Idle { thread }
            | Op::PstateMhz { thread, .. }
            | Op::CstateEnabled { thread, .. }
            | Op::Online { thread, .. } => Some(thread),
            Op::Preheat | Op::Tracing(_) => None,
        }
    }
}

/// A thread's scheduling state as the validator replays the schedule
/// (boot state: online, idle, every C-state enabled). Mirrors the
/// runtime transitions in [`System`], including the POLL latch: an idle
/// thread with every C-state disabled spins in an active POLL loop, and
/// re-enabling a C-state does *not* re-settle it (only a fresh idle
/// transition does — `set_cstate_enabled` leaves active threads alone).
#[derive(Debug, Clone, Copy)]
pub(crate) struct VThread {
    pub(crate) has_work: bool,
    pub(crate) polling: bool,
    pub(crate) offline: bool,
    pub(crate) c1_enabled: bool,
    pub(crate) c2_enabled: bool,
}

impl Default for VThread {
    fn default() -> Self {
        Self { has_work: false, polling: false, offline: false, c1_enabled: true, c2_enabled: true }
    }
}

impl VThread {
    fn all_cstates_disabled(&self) -> bool {
        !self.c1_enabled && !self.c2_enabled
    }

    /// Applies one action targeting this thread.
    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Workload { .. } => {
                self.has_work = true;
                self.polling = false;
            }
            Op::Idle { .. } => {
                if !self.offline {
                    self.has_work = false;
                    self.polling = self.all_cstates_disabled();
                }
            }
            Op::Online { online, .. } => {
                if !online {
                    self.offline = true;
                    self.has_work = false;
                    self.polling = false;
                } else if self.offline {
                    self.offline = false;
                    self.polling = self.all_cstates_disabled();
                }
            }
            Op::CstateEnabled { level, enabled, .. } => {
                match level {
                    1 => self.c1_enabled = enabled,
                    _ => self.c2_enabled = enabled,
                }
                // The runtime re-settles only threads that are not
                // active; a polling thread *is* active and keeps polling.
                if !self.offline && !self.has_work && !self.polling {
                    self.polling = self.all_cstates_disabled();
                }
            }
            Op::PstateMhz { .. } | Op::Preheat | Op::Tracing(_) => {}
        }
    }

    /// Whether the thread is asleep in some C-state.
    fn is_sleeping(&self) -> bool {
        !self.offline && !self.has_work && !self.polling
    }
}

/// A scheduled action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Scenario-relative time, ns.
    pub at: Ns,
    /// The action.
    pub op: Op,
}

/// Step `k` of a run whose first step is `op`: the same action on the
/// thread `k` after `op`'s.
pub(crate) fn nth(op: Op, k: u32) -> Op {
    let on = |thread: ThreadId| ThreadId(thread.0 + k);
    match op {
        Op::Workload { thread, class, weight } => {
            Op::Workload { thread: on(thread), class, weight }
        }
        Op::Idle { thread } => Op::Idle { thread: on(thread) },
        Op::PstateMhz { thread, mhz } => Op::PstateMhz { thread: on(thread), mhz },
        Op::CstateEnabled { thread, level, enabled } => {
            Op::CstateEnabled { thread: on(thread), level, enabled }
        }
        Op::Online { thread, online } => Op::Online { thread: on(thread), online },
        Op::Preheat | Op::Tracing(_) => op,
    }
}

/// Whether `op` continues the run of `n` steps whose first step is
/// `first`: the same action, parameters equal bit for bit, on the thread
/// after the run's last. `OperandWeight(0.0) == OperandWeight(-0.0)`, but
/// the two print differently, so they never share a run. Preheat and
/// tracing toggles never form one, and a run holds at most `u32::MAX`
/// steps.
#[inline(always)]
fn continues(first: Op, n: u32, op: Op) -> bool {
    let next = |a: ThreadId, b: ThreadId| n < u32::MAX && a.0 as u64 + n as u64 == b.0 as u64;
    match (first, op) {
        (
            Op::Workload { thread: a, class: c, weight: w },
            Op::Workload { thread: b, class: d, weight: v },
        ) => next(a, b) && c == d && w.0.to_bits() == v.0.to_bits(),
        (Op::Idle { thread: a }, Op::Idle { thread: b }) => next(a, b),
        (Op::PstateMhz { thread: a, mhz: m }, Op::PstateMhz { thread: b, mhz: k }) => {
            next(a, b) && m == k
        }
        (
            Op::CstateEnabled { thread: a, level: l, enabled: e },
            Op::CstateEnabled { thread: b, level: k, enabled: f },
        ) => next(a, b) && l == k && e == f,
        (Op::Online { thread: a, online: o }, Op::Online { thread: b, online: p }) => {
            next(a, b) && o == p
        }
        _ => false,
    }
}

/// A scenario's steps in time order, insertion order within one tick,
/// each run of like actions stored once.
#[derive(Clone, Default)]
struct Steps {
    /// Each entry's first step.
    entries: Vec<Step>,
    /// `(entry, steps)` of each entry of two or more steps, in entry order.
    runs: Vec<(usize, u32)>,
}

impl Steps {
    /// Every entry with its step count.
    fn entries(&self) -> impl Iterator<Item = (&Step, u32)> + '_ {
        let mut runs = self.runs.iter().peekable();
        self.entries.iter().enumerate().map(move |(i, step)| {
            (step, runs.next_if(|&&(entry, _)| entry == i).map_or(1, |&(_, n)| n))
        })
    }

    /// Puts `op` at tick `t` behind every step at or before `t`, and
    /// returns whether it is now the last step of the last entry.
    #[inline(always)]
    fn push(&mut self, t: Ns, op: Op) -> bool {
        match self.entries.last().map(|last| last.at) {
            Some(last) if last == t && self.extend_last(op) => true,
            Some(last) if last > t => {
                self.entries.push(Step { at: t, op });
                self.place_last();
                false
            }
            _ => {
                self.entries.push(Step { at: t, op });
                true
            }
        }
    }

    /// Counts `more` further steps into the last entry, each its last step
    /// repeated on the next thread, or as many as a run of `u32::MAX`
    /// steps has room for; returns how many it counted.
    fn extend_last_by(&mut self, more: u32) -> u32 {
        let end = self.entries.len() - 1;
        let run = self.runs.last_mut().filter(|run| run.0 == end);
        let n = run.as_ref().map_or(1, |run| run.1);
        let more = more.min(u32::MAX - n);
        match run {
            Some(run) => run.1 += more,
            None if more > 0 => self.runs.push((end, 1 + more)),
            None => {}
        }
        more
    }

    /// Counts `op` into the last entry, which is at `op`'s tick, when `op`
    /// continues it.
    #[inline(always)]
    fn extend_last(&mut self, op: Op) -> bool {
        let end = self.entries.len() - 1;
        let run = self.runs.last_mut().filter(|run| run.0 == end);
        if !continues(self.entries[end].op, run.as_ref().map_or(1, |run| run.1), op) {
            return false;
        }
        match run {
            Some(run) => run.1 += 1,
            None => self.runs.push((end, 2)),
        }
        true
    }

    /// Moves the last entry, pushed behind a later step, behind every step
    /// at or before its tick instead: it extends the entry there when that
    /// entry is at its tick and it continues it, and stays an entry of its
    /// own otherwise.
    #[cold]
    #[inline(never)]
    fn place_last(&mut self) {
        let Some(Step { at, op }) = self.entries.pop() else { return };
        let i = self.entries.partition_point(|s| s.at <= at);
        // The first run at or after entry `i - 1`, and whether it is that
        // entry's.
        let slot = self.runs.partition_point(|&(entry, _)| entry + 1 < i);
        let prev_run = self.runs.get(slot).filter(|&&(entry, _)| entry + 1 == i).map(|r| r.1);
        if let Some(prev) = i.checked_sub(1).filter(|&p| self.entries[p].at == at) {
            if continues(self.entries[prev].op, prev_run.unwrap_or(1), op) {
                match prev_run {
                    Some(_) => self.runs[slot].1 += 1,
                    None => self.runs.insert(slot, (prev, 2)),
                }
                return;
            }
        }
        self.entries.insert(i, Step { at, op });
        for run in &mut self.runs[slot + usize::from(prev_run.is_some())..] {
            run.0 += 1;
        }
    }
}

/// An iterator that knows how many items it has left.
struct Counted<I> {
    inner: I,
    remaining: usize,
}

impl<I: Iterator> Iterator for Counted<I> {
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next()?;
        self.remaining -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<I: Iterator> ExactSizeIterator for Counted<I> {}

/// A declarative machine schedule plus its observation plan. Clones
/// share the steps and probes until one of them is modified.
#[derive(Clone, Default)]
pub struct Scenario {
    steps: Arc<Steps>,
    probes: Arc<Vec<ProbeSpec>>,
    /// Minimum run length, ns (the scenario runs to at least here even if
    /// no step or window reaches that far).
    run_until: Ns,
}

/// `Debug` and `==` see the step list [`Scenario::steps`] yields, so
/// neither depends on how runs are stored, and the checkpoint
/// fingerprints that hash the `Debug` text stay those of the step list.
impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct StepList<'a>(&'a Scenario);
        impl fmt::Debug for StepList<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.steps()).finish()
            }
        }
        f.debug_struct("Scenario")
            .field("steps", &StepList(self))
            .field("probes", &self.probes)
            .field("run_until", &self.run_until)
            .finish()
    }
}

impl PartialEq for Scenario {
    fn eq(&self, other: &Self) -> bool {
        self.steps().eq(other.steps())
            && self.probes == other.probes
            && self.run_until == other.run_until
    }
}

impl Scenario {
    /// An empty scenario.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a cursor scheduling actions at `t` nanoseconds.
    pub fn at(&mut self, t: Ns) -> At<'_> {
        At { steps: Arc::make_mut(&mut self.steps), t }
    }

    /// Opens a cursor scheduling actions at `t` seconds.
    pub fn at_secs(&mut self, t: f64) -> At<'_> {
        self.at(from_secs(t))
    }

    /// Registers an observation.
    pub fn probe(&mut self, label: impl Into<String>, probe: Probe, window: Window) -> &mut Self {
        Arc::make_mut(&mut self.probes).push(ProbeSpec { label: label.into(), probe, window });
        self
    }

    /// Extends the scenario to run at least until `t` nanoseconds.
    pub fn run_until(&mut self, t: Ns) -> &mut Self {
        self.run_until = self.run_until.max(t);
        self
    }

    /// Extends the scenario to run at least until `t` seconds.
    pub fn run_until_secs(&mut self, t: f64) -> &mut Self {
        self.run_until(from_secs(t))
    }

    /// The scheduled steps, in time order, insertion order within a tick;
    /// a run of like actions yields one step per thread.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = Step> + '_ {
        let steps = self
            .steps
            .entries()
            .flat_map(|(&step, n)| (0..n).map(move |k| Step { at: step.at, op: nth(step.op, k) }));
        let extra: usize = self.steps.runs.iter().map(|&(_, n)| n as usize - 1).sum();
        Counted { inner: steps, remaining: self.steps.entries.len() + extra }
    }

    /// The scheduled entries, in time order: each step, or each run of
    /// like actions stored as one entry, with its step count.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (Step, u32)> + '_ {
        self.steps.entries().map(|(&step, n)| (step, n))
    }

    /// Whether an entry of the scenario holds a run of two or more steps.
    pub(crate) fn stores_runs(&self) -> bool {
        !self.steps.runs.is_empty()
    }

    /// How many entries hold the steps.
    #[cfg(test)]
    pub(crate) fn entry_count(&self) -> usize {
        self.steps.entries.len()
    }

    /// The registered observations, in insertion order.
    pub fn probes(&self) -> &[ProbeSpec] {
        &self.probes
    }

    /// Whether a probe reads a RAPL counter ([`Probe::RaplW`],
    /// [`Probe::RaplPkgW`], [`Probe::RaplCoreW`] or
    /// [`Probe::PkgEnergyMsr`]). [`Session`](crate::Session) runs a case
    /// whose scenario does not on a machine that keeps no RAPL accounting.
    pub(crate) fn reads_rapl(&self) -> bool {
        self.probes.iter().any(|spec| {
            matches!(
                spec.probe,
                Probe::RaplW | Probe::RaplPkgW | Probe::RaplCoreW(_) | Probe::PkgEnergyMsr(_)
            )
        })
    }

    /// The core domains whose RAPL energy a probe reads, of a machine of
    /// `num_cores` cores, ascending: every core for a [`Probe::RaplW`],
    /// the named core for a [`Probe::RaplCoreW`], and none for a
    /// [`Probe::RaplPkgW`] or [`Probe::PkgEnergyMsr`], which read the
    /// package domains only. [`Session`](crate::Session) runs a case that
    /// reads RAPL on a machine that keeps these core domains and every
    /// package domain only.
    pub(crate) fn rapl_cores(&self, num_cores: usize) -> Vec<usize> {
        if self.probes.iter().any(|spec| spec.probe == Probe::RaplW) {
            return (0..num_cores).collect();
        }
        let mut cores: Vec<usize> = self
            .probes
            .iter()
            .filter_map(|spec| match spec.probe {
                Probe::RaplCoreW(core) => Some(core.index()),
                _ => None,
            })
            .collect();
        cores.sort_unstable();
        cores.dedup();
        cores
    }

    /// The threads whose performance counters a probe reads
    /// ([`Probe::CounterDelta`] or [`Probe::CounterSeries`]), sorted and
    /// deduplicated. [`Session`](crate::Session) runs a case on a machine
    /// that keeps the counters of these threads only.
    pub(crate) fn counter_threads(&self) -> Vec<ThreadId> {
        let mut threads: Vec<ThreadId> = self
            .probes
            .iter()
            .filter_map(|spec| match spec.probe {
                Probe::CounterDelta(thread) | Probe::CounterSeries { thread, .. } => Some(thread),
                _ => None,
            })
            .collect();
        threads.sort_unstable();
        threads.dedup();
        threads
    }

    /// The explicit minimum run length set through
    /// [`run_until`](Self::run_until), ns (0 when never set). The
    /// scenario may still run longer — see [`end`](Self::end).
    pub fn run_until_ns(&self) -> Ns {
        self.run_until
    }

    /// Total scenario length: the furthest step, window edge, or
    /// [`run_until`](Self::run_until) point.
    pub fn end(&self) -> Ns {
        let step_end = self.steps.entries.last().map_or(0, |s| s.at);
        let probe_end = self.probes.iter().map(|p| p.window.to).max().unwrap_or(0);
        self.run_until.max(step_end).max(probe_end)
    }

    /// Validates the schedule against a machine configuration without
    /// running anything: thread/core/socket bounds, P-state table
    /// membership, C-state levels, window shapes, unique probe labels,
    /// that no workload or idle transition targets a thread that is
    /// offline at that point of the schedule, and that wakeup probes
    /// only ever sample a sleeping callee. Threads are assumed online
    /// and idle at scenario start, as on a freshly booted machine;
    /// [`System::run_scenario`] validates against the machine's *actual*
    /// state instead.
    pub fn validate(&self, cfg: &SimConfig) -> Result<(), ScenarioError> {
        self.validate_with(cfg, vec![VThread::default(); cfg.topology.num_threads()])
    }

    /// [`validate`](Self::validate) from an explicit initial per-thread
    /// state (the live machine's, when running on a machine that has
    /// already executed something).
    pub(crate) fn validate_with(
        &self,
        cfg: &SimConfig,
        initial: Vec<VThread>,
    ) -> Result<(), ScenarioError> {
        let num_threads = cfg.topology.num_threads() as u32;
        let num_cores = cfg.topology.num_cores() as u32;
        let num_sockets = cfg.topology.num_sockets() as u32;
        // The first thread of `first, first + 1, …` (`n` threads) the
        // machine does not have.
        let check_threads = |first: ThreadId, n: u32| {
            if first.0 as u64 + n as u64 > num_threads as u64 {
                let thread = ThreadId(first.0.max(num_threads));
                Err(ScenarioError::ThreadOutOfRange { thread, num_threads })
            } else {
                Ok(())
            }
        };
        let check_thread = |thread: ThreadId| check_threads(thread, 1);

        // A run repeats one action on consecutive threads: its parameters
        // are checked once, and its first out-of-range thread is the one
        // a step-by-step check would name.
        for (step, n) in self.steps.entries() {
            match step.op {
                Op::Workload { thread, .. } | Op::Idle { thread } | Op::Online { thread, .. } => {
                    check_threads(thread, n)?
                }
                Op::PstateMhz { thread, mhz } => {
                    check_thread(thread)?;
                    if cfg.pstates.index_of_frequency(mhz).is_none() {
                        return Err(ScenarioError::UndefinedPstate { mhz });
                    }
                    check_threads(thread, n)?;
                }
                Op::CstateEnabled { thread, level, .. } => {
                    check_thread(thread)?;
                    if !(1..=2).contains(&level) {
                        return Err(ScenarioError::UndefinedCstate { level });
                    }
                    check_threads(thread, n)?;
                }
                Op::Preheat | Op::Tracing(_) => {}
            }
        }

        // Schedule consistency: replay the steps (already in time order),
        // tracking each thread's scheduling state, and reject transitions
        // the runtime would panic on (or silently ignore) mid-simulation.
        // A run's steps target distinct threads, so each thread of it sees
        // only its own step.
        assert_eq!(initial.len(), num_threads as usize, "initial state per thread");
        let mut threads = initial.clone();
        for (step, n) in self.steps.entries() {
            let Some(first) = step.op.target() else { continue };
            let schedules = matches!(step.op, Op::Workload { .. } | Op::Idle { .. });
            let run = &mut threads[first.index()..first.index() + n as usize];
            for (k, state) in (0..).zip(run) {
                if schedules && state.offline {
                    let thread = ThreadId(first.0 + k);
                    return Err(ScenarioError::ActionOnOfflineThread { thread, at: step.at });
                }
                state.apply(&step.op);
            }
        }

        // The same cap that bounds windows bounds the whole scenario —
        // a stray ns/secs mix-up must not demand eons of simulated time.
        if self.end() > MAX_WINDOW_NS {
            return Err(ScenarioError::ScenarioTooLong { end: self.end() });
        }

        // zen2-lint: allow(no-unordered-iteration) — membership-only duplicate-label probe; never iterated
        let mut labels = std::collections::HashSet::with_capacity(self.probes.len());
        for spec in self.probes.iter() {
            if !labels.insert(spec.label.as_str()) {
                return Err(ScenarioError::DuplicateLabel { label: spec.label.clone() });
            }
            let w = spec.window;
            if w.from > w.to {
                return Err(ScenarioError::NegativeWindow { label: spec.label.clone() });
            }
            if w.to - w.from > MAX_WINDOW_NS {
                return Err(ScenarioError::WindowOutOfRange { label: spec.label.clone() });
            }
            if spec.probe.is_instant() != w.is_instant() {
                return Err(ScenarioError::WindowShapeMismatch {
                    label: spec.label.clone(),
                    instant_probe: spec.probe.is_instant(),
                });
            }
            match spec.probe {
                Probe::CounterDelta(thread) => check_thread(thread)?,
                Probe::CounterSeries { thread, every } => {
                    check_thread(thread)?;
                    if every == 0 {
                        return Err(ScenarioError::ZeroInterval { label: spec.label.clone() });
                    }
                    if (w.to - w.from) / every > MAX_PROBE_SAMPLES {
                        return Err(ScenarioError::SamplingPlanTooLarge {
                            label: spec.label.clone(),
                        });
                    }
                }
                Probe::WakeupSamples { caller, callee, count, gap } => {
                    check_thread(caller)?;
                    check_thread(callee)?;
                    if count == 0 || gap == 0 {
                        return Err(ScenarioError::ZeroInterval { label: spec.label.clone() });
                    }
                    if count as u64 > MAX_PROBE_SAMPLES {
                        return Err(ScenarioError::SamplingPlanTooLarge {
                            label: spec.label.clone(),
                        });
                    }
                    if w.from as u128 + count as u128 * gap as u128 > w.to as u128 {
                        return Err(ScenarioError::WindowOutOfRange { label: spec.label.clone() });
                    }
                    // The runtime panics when sampling a non-sleeping
                    // callee; one forward sweep replays the callee's
                    // state across the sample times (samples observe the
                    // state *before* actions scheduled at the same
                    // instant).
                    let mut state = initial[callee.index()];
                    let mut steps = self
                        .steps
                        .entries()
                        .filter(|&(s, n)| {
                            s.op.target()
                                .is_some_and(|first| (first.0..first.0 + n).contains(&callee.0))
                        })
                        .map(|(&s, _)| s)
                        .peekable();
                    for k in 1..=count as u64 {
                        let t = w.from + k * gap;
                        while let Some(step) = steps.next_if(|s| s.at < t) {
                            state.apply(&step.op);
                        }
                        if !state.is_sleeping() {
                            return Err(ScenarioError::WakeupCalleeNotSleeping {
                                label: spec.label.clone(),
                                at: t,
                            });
                        }
                    }
                }
                Probe::EffectiveGhz(core) | Probe::RaplCoreW(core) | Probe::L3LatencyNs(core)
                    if core.0 >= num_cores =>
                {
                    return Err(ScenarioError::CoreOutOfRange { core: core.0, num_cores });
                }
                Probe::PkgTrueW(socket) | Probe::PkgEnergyMsr(socket)
                    if socket.0 >= num_sockets =>
                {
                    return Err(ScenarioError::SocketOutOfRange { socket: socket.0, num_sockets });
                }
                Probe::StreamTriadGbs(0) => {
                    return Err(ScenarioError::ZeroInterval { label: spec.label.clone() });
                }
                Probe::StreamTriadGbs(cores) if cores > num_cores => {
                    return Err(ScenarioError::CoreOutOfRange { core: cores, num_cores });
                }
                Probe::AcMeteredW => {
                    // `metered_mean_w` averages LMG670 samples over the
                    // inner 80 % of the window and panics when none land
                    // there; samples arrive at `from + k*period`. Require
                    // a sample at least 1 ms inside the trimmed region so
                    // float rounding in the seconds-domain comparison can
                    // never starve the mean at runtime.
                    let len = w.to - w.from;
                    let period = from_secs(zen2_power::PowerMeter::lmg670().period_s());
                    let k = ((len + 10 * MILLISECOND).div_ceil(10 * period)).max(1);
                    let t = k * period;
                    if t > len || 10 * t + 10 * MILLISECOND > 9 * len {
                        return Err(ScenarioError::MeterWindowTooShort {
                            label: spec.label.clone(),
                        });
                    }
                }
                Probe::TraceEvents(filter) => match filter {
                    EventFilter::Freq(core) => {
                        if core.0 >= num_cores {
                            return Err(ScenarioError::CoreOutOfRange { core: core.0, num_cores });
                        }
                    }
                    EventFilter::ThreadState(thread) => check_thread(thread)?,
                    EventFilter::PackageSleep(socket) | EventFilter::CapChanged(socket) => {
                        if socket.0 >= num_sockets {
                            return Err(ScenarioError::SocketOutOfRange {
                                socket: socket.0,
                                num_sockets,
                            });
                        }
                    }
                    EventFilter::All => {}
                },
                _ => {}
            }
        }
        Ok(())
    }
}

/// A cursor scheduling actions at one point in time; every method chains.
/// Its actions go behind every step scheduled at or before their time and
/// in front of any later one, so the scenario stays in time order.
pub struct At<'a> {
    steps: &'a mut Steps,
    t: Ns,
}

// The per-action methods are inlined across crates: drivers chain them
// in loops that interleave actions (Fig. 7 and Fig. 9 request a
// frequency on both siblings and load each thread in turn). `push` is
// forced inline and writes a new entry's `Op` straight into the steps;
// left to the compiler, it stayed out of line in the experiment crates
// and passed each `Op` through memory. A tick that loads a range of
// threads alike calls `workloads` instead, which pushes the range as
// one entry.
impl At<'_> {
    #[inline(always)]
    fn push(self, op: Op) -> Self {
        self.steps.push(self.t, op);
        self
    }

    /// Schedules a workload on a hardware thread.
    #[inline]
    pub fn workload(self, thread: ThreadId, class: KernelClass, weight: OperandWeight) -> Self {
        self.push(Op::Workload { thread, class, weight })
    }

    /// Schedules one workload on the `n` threads `first, first + 1, …`:
    /// the same steps and entries as `n` calls of
    /// [`workload`](Self::workload) in thread order, but when the first
    /// of them lands at the end of the steps, the rest extend its entry
    /// at once. `n = 0` schedules nothing.
    ///
    /// # Panics
    /// Panics when the range reaches past `ThreadId(u32::MAX)`.
    pub fn workloads(
        self,
        first: ThreadId,
        n: u32,
        class: KernelClass,
        weight: OperandWeight,
    ) -> Self {
        let Some(rest) = n.checked_sub(1) else { return self };
        assert!(
            first.0.checked_add(rest).is_some(),
            "workloads: {n} threads from {first:?} reach past ThreadId(u32::MAX)"
        );
        let op = Op::Workload { thread: first, class, weight };
        let counted = if self.steps.push(self.t, op) { self.steps.extend_last_by(rest) } else { 0 };
        (counted + 1..=rest).fold(self, |at, k| at.push(nth(op, k)))
    }

    /// Schedules the removal of a thread's workload.
    #[inline]
    pub fn idle(self, thread: ThreadId) -> Self {
        self.push(Op::Idle { thread })
    }

    /// Schedules a frequency request.
    #[inline]
    pub fn pstate(self, thread: ThreadId, mhz: u32) -> Self {
        self.push(Op::PstateMhz { thread, mhz })
    }

    /// Schedules a C-state enable/disable.
    #[inline]
    pub fn cstate(self, thread: ThreadId, level: u8, enabled: bool) -> Self {
        self.push(Op::CstateEnabled { thread, level, enabled })
    }

    /// Schedules a hotplug transition.
    #[inline]
    pub fn online(self, thread: ThreadId, online: bool) -> Self {
        self.push(Op::Online { thread, online })
    }

    /// Schedules a thermal pre-heat (steady-state fast-forward).
    #[inline]
    pub fn preheat(self) -> Self {
        self.push(Op::Preheat)
    }

    /// Schedules enabling/disabling the event tracer.
    #[inline]
    pub fn tracing(self, enabled: bool) -> Self {
        self.push(Op::Tracing(enabled))
    }
}

/// Why a scenario failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A step or probe names a thread the topology does not have.
    ThreadOutOfRange {
        /// The offending thread.
        thread: ThreadId,
        /// Threads on this machine.
        num_threads: u32,
    },
    /// A probe names a core the topology does not have.
    CoreOutOfRange {
        /// The offending core index.
        core: u32,
        /// Cores on this machine.
        num_cores: u32,
    },
    /// A probe names a socket the topology does not have.
    SocketOutOfRange {
        /// The offending socket index.
        socket: u32,
        /// Sockets on this machine.
        num_sockets: u32,
    },
    /// A frequency request is not in the P-state table.
    UndefinedPstate {
        /// The offending frequency.
        mhz: u32,
    },
    /// A C-state level this machine does not expose.
    UndefinedCstate {
        /// The offending level.
        level: u8,
    },
    /// A workload or idle transition targets a thread that is offline at
    /// that point of the schedule.
    ActionOnOfflineThread {
        /// The offending thread.
        thread: ThreadId,
        /// When the action was scheduled, ns.
        at: Ns,
    },
    /// Two probes share a label; [`Run::get`](crate::Run::get) could only
    /// ever see the first.
    DuplicateLabel {
        /// The repeated label.
        label: String,
    },
    /// A wakeup probe would sample a callee that is active or offline at
    /// a sample time (there is no wakeup latency to measure).
    WakeupCalleeNotSleeping {
        /// The offending probe's label.
        label: String,
        /// The first sample time the callee is not sleeping, ns.
        at: Ns,
    },
    /// A window with `from > to`.
    NegativeWindow {
        /// The offending probe's label.
        label: String,
    },
    /// A window beyond the scenario end, absurdly long, or too short for
    /// its probe's sampling plan.
    WindowOutOfRange {
        /// The offending probe's label.
        label: String,
    },
    /// A span probe with an instant window or vice versa.
    WindowShapeMismatch {
        /// The offending probe's label.
        label: String,
        /// Whether the probe side is instantaneous.
        instant_probe: bool,
    },
    /// A series/sampling probe with a zero interval or count.
    ZeroInterval {
        /// The offending probe's label.
        label: String,
    },
    /// A series/sampling probe that would take more than
    /// [`MAX_PROBE_SAMPLES`] samples (guards the engine against
    /// accidental memory blow-ups from a tiny interval).
    SamplingPlanTooLarge {
        /// The offending probe's label.
        label: String,
    },
    /// The scenario's furthest step or window exceeds the simulated-time
    /// cap (usually a nanoseconds/seconds mix-up).
    ScenarioTooLong {
        /// The scenario end, ns.
        end: Ns,
    },
    /// An [`AcMeteredW`](Probe::AcMeteredW) window too short for the
    /// LMG670's 50 ms sample period to land a sample inside the inner
    /// 80 % of the window (the mean would have nothing to average).
    MeterWindowTooShort {
        /// The offending probe's label.
        label: String,
    },
}

/// Most samples any single probe may take across its window.
pub const MAX_PROBE_SAMPLES: u64 = 1_000_000;

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ThreadOutOfRange { thread, num_threads } => {
                write!(f, "thread {} out of range (machine has {num_threads})", thread.0)
            }
            Self::CoreOutOfRange { core, num_cores } => {
                write!(f, "core {core} out of range (machine has {num_cores})")
            }
            Self::SocketOutOfRange { socket, num_sockets } => {
                write!(f, "socket {socket} out of range (machine has {num_sockets})")
            }
            Self::UndefinedPstate { mhz } => write!(f, "{mhz} MHz is not a defined P-state"),
            Self::UndefinedCstate { level } => {
                write!(f, "the machine has C-states 1 and 2, not {level}")
            }
            Self::ActionOnOfflineThread { thread, at } => {
                write!(f, "workload/idle on offline thread {} at {at} ns", thread.0)
            }
            Self::DuplicateLabel { label } => {
                write!(f, "probe label {label:?} is used more than once")
            }
            Self::WakeupCalleeNotSleeping { label, at } => {
                write!(f, "probe {label:?}: wakeup callee is not sleeping at {at} ns")
            }
            Self::NegativeWindow { label } => write!(f, "probe {label:?}: window runs backwards"),
            Self::WindowOutOfRange { label } => {
                write!(f, "probe {label:?}: window too long or too short for its sampling plan")
            }
            Self::WindowShapeMismatch { label, instant_probe } => write!(
                f,
                "probe {label:?}: {} probe needs {} window",
                if *instant_probe { "an instant" } else { "a span" },
                if *instant_probe { "an instant (from == to)" } else { "a span (from < to)" },
            ),
            Self::ZeroInterval { label } => {
                write!(f, "probe {label:?}: sampling interval/count must be positive")
            }
            Self::SamplingPlanTooLarge { label } => {
                write!(f, "probe {label:?}: more than {MAX_PROBE_SAMPLES} samples in one window")
            }
            Self::ScenarioTooLong { end } => {
                write!(
                    f,
                    "scenario runs to {end} ns, beyond the {MAX_WINDOW_NS} ns cap \
                     (nanoseconds/seconds mix-up?)"
                )
            }
            Self::MeterWindowTooShort { label } => {
                write!(
                    f,
                    "probe {label:?}: window too short for a 50 ms meter sample to land \
                     in its inner 80 % (needs roughly 57 ms or more)"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// An open window's engine state. A window holds one from its start to
/// its end; instant probes never hold one.
enum ProbeState {
    Span,
    Counter { begin: ThreadCounters },
    Series { snaps: Vec<ThreadCounters> },
    Rapl { packages: RaplDomainsWindow, cores: RaplDomainsWindow },
    RaplDomains { window: RaplDomainsWindow },
    Wakeup { samples: Vec<f64> },
    Energy { start_j: f64 },
}

impl System {
    /// Executes a scenario on this machine and returns its [`Run`].
    ///
    /// Validates first — against the machine's *live* thread states, not
    /// boot defaults — so nothing is simulated if validation fails.
    /// Times in the scenario are relative to the machine's current time,
    /// so a scenario can also be replayed on a machine that has already
    /// run.
    ///
    /// Ordering within one timestamp is deterministic: probe sampling
    /// obligations and window *ends* first (measurements close before the
    /// machine changes), then scheduled actions, then window *starts*
    /// (measurements open on the post-action state). A tick's actions
    /// apply in insertion order and resolve once, after the last of them:
    /// clocks and power are evaluated on the tick's final state, so its
    /// intermediate states leave no AC-trace segment (they would last
    /// zero time) and no package sleep event. A P-state request resolves
    /// nothing, so the tick still resolves once however its requests
    /// interleave with its scheduling actions, and its package sleep
    /// events follow its `FreqRequested` records. A preheat or tracing
    /// toggle still resolves on its own, after the actions before it.
    ///
    /// The machine keeps its RAPL accounting whatever the scenario reads,
    /// and its whole AC trace, so [`trace_mean_w`](Self::trace_mean_w)
    /// can read any past window afterwards; only
    /// [`Session`](crate::Session) runs a scenario that reads no RAPL
    /// counter without the accounting, and trims the trace, with the same
    /// results.
    pub fn run_scenario(&mut self, scenario: &Scenario) -> Result<Run, ScenarioError> {
        scenario.validate_with(self.config(), self.scheduling_snapshot())?;
        Ok(self.run_scenario_prechecked(scenario, false))
    }

    /// Executes an already-validated scenario ([`Session`](crate::Session)
    /// validates each shard's cases before running them and skips the
    /// per-case re-check).
    ///
    /// Probe state lives only while its window is open: a window's state
    /// is made when it opens and consumed when it closes, which writes the
    /// measurement into the window's slot of the [`Run`]. A sampled
    /// window (RAPL polls, a counter series, wakeup draws) keeps its next
    /// mid-window obligation in a queue, adding the one after when that
    /// one is served, so a run holds one queued obligation per open
    /// sampled window instead of every poll time of every probe.
    ///
    /// With `trim_trace`, each breakpoint, after its window ends, drops
    /// the AC-trace segments that end before the earliest open window
    /// reading the trace ([`Probe::AcTrueMeanW`], [`Probe::AcMeteredW`],
    /// [`Probe::MeterSamples`]), or before now when none is open, once
    /// they are at least half the trace. No later read reaches them: a
    /// window not yet open starts at or after now. A run that closes such
    /// windows one after another then holds about one window's segments,
    /// however long it runs, and every measurement stays bit-identical.
    ///
    /// With `trim_trace`, a [`Probe::TraceEvents`] window that closes while
    /// no other is open also takes its records out of the tracer instead
    /// of copying them, and the records before its end go with them: no
    /// window still to open starts before now. Fig. 3's one trace window
    /// would otherwise copy ~600k records at its close.
    pub(crate) fn run_scenario_prechecked(&mut self, scenario: &Scenario, trim_trace: bool) -> Run {
        let offset = self.now_ns();

        // A trace probe needs the tracer running for the whole scenario;
        // enable it up front so authors don't have to schedule an explicit
        // `tracing(true)` step (which remains available for finer control).
        // The implicit enable is undone at the end of the run, so a reused
        // machine does not keep recording (and growing) forever.
        let auto_tracing = !self.tracer().is_enabled()
            && scenario.probes().iter().any(|s| matches!(s.probe, Probe::TraceEvents(_)));
        if auto_tracing {
            self.set_tracing(true);
        }

        // Time-indexed dispatch: the steps, window ends and window starts
        // are each sorted by tick once and walked with a cursor, and each
        // open sampled window's next obligation waits in a queue keyed by
        // `(tick, probe, k)`. The next breakpoint is the earliest tick
        // among them, so a breakpoint touches only what is due at it. The
        // sorts are stable and the queue breaks a tick's ties by probe
        // index, keeping declaration order within one tick: closes and
        // draws that consume the machine RNG depend on it.
        let probes = scenario.probes();
        let mut ends: Vec<usize> = (0..probes.len()).collect();
        ends.sort_by_key(|&i| probes[i].window.to);
        let mut starts: Vec<usize> =
            (0..probes.len()).filter(|&i| !probes[i].window.is_instant()).collect();
        starts.sort_by_key(|&i| probes[i].window.from);
        let mut entries = scenario.entries().peekable();
        let (mut end_cursor, mut start_cursor) = (0, 0);
        let mut obligations: BinaryHeap<Reverse<(Ns, usize, u64)>> = BinaryHeap::new();
        let mut open: BTreeMap<usize, ProbeState> = BTreeMap::new();
        // Every probe closes exactly once, and its close overwrites the
        // placeholder.
        let mut measurements: Vec<(String, Measurement)> =
            probes.iter().map(|spec| (spec.label.clone(), Measurement::Raw(0))).collect();
        // The earliest-opened window that may still read the AC trace: no
        // window before it in `starts` does.
        let mut oldest_trace_reader = 0;
        let mut open_trace_windows = 0usize;

        loop {
            let next = [
                entries.peek().map(|(s, _)| s.at),
                obligations.peek().map(|&Reverse((at, _, _))| at),
                ends.get(end_cursor).map(|&i| probes[i].window.to),
                starts.get(start_cursor).map(|&i| probes[i].window.from),
            ];
            let Some(t) = next.into_iter().flatten().min() else { break };
            self.run_to_ns(offset + t);
            // The RAPL actions due now read the energy MSRs of one sync:
            // nothing integrates until the next breakpoint.
            let mut rapl_synced = false;

            // 1. Mid-window sampling obligations due now, each queueing its
            //    window's next one (always later than now).
            while let Some(&Reverse((_, i, k))) =
                obligations.peek().filter(|&&Reverse((at, _, _))| at == t)
            {
                obligations.pop();
                if let Some(at) = probes[i].obligation(k + 1) {
                    obligations.push(Reverse((at, i, k + 1)));
                }
                match (&probes[i].probe, open.get_mut(&i)) {
                    (Probe::CounterSeries { thread, .. }, Some(ProbeState::Series { snaps })) => {
                        snaps.push(self.counters(*thread));
                    }
                    (Probe::RaplW, Some(ProbeState::Rapl { packages, cores })) => {
                        self.sync_rapl_msrs_once(&mut rapl_synced);
                        packages.poll(self);
                        cores.poll(self);
                    }
                    (
                        Probe::RaplPkgW | Probe::RaplCoreW(_),
                        Some(ProbeState::RaplDomains { window }),
                    ) => {
                        self.sync_rapl_msrs_once(&mut rapl_synced);
                        window.poll(self);
                    }
                    (
                        Probe::WakeupSamples { caller, callee, .. },
                        Some(ProbeState::Wakeup { samples }),
                    ) => {
                        samples.push(self.sample_wakeup_ns(*caller, *callee));
                    }
                    _ => {}
                }
            }

            // 2. Window ends (and instant reads) due now, each written into
            //    its slot of the run.
            while let Some(&i) = ends.get(end_cursor).filter(|&&i| probes[i].window.to == t) {
                end_cursor += 1;
                let spec = &probes[i];
                let from = offset + spec.window.from;
                let to = offset + spec.window.to;
                measurements[i].1 = match (&spec.probe, open.remove(&i)) {
                    (Probe::AcTrueMeanW, Some(ProbeState::Span)) => {
                        Measurement::Watts(self.trace_mean_w(from, to))
                    }
                    (Probe::AcMeteredW, Some(ProbeState::Span)) => {
                        Measurement::Watts(self.metered_mean_w(from, to))
                    }
                    (Probe::MeterSamples, Some(ProbeState::Span)) => {
                        Measurement::Samples(self.meter_samples(from, to))
                    }
                    (Probe::RaplW, Some(ProbeState::Rapl { packages, cores })) => {
                        Measurement::WattsPair {
                            pkg_w: packages.finish(self),
                            core_w: cores.finish(self),
                        }
                    }
                    (
                        Probe::RaplPkgW | Probe::RaplCoreW(_),
                        Some(ProbeState::RaplDomains { window }),
                    ) => Measurement::Watts(window.finish(self)),
                    (Probe::TraceEvents(filter), Some(ProbeState::Span)) => {
                        open_trace_windows -= 1;
                        let keep = |r: &Record| filter.matches(&r.event);
                        Measurement::Events(if trim_trace && open_trace_windows == 0 {
                            self.tracer_mut().take_window(from, to, keep)
                        } else {
                            self.tracer().in_window(from, to).filter(|r| keep(r)).cloned().collect()
                        })
                    }
                    (Probe::CounterDelta(thread), Some(ProbeState::Counter { begin })) => {
                        Measurement::CounterDelta {
                            begin: Box::new(begin),
                            end: Box::new(self.counters(*thread)),
                            wall_s: to_secs(to - from),
                        }
                    }
                    (Probe::CounterSeries { .. }, Some(ProbeState::Series { snaps })) => {
                        Measurement::CounterSeries(snaps)
                    }
                    (Probe::WakeupSamples { .. }, Some(ProbeState::Wakeup { samples })) => {
                        Measurement::DurationsNs(samples)
                    }
                    (Probe::AcEnergyJ, Some(ProbeState::Energy { start_j })) => {
                        Measurement::Joules(self.ac_energy_j() - start_j)
                    }
                    (Probe::EffectiveGhz(core), None) => {
                        Measurement::Ghz(self.effective_core_ghz(*core))
                    }
                    (Probe::AcPowerW, None) => Measurement::Watts(self.ac_power_w()),
                    (Probe::PkgTrueW(socket), None) => {
                        Measurement::Watts(self.power_breakdown().pkg_true_w[socket.index()])
                    }
                    (Probe::L3LatencyNs(core), None) => {
                        Measurement::Nanos(self.l3_latency_ns(*core))
                    }
                    (Probe::DramLatencyNs, None) => Measurement::Nanos(self.dram_latency_ns()),
                    (Probe::StreamTriadGbs(cores), None) => {
                        Measurement::GigabytesPerSec(self.stream_triad_gbs(*cores))
                    }
                    (Probe::PkgEnergyMsr(socket), None) => {
                        self.sync_rapl_msrs_once(&mut rapl_synced);
                        Measurement::Raw(self.pkg_energy_counts(*socket))
                    }
                    (probe, _) => {
                        unreachable!(
                            "probe {probe:?} ({:?}) closed from a foreign state",
                            spec.label
                        )
                    }
                };
            }

            if trim_trace {
                while starts[..start_cursor]
                    .get(oldest_trace_reader)
                    .is_some_and(|&i| !probes[i].probe.reads_ac_trace() || !open.contains_key(&i))
                {
                    oldest_trace_reader += 1;
                }
                let keep_from = starts[..start_cursor]
                    .get(oldest_trace_reader)
                    .map_or(offset + t, |&i| offset + probes[i].window.from);
                self.trim_ac_trace(keep_from);
            }

            // 3. Scheduled actions due now (insertion order within the tick),
            //    each stored run applied as one, resolved once after the
            //    last of them.
            self.apply_ops(
                std::iter::from_fn(|| entries.next_if(|(s, _)| s.at == t)).map(|(s, n)| (s.op, n)),
            );

            // 4. Window starts due now open on the post-action state, each
            //    sampled one queueing its first obligation.
            while let Some(&i) = starts.get(start_cursor).filter(|&&i| probes[i].window.from == t) {
                start_cursor += 1;
                let state = match probes[i].probe {
                    Probe::CounterDelta(thread) => {
                        ProbeState::Counter { begin: self.counters(thread) }
                    }
                    Probe::CounterSeries { thread, .. } => {
                        ProbeState::Series { snaps: vec![self.counters(thread)] }
                    }
                    Probe::RaplW => {
                        self.sync_rapl_msrs_once(&mut rapl_synced);
                        ProbeState::Rapl {
                            packages: RaplDomainsWindow::packages(self),
                            cores: RaplDomainsWindow::cores(
                                self,
                                self.config().topology.all_cores(),
                            ),
                        }
                    }
                    Probe::RaplPkgW => {
                        self.sync_rapl_msrs_once(&mut rapl_synced);
                        ProbeState::RaplDomains { window: RaplDomainsWindow::packages(self) }
                    }
                    Probe::RaplCoreW(core) => {
                        self.sync_rapl_msrs_once(&mut rapl_synced);
                        let window = RaplDomainsWindow::cores(self, std::iter::once(core));
                        ProbeState::RaplDomains { window }
                    }
                    Probe::WakeupSamples { .. } => ProbeState::Wakeup { samples: Vec::new() },
                    Probe::AcEnergyJ => ProbeState::Energy { start_j: self.ac_energy_j() },
                    Probe::TraceEvents(_) => {
                        open_trace_windows += 1;
                        ProbeState::Span
                    }
                    _ => ProbeState::Span,
                };
                open.insert(i, state);
                if let Some(at) = probes[i].obligation(1) {
                    obligations.push(Reverse((at, i, 1)));
                }
            }
            #[cfg(test)]
            self.note_probe_state(open.len(), obligations.len());
        }
        self.run_to_ns(offset + scenario.end());

        if auto_tracing {
            self.set_tracing(false);
        }

        Run {
            seed: self.seed(),
            end_ns: self.now_ns(),
            final_ac_w: self.ac_power_w(),
            measurements,
        }
    }

    /// Runs the machine to absolute time `target` if it lies ahead.
    fn run_to_ns(&mut self, target: Ns) {
        if target > self.now_ns() {
            self.run_for_ns(target - self.now_ns());
        }
    }

    /// Syncs the RAPL MSRs unless `synced` says this breakpoint already
    /// did.
    fn sync_rapl_msrs_once(&mut self, synced: &mut bool) {
        if !std::mem::replace(synced, true) {
            self.sync_rapl_msrs();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::MAX_WINDOW_NS;
    use crate::time::SECOND;
    use zen2_topology::{CoreId, SocketId};

    fn cfg() -> SimConfig {
        SimConfig::epyc_7502_2s()
    }

    // One test per ScenarioError variant: every rejection path the
    // torture generator's invalid-proposal catalog relies on is pinned
    // here in its most direct form.

    #[test]
    fn rejects_thread_out_of_range() {
        let mut sc = Scenario::new();
        sc.at(0).idle(ThreadId(128));
        assert!(matches!(
            sc.validate(&cfg()),
            Err(ScenarioError::ThreadOutOfRange { thread: ThreadId(128), num_threads: 128 })
        ));
    }

    #[test]
    fn rejects_core_out_of_range() {
        let mut sc = Scenario::new();
        sc.probe("g", Probe::EffectiveGhz(CoreId(64)), Window::at(0));
        assert!(matches!(
            sc.validate(&cfg()),
            Err(ScenarioError::CoreOutOfRange { core: 64, num_cores: 64 })
        ));
    }

    #[test]
    fn rejects_socket_out_of_range() {
        let mut sc = Scenario::new();
        sc.probe("p", Probe::PkgTrueW(SocketId(2)), Window::at(0));
        assert!(matches!(
            sc.validate(&cfg()),
            Err(ScenarioError::SocketOutOfRange { socket: 2, num_sockets: 2 })
        ));
    }

    #[test]
    fn rejects_undefined_pstate() {
        let mut sc = Scenario::new();
        sc.at(0).pstate(ThreadId(0), 1234);
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::UndefinedPstate { mhz: 1234 })));
    }

    #[test]
    fn rejects_undefined_cstate() {
        let mut sc = Scenario::new();
        sc.at(0).cstate(ThreadId(0), 3, true);
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::UndefinedCstate { level: 3 })));
    }

    #[test]
    fn rejects_workload_on_offline_thread_even_when_scheduled_out_of_order() {
        let mut sc = Scenario::new();
        // Inserted before the offlining step but scheduled after it: the
        // validator replays in *time* order.
        sc.at(2 * MILLISECOND).workload(ThreadId(5), KernelClass::BusyWait, OperandWeight::HALF);
        sc.at(MILLISECOND).online(ThreadId(5), false);
        assert!(matches!(
            sc.validate(&cfg()),
            Err(ScenarioError::ActionOnOfflineThread { thread: ThreadId(5), .. })
        ));
    }

    #[test]
    fn rejects_duplicate_probe_labels() {
        let mut sc = Scenario::new();
        sc.probe("x", Probe::AcPowerW, Window::at(0));
        sc.probe("x", Probe::DramLatencyNs, Window::at(1));
        assert!(matches!(
            sc.validate(&cfg()),
            Err(ScenarioError::DuplicateLabel { label }) if label == "x"
        ));
    }

    #[test]
    fn rejects_wakeup_probe_on_busy_callee() {
        let mut sc = Scenario::new();
        sc.at(0).workload(ThreadId(3), KernelClass::BusyWait, OperandWeight::HALF);
        sc.probe(
            "w",
            Probe::WakeupSamples {
                caller: ThreadId(0),
                callee: ThreadId(3),
                count: 1,
                gap: MILLISECOND,
            },
            Window::span(0, 2 * MILLISECOND),
        );
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::WakeupCalleeNotSleeping { .. })));
    }

    #[test]
    fn rejects_backwards_window() {
        let mut sc = Scenario::new();
        sc.probe("b", Probe::AcTrueMeanW, Window { from: 2, to: 1 });
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::NegativeWindow { .. })));
    }

    #[test]
    fn rejects_sampling_plan_overflowing_its_window() {
        let mut sc = Scenario::new();
        // 10 samples of 1 ms gap cannot fit a 5 ms window.
        sc.probe(
            "w",
            Probe::WakeupSamples {
                caller: ThreadId(0),
                callee: ThreadId(1),
                count: 10,
                gap: MILLISECOND,
            },
            Window::span(0, 5 * MILLISECOND),
        );
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::WindowOutOfRange { .. })));
    }

    #[test]
    fn rejects_span_probe_with_instant_window() {
        let mut sc = Scenario::new();
        sc.probe("m", Probe::AcTrueMeanW, Window::at(SECOND));
        assert!(matches!(
            sc.validate(&cfg()),
            Err(ScenarioError::WindowShapeMismatch { instant_probe: false, .. })
        ));
    }

    #[test]
    fn rejects_zero_sampling_interval() {
        let mut sc = Scenario::new();
        sc.probe(
            "s",
            Probe::CounterSeries { thread: ThreadId(0), every: 0 },
            Window::span(0, MILLISECOND),
        );
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::ZeroInterval { .. })));
    }

    #[test]
    fn rejects_oversized_sampling_plan() {
        let mut sc = Scenario::new();
        sc.probe(
            "s",
            Probe::CounterSeries { thread: ThreadId(0), every: 1 },
            Window::span(0, 100 * MILLISECOND),
        );
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::SamplingPlanTooLarge { .. })));
    }

    #[test]
    fn rejects_scenario_beyond_the_time_cap() {
        let mut sc = Scenario::new();
        sc.run_until(MAX_WINDOW_NS + 1);
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::ScenarioTooLong { .. })));
    }

    #[test]
    fn rejects_metered_mean_over_a_sample_starved_window() {
        // 56 ms holds one 50 ms sample, but outside the inner 80 %.
        let mut sc = Scenario::new();
        sc.probe("m", Probe::AcMeteredW, Window::span(0, 56 * MILLISECOND));
        assert!(matches!(sc.validate(&cfg()), Err(ScenarioError::MeterWindowTooShort { .. })));
        // 120 ms (the generator's floor) is comfortably enough.
        let mut ok = Scenario::new();
        ok.probe("m", Probe::AcMeteredW, Window::span(0, 120 * MILLISECOND));
        assert!(ok.validate(&cfg()).is_ok());
    }

    #[test]
    fn run_until_is_a_minimum_not_a_cap() {
        let mut sc = Scenario::new();
        sc.run_until(MILLISECOND);
        sc.at(5 * MILLISECOND).preheat();
        sc.probe("tail", Probe::AcPowerW, Window::at(7 * MILLISECOND));
        assert_eq!(sc.run_until_ns(), MILLISECOND);
        assert_eq!(sc.end(), 7 * MILLISECOND);
        assert!(sc.validate(&cfg()).is_ok(), "steps after run_until are legal");
    }

    #[test]
    fn out_of_order_cursors_build_the_time_ordered_scenario() {
        let t = |i| ThreadId(i);
        let busy = |sc: &mut Scenario, at, thread| {
            sc.at(at).workload(thread, KernelClass::BusyWait, OperandWeight::HALF);
        };
        let probes = |sc: &mut Scenario| {
            sc.probe("ac", Probe::AcTrueMeanW, Window::span(0, 4 * MILLISECOND));
            sc.probe("ghz", Probe::EffectiveGhz(CoreId(1)), Window::at(3 * MILLISECOND));
        };
        let mut in_order = Scenario::new();
        busy(&mut in_order, 0, t(0));
        busy(&mut in_order, MILLISECOND, t(2));
        in_order.at(2 * MILLISECOND).idle(t(0)).pstate(t(2), 1500).pstate(t(3), 1500);
        in_order.at(2 * MILLISECOND).idle(t(5));
        in_order.at(4 * MILLISECOND).preheat();
        probes(&mut in_order);

        // The same steps, each tick's cursors in the same order, the
        // ticks shuffled.
        let mut shuffled = Scenario::new();
        shuffled.at(4 * MILLISECOND).preheat();
        shuffled.at(2 * MILLISECOND).idle(t(0)).pstate(t(2), 1500).pstate(t(3), 1500);
        busy(&mut shuffled, 0, t(0));
        shuffled.at(2 * MILLISECOND).idle(t(5));
        busy(&mut shuffled, MILLISECOND, t(2));
        probes(&mut shuffled);

        let steps = |sc: &Scenario| sc.steps().collect::<Vec<_>>();
        assert_eq!(steps(&shuffled), steps(&in_order));
        assert!(steps(&shuffled).windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(format!("{shuffled:?}"), format!("{in_order:?}"));
        assert_eq!(shuffled.end(), 4 * MILLISECOND);
        assert_eq!(shuffled.validate(&cfg()), Ok(()));
        let run = |sc: &Scenario| System::new(cfg(), 4).run_scenario(sc).unwrap();
        assert_eq!(format!("{:?}", run(&shuffled)), format!("{:?}", run(&in_order)));

        let clone = shuffled.clone();
        assert!(Arc::ptr_eq(&clone.steps, &shuffled.steps), "a clone shares its steps");
        assert!(Arc::ptr_eq(&clone.probes, &shuffled.probes), "and its probes");
    }

    /// Schedules one 128-thread tick re-weighting every thread alike, as a
    /// Fig. 10 block does.
    fn load_every_thread(sc: &mut Scenario, t: Ns, weight: OperandWeight) {
        let mut at = sc.at(t);
        for thread in 0..128 {
            at = at.workload(ThreadId(thread), KernelClass::VXorps, weight);
        }
    }

    #[test]
    fn a_fig10_shaped_scenario_stores_one_entry_per_tick() {
        let mut sc = Scenario::new();
        load_every_thread(&mut sc, 0, OperandWeight::HALF);
        sc.at(SECOND).preheat();
        let weights = [OperandWeight::ZERO, OperandWeight::FULL, OperandWeight(-0.0)];
        for (k, weight) in (1..).zip(weights) {
            load_every_thread(&mut sc, SECOND + k * 100 * MILLISECOND, weight);
        }
        assert_eq!(sc.steps.entries.len(), 5, "the start tick, the preheat and three blocks");
        assert_eq!(sc.steps.runs, [(0, 128), (2, 128), (3, 128), (4, 128)]);
        assert_eq!(sc.steps().len(), 4 * 128 + 1);
        assert!(sc.stores_runs());
        assert_eq!(sc.end(), SECOND + 300 * MILLISECOND);
        assert_eq!(sc.validate(&cfg()), Ok(()));

        // A later cursor at a run's tick extends it; a weight equal to the
        // run's but of the other sign, or a thread out of turn, does not.
        let last = SECOND + 300 * MILLISECOND;
        sc.at(last).workload(ThreadId(128), KernelClass::VXorps, OperandWeight(-0.0));
        assert_eq!(sc.steps.runs.last(), Some(&(4, 129)));
        assert!(matches!(
            sc.validate(&cfg()),
            Err(ScenarioError::ThreadOutOfRange { thread: ThreadId(128), num_threads: 128 })
        ));
        sc.at(last).workload(ThreadId(129), KernelClass::VXorps, OperandWeight::ZERO);
        sc.at(last).workload(ThreadId(131), KernelClass::VXorps, OperandWeight::ZERO);
        assert_eq!(sc.steps.entries.len(), 7);
    }

    #[test]
    fn a_workload_range_builds_what_its_actions_build() {
        // Fig. 10 at paper scale: the start tick, the preheat and 3000
        // blocks from the preheat's tick on, each tick re-weighting all
        // 128 threads.
        let build = |bulk: bool| {
            let mut sc = Scenario::new();
            let load = |sc: &mut Scenario, t, weight| match bulk {
                true => {
                    sc.at(t).workloads(ThreadId(0), 128, KernelClass::VXorps, weight);
                }
                false => load_every_thread(sc, t, weight),
            };
            load(&mut sc, 0, OperandWeight::HALF);
            sc.at(100 * MILLISECOND).preheat();
            let weights = [OperandWeight::ZERO, OperandWeight::FULL, OperandWeight(-0.0)];
            for k in 0..3000 {
                load(&mut sc, (k + 1) * 100 * MILLISECOND, weights[k as usize % 3]);
            }
            sc
        };
        let (bulk, one_by_one) = (build(true), build(false));
        assert_eq!(bulk.entry_count(), 3002);
        assert_eq!(bulk.steps().len(), 384_129);
        assert_eq!(bulk.steps.runs, one_by_one.steps.runs);
        assert_eq!(bulk, one_by_one);
        assert_eq!(format!("{bulk:?}"), format!("{one_by_one:?}"));
        assert_eq!(bulk.validate(&cfg()), Ok(()));

        // A range behind a later step goes in step by step and still
        // forms one run; an empty range adds nothing.
        let mut sc = Scenario::new();
        sc.at(SECOND).preheat();
        sc.at(0).workloads(ThreadId(3), 4, KernelClass::Pause, OperandWeight::FULL);
        sc.at(0).workloads(ThreadId(7), 0, KernelClass::Pause, OperandWeight::FULL);
        assert_eq!(sc.steps.runs, [(0, 4)]);
        assert_eq!(sc.steps().len(), 5);

        // A run holds at most `u32::MAX` steps: the thread past them
        // starts an entry of its own, as one more `workload` would.
        let mut sc = Scenario::new();
        sc.at(0).workloads(ThreadId(0), 1, KernelClass::Pause, OperandWeight::FULL).workloads(
            ThreadId(1),
            u32::MAX,
            KernelClass::Pause,
            OperandWeight::FULL,
        );
        assert_eq!(sc.steps.runs, [(0, u32::MAX)]);
        assert_eq!(sc.entry_count(), 2);
        assert_eq!(sc.steps.entries[1].op, nth(sc.steps.entries[0].op, u32::MAX));
        assert_eq!(sc.steps().len(), 1 << 32);
    }

    #[test]
    #[should_panic(expected = "reach past ThreadId(u32::MAX)")]
    fn a_workload_range_past_the_last_thread_id_is_refused() {
        let mut sc = Scenario::new();
        sc.at(0).workloads(ThreadId(2), u32::MAX, KernelClass::Pause, OperandWeight::FULL);
    }

    #[test]
    fn a_fig07_shaped_tick_stores_a_run_only_where_siblings_ascend() {
        // Each logical CPU requests its core's frequency on both siblings
        // and then loads its own thread. Logical CPUs 0–63 are the cores'
        // first siblings, so their two requests go to threads `2c, 2c + 1`
        // and form a run of two; CPUs 64–127 request `2c + 1, 2c`, and
        // every step of theirs is an entry of its own.
        let numbering = zen2_topology::CpuNumbering::linux_default(&cfg().topology);
        let mut sc = Scenario::new();
        let mut at = sc.at(0);
        for cpu in 0..128 {
            let thread = numbering.thread_of(zen2_topology::LogicalCpu(cpu));
            at = at.pstate(thread, 1500).pstate(ThreadId(thread.0 ^ 1), 1500).workload(
                thread,
                KernelClass::Pause,
                OperandWeight::HALF,
            );
        }
        assert_eq!(sc.steps().len(), 3 * 128);
        assert_eq!(sc.steps.entries.len(), 2 * 64 + 3 * 64);
        assert_eq!(sc.steps.runs.len(), 64);
        assert!(sc.steps.runs.iter().all(|&(_, n)| n == 2));
        assert_eq!(sc.validate(&cfg()), Ok(()));

        // Interleaved actions alone never merge: one entry per step.
        let mut sc = Scenario::new();
        let mut at = sc.at(0);
        for c in 0..64 {
            let (first, second) = (ThreadId(2 * c), ThreadId(2 * c + 1));
            at = at.pstate(second, 1500).pstate(first, 1500).workload(
                first,
                KernelClass::Pause,
                OperandWeight::HALF,
            );
        }
        assert_eq!(sc.steps.entries.len(), 3 * 64);
        assert!(!sc.stores_runs());
    }

    #[test]
    fn a_three_thread_run_prints_as_its_three_steps() {
        let mut sc = Scenario::new();
        let mut at = sc.at(7);
        for thread in 2..5 {
            at = at.workload(ThreadId(thread), KernelClass::VXorps, OperandWeight::HALF);
        }
        assert_eq!(sc.steps.entries.len(), 1);
        assert_eq!(
            format!("{sc:?}"),
            "Scenario { steps: [\
             Step { at: 7, op: Workload { thread: ThreadId(2), class: VXorps, weight: OperandWeight(0.5) } }, \
             Step { at: 7, op: Workload { thread: ThreadId(3), class: VXorps, weight: OperandWeight(0.5) } }, \
             Step { at: 7, op: Workload { thread: ThreadId(4), class: VXorps, weight: OperandWeight(0.5) } }\
             ], probes: [], run_until: 0 }"
        );
    }

    #[test]
    fn a_run_names_its_first_offline_thread_and_wakes_its_callee() {
        let mut sc = Scenario::new();
        sc.at(0).online(ThreadId(6), false);
        let mut at = sc.at(MILLISECOND);
        for thread in 4..9 {
            at = at.idle(ThreadId(thread));
        }
        assert_eq!(sc.steps.entries.len(), 2);
        assert_eq!(
            sc.validate(&cfg()),
            Err(ScenarioError::ActionOnOfflineThread { thread: ThreadId(6), at: MILLISECOND })
        );

        // A wakeup callee inside a run sees the run's step at its time.
        let mut sc = Scenario::new();
        let mut at = sc.at(2 * MILLISECOND);
        for thread in 1..5 {
            at = at.workload(ThreadId(thread), KernelClass::BusyWait, OperandWeight::HALF);
        }
        let wakeup = Probe::WakeupSamples {
            caller: ThreadId(0),
            callee: ThreadId(3),
            count: 3,
            gap: MILLISECOND,
        };
        sc.probe("w", wakeup, Window::span(0, 4 * MILLISECOND));
        assert_eq!(
            sc.validate(&cfg()),
            Err(ScenarioError::WakeupCalleeNotSleeping { label: "w".into(), at: 3 * MILLISECOND })
        );
    }

    /// Runs a scenario with one probe `declare` adds per label, declared
    /// as `["a"]`, `["a", "b"]` and `["b", "a"]`, on same-seed machines.
    fn run_declaration_orders(declare: impl Fn(&mut Scenario, &str)) -> [Run; 3] {
        [&["a"][..], &["a", "b"], &["b", "a"]].map(|labels| {
            let mut sc = Scenario::new();
            sc.at(0).workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
            for label in labels {
                declare(&mut sc, label);
            }
            System::new(cfg(), 9).run_scenario(&sc).unwrap()
        })
    }

    #[test]
    fn same_tick_meter_closes_draw_in_declaration_order() {
        let window = Window::span(10 * MILLISECOND, 130 * MILLISECOND);
        let [alone, ab, ba] = run_declaration_orders(|sc, label| {
            sc.probe(label, Probe::AcMeteredW, window);
        });
        let bits = |run: &Run, label| run.watts(label).to_bits();
        // The first-declared close draws the meter noise first, as if it
        // were alone; swapping the declarations swaps the values.
        assert_eq!(bits(&ab, "a"), bits(&alone, "a"));
        assert_ne!(bits(&ab, "a"), bits(&ab, "b"), "noise must differ");
        assert_eq!(bits(&ab, "a"), bits(&ba, "b"));
        assert_eq!(bits(&ab, "b"), bits(&ba, "a"));
    }

    #[test]
    fn same_tick_wakeup_draws_follow_declaration_order() {
        let probe = Probe::WakeupSamples {
            caller: ThreadId(0),
            callee: ThreadId(2),
            count: 5,
            gap: MILLISECOND,
        };
        let window = Window::span(MILLISECOND, 7 * MILLISECOND);
        let [alone, ab, ba] = run_declaration_orders(|sc, label| {
            sc.probe(label, probe, window);
        });
        let bits = |run: &Run, label| {
            run.durations_ns(label).iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        };
        // Every sample tick is shared, and at each one the first-declared
        // probe draws first: its first sample is the lone probe's.
        assert_eq!(bits(&ab, "a")[0], bits(&alone, "a")[0]);
        assert_ne!(bits(&ab, "a"), bits(&ab, "b"), "draws must differ");
        assert_eq!(bits(&ab, "a"), bits(&ba, "b"));
        assert_eq!(bits(&ab, "b"), bits(&ba, "a"));
    }

    #[test]
    fn an_earlier_declared_wakeup_window_that_opens_later_draws_first() {
        // "late" is declared first and opens at 3 ms, after "early" (1 ms):
        // at each tick they share, 4 to 8 ms, "late" still draws first.
        let mut sc = Scenario::new();
        sc.at(0).workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
        let wakeup = |count| Probe::WakeupSamples {
            caller: ThreadId(0),
            callee: ThreadId(2),
            count,
            gap: MILLISECOND,
        };
        sc.probe("late", wakeup(5), Window::span(3 * MILLISECOND, 9 * MILLISECOND));
        sc.probe("early", wakeup(7), Window::span(MILLISECOND, 9 * MILLISECOND));
        let run = System::new(cfg(), 9).run_scenario(&sc).unwrap();
        // The draws a stable sort of every obligation by tick gives.
        assert_eq!(
            run.durations_ns("late"),
            [
                20097.12604726592,
                20515.8611002511,
                20322.971853671996,
                20083.16463688254,
                20734.177434416324
            ]
        );
        assert_eq!(
            run.durations_ns("early"),
            [
                20354.15314799643,
                20953.43335168228,
                20205.43389388159,
                20835.716253555984,
                22915.099441381135,
                20850.784012939243,
                20614.336639882727
            ]
        );
    }

    #[test]
    fn a_fig10_shaped_run_holds_only_its_open_windows() {
        // Three 10 s blocks, each re-weighting every thread and read by an
        // AC, a RAPL and a RAPL core window, as Fig. 10's are. Each RAPL
        // window polls 100 times, yet the run holds one block's three
        // windows and one queued poll per RAPL window at a time.
        let mut sc = Scenario::new();
        load_every_thread(&mut sc, 0, OperandWeight::HALF);
        let weights = [OperandWeight::ZERO, OperandWeight::FULL, OperandWeight::HALF];
        for (k, weight) in (0..).zip(weights) {
            let t0 = 100 * MILLISECOND + k * 10 * SECOND;
            load_every_thread(&mut sc, t0, weight);
            let window = Window::span(t0, t0 + 10 * SECOND);
            sc.probe(format!("ac{k}"), Probe::AcTrueMeanW, window);
            sc.probe(format!("pkg{k}"), Probe::RaplW, window);
            sc.probe(format!("core0_{k}"), Probe::RaplCoreW(CoreId(0)), window);
        }
        assert_eq!(sc.probes()[1].obligation(100), Some(10_100 * MILLISECOND));
        assert_eq!(sc.probes()[1].obligation(101), None);
        let mut sys = System::new(cfg(), 3);
        let run = sys.run_scenario(&sc).unwrap();
        assert_eq!(sys.probe_high_water(), (3, 2), "open windows, queued obligations");
        // Each close wrote its slot: declaration order, every reading real.
        let labels: Vec<&str> = run.measurements.iter().map(|(label, _)| label.as_str()).collect();
        assert_eq!(labels, sc.probes().iter().map(|spec| spec.label.as_str()).collect::<Vec<_>>());
        assert!(run.watts("ac0") < run.watts("ac2") && run.watts("ac2") < run.watts("ac1"));
        for k in 0..3 {
            let (pkg_w, core_w) = run.watts_pair(&format!("pkg{k}"));
            assert!(pkg_w > core_w && core_w > 0.0, "block {k}: {pkg_w} W, {core_w} W");
            assert!(run.watts(&format!("core0_{k}")) > 0.0);
        }
    }

    #[test]
    fn the_read_rapl_domains_are_those_the_probes_name() {
        let window = Window::span(0, MILLISECOND);
        let with = |probes: &[Probe]| {
            let mut sc = Scenario::new();
            for (i, &probe) in probes.iter().enumerate() {
                let window = if probe.is_instant() { Window::at(0) } else { window };
                sc.probe(format!("p{i}"), probe, window);
            }
            (sc.reads_rapl(), sc.rapl_cores(64))
        };
        let (pkg, msr) = (Probe::RaplPkgW, Probe::PkgEnergyMsr(SocketId(1)));
        assert_eq!(with(&[Probe::AcTrueMeanW]), (false, vec![]));
        assert_eq!(with(&[pkg]), (true, vec![]));
        assert_eq!(with(&[msr, pkg]), (true, vec![]));
        let (core9, core2) = (Probe::RaplCoreW(CoreId(9)), Probe::RaplCoreW(CoreId(2)));
        assert_eq!(with(&[core9, pkg, core2, core9]), (true, vec![2, 9]));
        assert_eq!(with(&[core9, Probe::RaplW]), (true, (0..64).collect::<Vec<_>>()));
    }

    #[test]
    fn package_sum_windows_read_rapl_ws_package_watts_bit_for_bit() {
        // FIRESTARTER everywhere throttles: the cap steps down while the
        // windows poll, over whole and partial publication periods.
        let mut sc = Scenario::new();
        let mut at = sc.at(0);
        for thread in 0..128 {
            at = at.workload(ThreadId(thread), KernelClass::Firestarter, OperandWeight::HALF);
        }
        let windows = [
            (0, 300 * MILLISECOND),
            (7_250_000, 231_500_000),
            (40 * MILLISECOND, 41 * MILLISECOND),
        ];
        for (i, &(from, to)) in windows.iter().enumerate() {
            sc.probe(format!("both{i}"), Probe::RaplW, Window::span(from, to));
            sc.probe(format!("pkg{i}"), Probe::RaplPkgW, Window::span(from, to));
        }
        sc.probe(
            "ev",
            Probe::TraceEvents(EventFilter::CapChanged(SocketId(0))),
            Window::span(0, 300 * MILLISECOND),
        );
        let run = System::new(cfg(), 11).run_scenario(&sc).unwrap();
        assert!(!run.events("ev").is_empty(), "the cap must move");
        for i in 0..windows.len() {
            let (pkg_w, _) = run.watts_pair(&format!("both{i}"));
            assert_eq!(run.watts(&format!("pkg{i}")).to_bits(), pkg_w.to_bits(), "window {i}");
        }
    }

    #[test]
    fn rapl_windows_read_what_a_rapl_reader_polling_alike_reads() {
        // A throttled machine's RAPL windows against `RaplReader`, the
        // reference `x86_energy`-style reader, polled at the same instants
        // on a same-seed twin.
        let mut sc = Scenario::new();
        let mut at = sc.at(0);
        for thread in 0..128 {
            at = at.workload(ThreadId(thread), KernelClass::Firestarter, OperandWeight::HALF);
        }
        let window = Window::span(7_250_000, 331_500_000);
        sc.probe("rapl", Probe::RaplW, window);
        sc.probe("core3", Probe::RaplCoreW(CoreId(3)), window);
        let run = System::new(cfg(), 13).run_scenario(&sc).unwrap();

        let mut twin = System::new(cfg(), 13);
        for thread in 0..128 {
            twin.set_workload(ThreadId(thread), KernelClass::Firestarter, OperandWeight::HALF);
        }
        twin.run_for_ns(window.from);
        twin.sync_rapl_msrs();
        let mut reader = zen2_rapl::RaplReader::new(&cfg().topology, twin.msrs()).unwrap();
        let spec = &sc.probes()[0];
        for t in (1..).map_while(|k| spec.obligation(k)) {
            twin.run_for_ns(t - twin.now_ns());
            twin.sync_rapl_msrs();
            reader.poll(twin.msrs()).unwrap();
        }
        let dt = window.secs();
        let (pkg_w, core_w) = run.watts_pair("rapl");
        assert_eq!(pkg_w.to_bits(), (reader.package_sum_joules() / dt).to_bits());
        assert_eq!(core_w.to_bits(), (reader.core_sum_joules() / dt).to_bits());
        assert_eq!(run.watts("core3").to_bits(), (reader.core_joules(3) / dt).to_bits());
    }

    #[test]
    fn a_measurement_fits_in_32_bytes() {
        assert!(std::mem::size_of::<Measurement>() <= 32);
    }
}
