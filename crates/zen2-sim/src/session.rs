//! Batch execution: many `(SimConfig, Scenario, seed)` cases across a
//! worker pool, with results identical to serial execution.
//!
//! Every entry point runs one loop: it pulls one *case group*
//! (`workers × shard_size` cases) at a time, validates it, executes it
//! across the pool, and delivers each completed [`Run`] in case order.
//! One pool serves the whole loop: the calling thread works as worker
//! 0, and the other workers' threads start with the first group that
//! has cases for them and wait between groups, so a group starts no
//! thread.
//! [`Session::run`] collects a slice of cases into a `Vec`.
//! [`Session::run_streaming`] consumes a lazy case iterator (e.g.
//! [`Sweep::cases`](crate::Sweep::cases)) and hands each run to a sink,
//! holding at most `workers × shard_size` cases in memory. The
//! resumable driver [`run_resumable`](crate::checkpoint::run_resumable)
//! pulls the same groups itself and saves its checkpoint between them.
//!
//! Each case boots its own freshly seeded machine
//! (`System::new(case.config, case.seed)`), so results depend only on
//! the case — never on scheduling or on the worker count. A case whose
//! scenario reads no RAPL counter runs without RAPL accounting: its
//! machine integrates and publishes no RAPL energy and its PPT loop
//! decides from a bound on each package estimate, which leaves every
//! result bit-identical to a run with accounting. A case that reads RAPL
//! keeps the energy of only the core domains its probes read: all 64
//! for a `RaplW`, one for a `RaplCoreW`, none for a `RaplPkgW` or a
//! `PkgEnergyMsr`, beside both packages'. Likewise a case keeps
//! the performance counters of only the threads its probes read, and
//! none when no probe reads one. Each `case` span records these choices,
//! as its `rapl_accounting`, `rapl_cores` (core domains kept) and
//! `counters` (keeps any) attributes, and
//! the case reports how its PPT loop decided its slots as the `ppt.*`
//! counters when its `sim` span closes.
//!
//! A case holds only what a probe can still read. Its scenario's steps
//! and probes are shared with the case's source (a [`Scenario`] clone
//! copies no step), and its machine drops the AC-trace segments that
//! end before its earliest open AC-reading window, so a long scenario
//! whose windows close one after another runs in memory bounded by one
//! window, with every result bit-identical to
//! [`System::run_scenario`], which keeps the whole trace.
//!
//! A case that panics mid-simulation does not take the batch down with
//! it: the panic is caught on the worker, attributed to its case, and
//! surfaced as a [`SessionError`] while every other case of its shard
//! still runs to completion.
//!
//! ```
//! use zen2_sim::{Case, Probe, Scenario, Session, SimConfig, Window};
//!
//! let mut sc = Scenario::new();
//! sc.probe("idle", Probe::AcTrueMeanW, Window::span_secs(0.05, 0.25));
//! let cases: Vec<Case> = (0..4)
//!     .map(|i| Case::new(format!("case{i}"), SimConfig::epyc_7502_2s(), sc.clone(), i))
//!     .collect();
//! let runs = Session::new().workers(2).run(&cases).unwrap();
//! assert_eq!(runs.len(), 4);
//! assert!((runs[0].watts("idle") - 99.1).abs() < 1.5);
//! ```

use crate::config::SimConfig;
use crate::obs::{self, AttrValue, Obs, Recorder, SpanId, CTR_CASES_DONE, OBS_SHARD_CASES};
use crate::probe::Run;
use crate::scenario::{Scenario, ScenarioError};
use crate::system::System;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One unit of batch work: a machine configuration, a scenario, and the
/// boot seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Human-readable identifier, reported in errors.
    pub label: String,
    /// The machine to boot.
    pub config: SimConfig,
    /// The schedule to execute.
    pub scenario: Scenario,
    /// The seed all of the case's stochastic behavior flows from.
    pub seed: u64,
}

impl Case {
    /// Builds a case.
    pub fn new(label: impl Into<String>, config: SimConfig, scenario: Scenario, seed: u64) -> Self {
        Self { label: label.into(), config, scenario, seed }
    }
}

/// A batch runner with a fixed worker pool.
#[derive(Clone)]
pub struct Session {
    workers: usize,
    shard: usize,
    recorder: Option<Arc<dyn Recorder>>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("workers", &self.workers)
            .field("shard", &self.shard)
            .field("recorder", &self.recorder.as_ref().map(|_| "attached"))
            .finish()
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// A session sized to the host's available parallelism.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Self { workers, shard: 16, recorder: None }
    }

    /// Sets the worker count (results do not depend on it). Zero is
    /// clamped to one worker.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Sets the per-worker shard size (a run holds at most
    /// `workers × shard_size` cases in memory; results do not depend on
    /// it). Zero is clamped to one.
    pub fn shard_size(mut self, n: usize) -> Self {
        self.shard = n.max(1);
        self
    }

    /// Attaches a telemetry sink: every run reports spans, counters,
    /// gauges, and events through it (see [`obs`] for the
    /// schema). Telemetry is strictly out-of-band — results are
    /// byte-identical with or without a recorder, under any
    /// worker/shard split.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The borrowed telemetry handle of this session (disabled when no
    /// recorder is attached).
    pub(crate) fn obs(&self) -> Obs<'_> {
        Obs::new(self.recorder.as_deref())
    }

    /// Executes the batch across the worker pool: the
    /// [`run_streaming`](Self::run_streaming) path, collected into a
    /// `Vec`. Results come back in case order and are a pure function of
    /// each `(config, scenario, seed)` triple. An empty batch returns an
    /// empty `Vec`.
    pub fn run(&self, cases: &[Case]) -> Result<Vec<Run>, SessionError> {
        let mut runs = Vec::with_capacity(cases.len());
        self.run_streaming(cases.iter().cloned(), |_, run| runs.push(run))?;
        Ok(runs)
    }

    /// Executes a lazily produced case stream without ever materializing
    /// it: cases are pulled from the iterator one case group
    /// (`workers × shard_size` cases) at a time, executed across the
    /// worker pool, and delivered to `sink` as `(case index, run)` — in
    /// case-index order, regardless of the worker count or shard size,
    /// so order-sensitive on-line aggregators (see
    /// [`stats`](crate::stats)) reduce to bit-identical summaries under
    /// any parallelism. Returns the number of runs delivered.
    ///
    /// Peak case residency is bounded by `workers × shard_size`.
    ///
    /// On a validation failure or worker panic the error is attributed
    /// to its case and the stream stops; runs of earlier cases have
    /// already been delivered to the sink at that point.
    ///
    /// ```
    /// use zen2_sim::{Case, Probe, Scenario, Session, SimConfig, Window};
    ///
    /// let mut sc = Scenario::new();
    /// sc.probe("ac", Probe::AcPowerW, Window::at(0));
    /// // A lazy case stream: nothing is materialized up front.
    /// let cases = (0..100).map(move |i| {
    ///     Case::new(format!("case{i}"), SimConfig::epyc_7502_2s(), sc.clone(), i)
    /// });
    /// let mut sum = 0.0;
    /// let session = Session::new().workers(4).shard_size(8);
    /// let n = session.run_streaming(cases, |_, run| sum += run.watts("ac")).unwrap();
    /// assert_eq!(n, 100);
    /// assert!((sum / 100.0 - 99.1).abs() < 2.0); // the Fig. 7 idle floor
    /// ```
    pub fn run_streaming<I, F>(&self, cases: I, sink: F) -> Result<usize, SessionError>
    where
        I: IntoIterator<Item = Case>,
        F: FnMut(usize, Run),
    {
        self.run_streaming_with(cases, sink, run_prechecked)
    }

    /// [`run_streaming`](Self::run_streaming) with an injectable per-case
    /// executor, so the panic-containment machinery is testable without a
    /// scenario that slips past validation only to explode at runtime.
    fn run_streaming_with<I, F>(
        &self,
        cases: I,
        mut sink: F,
        execute: impl Fn(&mut System, &Case) -> Run + Sync,
    ) -> Result<usize, SessionError>
    where
        I: IntoIterator<Item = Case>,
        F: FnMut(usize, Run),
    {
        let mut iter = cases.into_iter();
        let mut delivered = 0usize;
        // On error paths (`?`) the open spans are deliberately left
        // unclosed: the run is aborting, and sinks tolerate it.
        let sweep_span = self.open_sweep(0);
        self.with_pool(&execute, |pool| loop {
            let group: Vec<Case> = iter.by_ref().take(self.group_size()).collect();
            if group.is_empty() {
                self.obs().close(sweep_span);
                return Ok(delivered);
            }
            let n = group.len();
            pool.run_group(sweep_span, delivered, group, &mut sink)?;
            delivered += n;
        })
    }

    /// Cases per *case group*, the unit a streaming run pulls, runs on
    /// the pool and delivers: `workers × shard_size`.
    pub(crate) fn group_size(&self) -> usize {
        self.workers.saturating_mul(self.shard)
    }

    /// Opens the root `sweep` span of a streaming run whose first case
    /// has global index `first_index`.
    pub(crate) fn open_sweep(&self, first_index: usize) -> Option<SpanId> {
        self.obs().open(
            None,
            obs::SPAN_SWEEP,
            &[
                ("first_index", AttrValue::U64(first_index as u64)),
                ("workers", AttrValue::U64(self.workers as u64)),
                ("shard_size", AttrValue::U64(self.shard as u64)),
            ],
        )
    }

    /// Runs `drive` with one worker pool for all the case groups it runs,
    /// each through [`Pool::run_group`]: the pool's threads live until
    /// `drive` returns, not one group.
    pub(crate) fn pooled<R>(&self, drive: impl FnOnce(&mut Pool<'_, '_, Prechecked>) -> R) -> R {
        self.with_pool(&(run_prechecked as Prechecked), drive)
    }

    /// [`pooled`](Self::pooled) with the per-case executor of
    /// [`run_streaming_with`](Self::run_streaming_with).
    fn with_pool<'env, E, R>(
        &'env self,
        execute: &'env E,
        drive: impl FnOnce(&mut Pool<'_, 'env, E>) -> R,
    ) -> R
    where
        E: Fn(&mut System, &Case) -> Run + Sync,
    {
        std::thread::scope(|scope| {
            drive(&mut Pool {
                scope,
                shared: Arc::default(),
                execute,
                obs: self.obs(),
                workers: self.workers,
                helpers: 0,
                spin_checks: 0,
            })
        })
    }
}

/// The executor of [`Session::pooled`].
pub(crate) type Prechecked = fn(&mut System, &Case) -> Run;

/// The executor of every public entry point: each group was validated
/// before it runs. A machine whose scenario reads no RAPL counter keeps
/// no RAPL accounting, and one whose scenario does keeps the RAPL energy
/// of only the core domains its probes read; each machine keeps the
/// performance counters of only the threads its probes read, and every
/// case trims its AC trace behind its open windows.
fn run_prechecked(sys: &mut System, case: &Case) -> Run {
    if case.scenario.reads_rapl() {
        sys.keep_rapl_cores(&case.scenario.rapl_cores(case.config.topology.num_cores()));
    } else {
        sys.drop_rapl_accounting();
    }
    sys.keep_counters(&case.scenario.counter_threads());
    sys.run_scenario_prechecked(&case.scenario, true)
}

/// Validates one case, attributing any scenario error to its label.
fn validate_case(case: &Case) -> Result<(), SessionError> {
    case.scenario.validate(&case.config).map_err(|error| SessionError {
        case: case.label.clone(),
        kind: SessionErrorKind::InvalidScenario(error),
    })
}

/// How many times a waiting worker checks for its next case group, and
/// the calling thread for its helpers' last cases, before it sleeps:
/// about 1.4 ms on a 2-CPU Xeon virtual machine. The gap between two
/// groups (the delivery of one and the generation of the next) takes
/// ~0.25 ms there, and up to a few ms when the host is busy. A CPU that
/// stays awake through it starts the next group at once; one that went
/// to sleep may take milliseconds to wake. A pool with more workers
/// than the host has CPUs does not spin: its waiting threads would take
/// the CPUs its working ones need.
const SPIN_CHECKS: u32 = 1 << 16;

/// One worker pool across the case groups of one run
/// ([`Session::pooled`]). The calling thread works as worker 0, and the
/// pool starts the other `workers − 1` threads the first time a group
/// has cases for them, then keeps them until the run ends, so a group
/// starts no thread and a one-worker pool none.
pub(crate) struct Pool<'scope, 'env, E> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    shared: Arc<Shared>,
    execute: &'env E,
    obs: Obs<'env>,
    workers: usize,
    /// Helper threads started so far: workers `1..=helpers`.
    helpers: usize,
    /// How often a waiting thread checks before it sleeps, set when the
    /// first helper starts: [`SPIN_CHECKS`], or 0 on an oversubscribed
    /// host.
    spin_checks: u32,
}

impl<E> Pool<'_, '_, E>
where
    E: Fn(&mut System, &Case) -> Run + Sync,
{
    /// Runs one case group under `parent`: validates every case, runs
    /// the group on the pool, booting a fresh machine per case, and hands
    /// each run to `sink` in case order with its global index, `first`
    /// being the first case's. Panicking cases are contained and reported
    /// as [`SessionErrorKind::WorkerPanicked`]. Each case reports a `case`
    /// span (with `boot` and `sim` child phases), and its machine's slot
    /// counts after its `sim` phase.
    pub(crate) fn run_group(
        &mut self,
        parent: Option<SpanId>,
        first: usize,
        cases: Vec<Case>,
        mut sink: impl FnMut(usize, Run),
    ) -> Result<(), SessionError> {
        for case in &cases {
            validate_case(case)?;
        }
        let obs = self.obs;
        let shard_span = obs.open(
            parent,
            obs::SPAN_SHARD,
            &[
                ("first", AttrValue::U64(first as u64)),
                ("cases", AttrValue::U64(cases.len() as u64)),
            ],
        );
        obs.observe(OBS_SHARD_CASES, cases.len() as f64);
        let workers = self.workers.min(cases.len()).max(1);
        let span = obs.open(
            shard_span,
            obs::SPAN_POOL,
            &[
                ("cases", AttrValue::U64(cases.len() as u64)),
                ("workers", AttrValue::U64(workers as u64)),
            ],
        );
        let results = cases.iter().map(|_| Mutex::new(None)).collect();
        let group =
            Arc::new(Group { cases, first, workers, span, next: AtomicUsize::new(0), results });
        if workers > 1 {
            self.hire(workers - 1);
            self.shared.post(Some(group.clone()));
        }
        work(&group, 0, self.execute, obs);
        if workers > 1 {
            self.shared.withdraw(self.spin_checks);
        }
        obs.close(span);

        for (offset, (case, slot)) in group.cases.iter().zip(&group.results).enumerate() {
            let outcome = lock(slot).take();
            let run = outcome.expect("every claimed case stores its outcome").map_err(|panic| {
                SessionError {
                    case: case.label.clone(),
                    kind: SessionErrorKind::WorkerPanicked(panic),
                }
            })?;
            let index = first + offset;
            let reduce_span =
                obs.open(shard_span, obs::SPAN_REDUCE, &[("index", AttrValue::U64(index as u64))]);
            sink(index, run);
            obs.close(reduce_span);
            obs.counter(CTR_CASES_DONE, 1);
        }
        obs.close(shard_span);
        Ok(())
    }

    /// Starts helper threads until there are `helpers`.
    fn hire(&mut self, helpers: usize) {
        if self.helpers == 0 {
            let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
            self.spin_checks = if self.workers <= cpus { SPIN_CHECKS } else { 0 };
        }
        while self.helpers < helpers {
            self.helpers += 1;
            let (w, shared, execute, obs, spin_checks) =
                (self.helpers, Arc::clone(&self.shared), self.execute, self.obs, self.spin_checks);
            self.scope.spawn(move || help(&shared, w, execute, obs, spin_checks));
        }
    }
}

impl<E> Drop for Pool<'_, '_, E> {
    /// Closes the pool, also when the run unwinds, so its helpers return
    /// and the scope can join them.
    fn drop(&mut self) {
        self.shared.post(None);
    }
}

/// One case group on the pool.
struct Group {
    cases: Vec<Case>,
    /// The global index of the first case.
    first: usize,
    /// The workers that may claim its cases: no more than it has cases.
    workers: usize,
    /// Its `pool` span.
    span: Option<SpanId>,
    /// The next unclaimed case.
    next: AtomicUsize,
    results: Vec<Mutex<Option<Result<Run, String>>>>,
}

/// What the calling thread posts to its helpers and they report back.
#[derive(Default)]
struct Board {
    /// The group in progress, while it may still be claimed.
    group: Option<Arc<Group>>,
    /// Posts so far: one per group, and one more when the pool closes.
    posts: u64,
    closed: bool,
    /// Helpers holding a clone of `group`.
    busy: usize,
}

/// The pool's one lock and its two signals, with `posts` and `busy`
/// mirrored in atomics that waiting threads spin on before they sleep.
/// The mirrors publish nothing: a thread that sees one change reads the
/// board under the lock before it acts.
#[derive(Default)]
struct Shared {
    board: Mutex<Board>,
    /// Notified when a group is posted or the pool closes.
    posted: Condvar,
    /// Notified when the last busy helper lets go of its group.
    idle: Condvar,
    posts: AtomicU64,
    busy: AtomicUsize,
}

impl Shared {
    /// Posts `group` to the helpers, or closes the pool with `None`.
    fn post(&self, group: Option<Arc<Group>>) {
        let mut board = lock(&self.board);
        board.closed = group.is_none();
        board.group = group;
        board.posts += 1;
        self.posts.store(board.posts, Ordering::Release);
        drop(board);
        self.posted.notify_all();
    }

    /// Waits until no helper holds the posted group, then withdraws it:
    /// every case it claimed has stored its outcome, and no helper joins
    /// it late.
    fn withdraw(&self, spin_checks: u32) {
        spin_until(spin_checks, || self.busy.load(Ordering::Acquire) == 0);
        let mut board = lock(&self.board);
        while board.busy > 0 {
            board = self.idle.wait(board).unwrap_or_else(PoisonError::into_inner);
        }
        board.group = None;
    }

    /// Sets the helpers holding the posted group.
    fn set_busy(&self, board: &mut Board, busy: usize) {
        board.busy = busy;
        self.busy.store(busy, Ordering::Release);
    }
}

/// A helper's hold on a posted group. Dropping it, also in an unwind,
/// lets go of the group and then of its place in `busy`, so the group is
/// freed before the calling thread moves on.
struct Lease<'a> {
    shared: &'a Shared,
    group: Option<Arc<Group>>,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.group = None;
        let mut board = lock(&self.shared.board);
        let busy = board.busy - 1;
        self.shared.set_busy(&mut board, busy);
        if busy == 0 {
            self.shared.idle.notify_one();
        }
    }
}

/// Helper thread `w`: runs its share of every posted group with more
/// than `w` workers, until the pool closes.
fn help<E>(shared: &Shared, w: usize, execute: &E, obs: Obs<'_>, spin_checks: u32)
where
    E: Fn(&mut System, &Case) -> Run + Sync,
{
    let mut seen = 0;
    loop {
        spin_until(spin_checks, || shared.posts.load(Ordering::Acquire) != seen);
        let lease = {
            let mut board = lock(&shared.board);
            while board.posts == seen {
                board = shared.posted.wait(board).unwrap_or_else(PoisonError::into_inner);
            }
            if board.closed {
                return;
            }
            seen = board.posts;
            let Some(group) = board.group.clone().filter(|group| w < group.workers) else {
                continue;
            };
            let busy = board.busy + 1;
            shared.set_busy(&mut board, busy);
            Lease { shared, group: Some(group) }
        };
        if let Some(group) = &lease.group {
            work(group, w, execute, obs);
        }
    }
}

/// Claims and runs `group`'s cases as worker `w` until none is left,
/// storing each outcome in its case's slot.
fn work<E>(group: &Group, w: usize, execute: &E, obs: Obs<'_>)
where
    E: Fn(&mut System, &Case) -> Run + Sync,
{
    loop {
        let i = group.next.fetch_add(1, Ordering::Relaxed);
        let Some(case) = group.cases.get(i) else { break };
        let reads_rapl = case.scenario.reads_rapl();
        let rapl_cores = if reads_rapl {
            case.scenario.rapl_cores(case.config.topology.num_cores()).len()
        } else {
            0
        };
        let case_span = obs.open(
            group.span,
            obs::SPAN_CASE,
            &[
                ("index", AttrValue::U64((group.first + i) as u64)),
                ("label", AttrValue::Str(&case.label)),
                ("worker", AttrValue::U64(w as u64)),
                ("rapl_accounting", AttrValue::Bool(reads_rapl)),
                ("rapl_cores", AttrValue::U64(rapl_cores as u64)),
                ("counters", AttrValue::Bool(!case.scenario.counter_threads().is_empty())),
            ],
        );
        // Contain a panicking case: record it against slot `i` and keep
        // the worker alive for the remaining cases, instead of letting the
        // unwind cascade into unrelated cases.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let boot_span = obs.open(case_span, obs::SPAN_BOOT, &[]);
            let mut sys = System::new(case.config.clone(), case.seed);
            obs.close(boot_span);
            let sim_span = obs.open(case_span, obs::SPAN_SIM, &[]);
            let run = execute(&mut sys, case);
            obs.close(sim_span);
            for (name, count) in sys.slot_counts().named() {
                obs.counter(name, count);
            }
            run
        }))
        .map_err(|payload| panic_text(payload.as_ref()));
        obs.close(case_span);
        *lock(&group.results[i]) = Some(outcome);
    }
}

/// Checks `ready` until it holds, at most `checks` times; the caller
/// then waits on the pool's lock for what it spun on. Every 64th check
/// yields the CPU, so a thread that shares it with the spinner (the host
/// may run both of a pool's threads on one CPU for a while) still runs.
fn spin_until(checks: u32, mut ready: impl FnMut() -> bool) {
    for i in 0..checks {
        if ready() {
            return;
        }
        if i % 64 == 63 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Locks `mutex`. Nothing that holds one of the pool's locks can panic
/// (the fallible work all sits inside the catch in [`work`]), but stay
/// robust.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a caught panic payload (the first panicking case's, in case
/// order) for [`SessionErrorKind::WorkerPanicked`].
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A batch failure, attributed to its case.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionError {
    /// The offending case's label.
    pub case: String,
    /// What went wrong.
    pub kind: SessionErrorKind,
}

/// Why a [`Session`] batch failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionErrorKind {
    /// The case's scenario failed validation; nothing was simulated.
    InvalidScenario(ScenarioError),
    /// The case panicked mid-simulation (an engine bug, not a scenario
    /// authoring error); the other cases of its shard still ran to
    /// completion.
    WorkerPanicked(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            SessionErrorKind::InvalidScenario(error) => {
                write!(f, "case {:?}: {}", self.case, error)
            }
            SessionErrorKind::WorkerPanicked(message) => {
                write!(f, "case {:?}: worker panicked: {}", self.case, message)
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            SessionErrorKind::InvalidScenario(error) => Some(error),
            SessionErrorKind::WorkerPanicked(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Probe, Window};
    use crate::time::MILLISECOND;
    use zen2_isa::{KernelClass, OperandWeight};
    use zen2_msr::address;
    use zen2_topology::{CoreId, ThreadId};

    /// A scenario cheap enough for the containment tests: one instant
    /// read at t = 0.
    fn instant_scenario() -> Scenario {
        let mut sc = Scenario::new();
        sc.probe("ac", Probe::AcPowerW, Window::at(0));
        sc
    }

    fn cases(labels: &[&str]) -> Vec<Case> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| Case::new(*l, SimConfig::epyc_7502_2s(), instant_scenario(), i as u64))
            .collect()
    }

    #[test]
    fn zero_workers_clamp_to_one() {
        // `workers(0)` must not panic or hang; it behaves as one worker.
        let batch = cases(&["only"]);
        let runs = Session::new().workers(0).run(&batch).unwrap();
        assert_eq!(runs.len(), 1);
        let mut streamed = 0;
        let n = Session::new()
            .workers(0)
            .shard_size(0)
            .run_streaming(batch.clone(), |_, _| streamed += 1)
            .unwrap();
        assert_eq!((n, streamed), (1, 1));
    }

    #[test]
    fn empty_batch_returns_empty_vec() {
        let runs = Session::new().run(&[]).unwrap();
        assert!(runs.is_empty());
        // The same holds for zero workers and for the streaming path.
        assert!(Session::new().workers(0).run(&[]).unwrap().is_empty());
        let delivered =
            Session::new().run_streaming(std::iter::empty(), |_, _| panic!("no runs")).unwrap();
        assert_eq!(delivered, 0);
    }

    #[test]
    fn streaming_delivers_in_case_order_with_global_indices() {
        let batch = cases(&["a", "b", "c", "d", "e"]);
        let expected = Session::new().workers(1).run(&batch).unwrap();
        for (workers, shard) in [(1, 1), (2, 1), (3, 2), (7, 64)] {
            let mut seen = Vec::new();
            let n = Session::new()
                .workers(workers)
                .shard_size(shard)
                .run_streaming(batch.clone(), |i, run| seen.push((i, run)))
                .unwrap();
            assert_eq!(n, 5);
            let indices: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
            assert_eq!(indices, [0, 1, 2, 3, 4]);
            let runs: Vec<Run> = seen.into_iter().map(|(_, run)| run).collect();
            assert_eq!(runs, expected, "workers {workers} shard {shard}");
        }
    }

    #[test]
    fn streaming_panic_is_attributed_and_earlier_runs_are_delivered() {
        let batch = cases(&["a", "b", "boom", "d"]);
        let mut delivered = Vec::new();
        let err = Session::new()
            .workers(1)
            .shard_size(2)
            .run_streaming_with(
                batch,
                |i, _| delivered.push(i),
                |sys, case| {
                    if case.label == "boom" {
                        panic!("stream kaboom");
                    }
                    run_prechecked(sys, case)
                },
            )
            .unwrap_err();
        assert_eq!(err.case, "boom");
        assert!(matches!(err.kind, SessionErrorKind::WorkerPanicked(_)));
        // The first shard (cases 0-1) completed and streamed out before
        // the second shard's panic stopped the stream.
        assert_eq!(delivered, [0, 1]);
    }

    #[test]
    fn streaming_validation_failure_names_its_case() {
        let mut backwards = Scenario::new();
        backwards.probe("w", Probe::AcTrueMeanW, Window::span(100, 50));
        let bad = Case::new("inverted", SimConfig::epyc_7502_2s(), backwards, 1);
        let err =
            Session::new().run_streaming(vec![bad], |_, _| panic!("must not deliver")).unwrap_err();
        assert_eq!(err.case, "inverted");
        assert!(matches!(err.kind, SessionErrorKind::InvalidScenario(_)));
    }

    #[test]
    fn sim_config_identity_is_structural() {
        let a = SimConfig::epyc_7502_2s();
        let b = a.clone();
        assert_eq!(a, b);
        let mut c = a.clone();
        c.controller.deadband_w += 1.0;
        assert_ne!(a, c, "semantically different configs must not compare equal");
        assert_ne!(a, SimConfig::epyc_7502_1s());
    }

    #[test]
    fn worker_panic_is_attributed_not_cascaded() {
        let batch = cases(&["a", "boom", "c", "d"]);
        let err = Session::new()
            .workers(2)
            .run_streaming_with(
                batch,
                |_, _| {},
                |sys, case| {
                    if case.label == "boom" {
                        panic!("kaboom in {}", case.label);
                    }
                    run_prechecked(sys, case)
                },
            )
            .unwrap_err();
        assert_eq!(err.case, "boom", "the panic must name its own case");
        match err.kind {
            SessionErrorKind::WorkerPanicked(ref message) => {
                assert!(message.contains("kaboom in boom"), "payload preserved: {message}")
            }
            ref other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn first_panicking_case_in_case_order_wins() {
        // Whichever worker panics first on the wall clock, the error is
        // attributed deterministically: the earliest case in case order.
        let batch = cases(&["a", "boom1", "boom2", "d"]);
        for workers in [1, 3] {
            let err = Session::new()
                .workers(workers)
                .run_streaming_with(
                    batch.clone(),
                    |_, _| {},
                    |sys, case| {
                        if case.label.starts_with("boom") {
                            panic!("{} fell over", case.label);
                        }
                        run_prechecked(sys, case)
                    },
                )
                .unwrap_err();
            assert_eq!(err.case, "boom1");
        }
    }

    #[test]
    fn panicking_batch_still_runs_the_other_cases() {
        // Observable through the executor: every non-panicking case of
        // the panicking case's shard (here all four) is still executed.
        let executed = Mutex::new(Vec::new());
        let batch = cases(&["a", "boom", "c", "d"]);
        let _ = Session::new().workers(2).shard_size(2).run_streaming_with(
            batch,
            |_, _| {},
            |sys, case| {
                if case.label == "boom" {
                    panic!("down");
                }
                executed.lock().unwrap().push(case.label.clone());
                run_prechecked(sys, case)
            },
        );
        let mut ran = executed.into_inner().unwrap();
        ran.sort();
        assert_eq!(ran, ["a", "c", "d"]);
    }

    #[test]
    fn one_pool_serves_every_group_of_a_run() {
        // Four groups of three cases: the run's cases all execute on its
        // workers' threads, not on threads started per group, and a
        // one-worker run executes them on the calling thread.
        let labels: Vec<String> = (0..12).map(|i| format!("case{i}")).collect();
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        for workers in [1, 3] {
            let threads = Mutex::new(Vec::new());
            let n = Session::new()
                .workers(workers)
                .shard_size(1)
                .run_streaming_with(
                    cases(&labels),
                    |_, _| {},
                    |sys, case| {
                        let id = std::thread::current().id();
                        let mut seen = threads.lock().unwrap();
                        if !seen.contains(&id) {
                            seen.push(id);
                        }
                        drop(seen);
                        run_prechecked(sys, case)
                    },
                )
                .unwrap();
            assert_eq!(n, 12);
            let seen = threads.into_inner().unwrap();
            assert!(seen.len() <= workers, "{workers} workers ran cases on {} threads", seen.len());
            if workers == 1 {
                assert_eq!(seen, [std::thread::current().id()]);
            }
        }
    }

    /// 1 ms slots per AC window of [`throttled_windows`].
    const SLOTS_PER_WINDOW: u64 = 100;

    /// 128 FIRESTARTER threads, preheated so the PPT loop throttles them,
    /// read by `windows` back-to-back 100 ms `AcTrueMeanW` windows under
    /// one `RaplW` window spanning them all.
    fn throttled_windows(windows: u64) -> Scenario {
        let mut sc = Scenario::new();
        let mut at = sc.at(0);
        for t in 0..128 {
            at = at.workload(ThreadId(t), KernelClass::Firestarter, OperandWeight::HALF);
        }
        at.preheat();
        let window_ns = SLOTS_PER_WINDOW * MILLISECOND;
        for k in 0..windows {
            let window = Window::span(k * window_ns, (k + 1) * window_ns);
            sc.probe(format!("ac{k}"), Probe::AcTrueMeanW, window);
        }
        sc.probe("rapl", Probe::RaplW, Window::span(0, windows * window_ns));
        sc
    }

    #[test]
    fn a_session_case_keeps_an_ac_trace_bounded_in_scenario_length() {
        let cfg = SimConfig::epyc_7502_2s();
        for windows in [4, 16] {
            let case = Case::new("throttled", cfg.clone(), throttled_windows(windows), 3);
            let mut direct = System::new(cfg.clone(), case.seed);
            let full = direct.run_scenario(&case.scenario).unwrap();
            let mut session_way = System::new(cfg.clone(), case.seed);
            let trimmed = run_prechecked(&mut session_way, &case);
            assert_eq!(format!("{trimmed:?}"), format!("{full:?}"), "{windows} windows");
            // Throttled slots each start a segment, so the whole trace
            // grows with the scenario...
            assert!(
                direct.ac_trace_high_water() as u64 > windows * SLOTS_PER_WINDOW * 9 / 10,
                "{windows} windows: {} segments",
                direct.ac_trace_high_water()
            );
            // ...while the session keeps about one window's segments.
            assert!(
                session_way.ac_trace_high_water() as u64 <= 2 * SLOTS_PER_WINDOW + 8,
                "{windows} windows: {} segments",
                session_way.ac_trace_high_water()
            );
        }
    }

    #[test]
    #[should_panic(expected = "before the kept trace")]
    fn a_trimmed_trace_refuses_a_window_before_it() {
        let cfg = SimConfig::epyc_7502_2s();
        let case = Case::new("throttled", cfg.clone(), throttled_windows(4), 3);
        let mut sys = System::new(cfg, case.seed);
        run_prechecked(&mut sys, &case);
        sys.trace_mean_w(0, sys.now_ns());
    }

    /// Two overlapping trace windows and a third that opens at the second's
    /// close: the first closes while the second is open and copies its
    /// records, the second and third close alone and take theirs out of
    /// the tracer, leaving behind the records before their start and
    /// those their filter rejects. The run equals the direct run's, whose
    /// tracer keeps every record.
    #[test]
    fn trace_windows_that_close_alone_hand_their_records_over() {
        use crate::probe::EventFilter;
        use crate::trace::Record;
        use zen2_topology::CoreId;
        let cfg = SimConfig::epyc_7502_2s();
        let mut sc = Scenario::new();
        sc.at(0).workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF);
        for (k, mhz) in (1..).zip([1500, 2200, 2500, 1500, 2500, 2200]) {
            sc.at(k * 7 * MILLISECOND).pstate(ThreadId(0), mhz).pstate(ThreadId(1), mhz);
        }
        sc.at(36 * MILLISECOND).workload(ThreadId(9), KernelClass::BusyWait, OperandWeight::HALF);
        let ms = |a, b| Window::span(a * MILLISECOND, b * MILLISECOND);
        let core0 = Probe::TraceEvents(EventFilter::Freq(CoreId(0)));
        sc.probe("early", core0, ms(0, 20));
        sc.probe("late", Probe::TraceEvents(EventFilter::All), ms(5, 30));
        sc.probe("after", core0, ms(30, 45));
        let case = Case::new("traced", cfg.clone(), sc, 5);
        let mut direct = System::new(cfg.clone(), case.seed);
        let whole = direct.run_scenario(&case.scenario).unwrap();
        let mut sys = System::new(cfg, case.seed);
        let handed = run_prechecked(&mut sys, &case);
        assert_eq!(format!("{handed:?}"), format!("{whole:?}"));
        for label in ["early", "late", "after"] {
            assert!(!handed.events(label).is_empty(), "{label} records events");
        }
        // Records before the hand-overs' starts and of other cores were
        // there to leave behind.
        let records = direct.tracer().records();
        assert!(records.iter().any(|r| r.at_ns < 5 * MILLISECOND));
        let span = 30 * MILLISECOND..45 * MILLISECOND;
        let other_core = |r: &&Record| !EventFilter::Freq(CoreId(0)).matches(&r.event);
        assert!(records.iter().filter(other_core).any(|r| span.contains(&r.at_ns)));
        // The records before the last window's end left the session's
        // tracer with it; the direct machine keeps them all.
        assert!(sys.tracer().records().iter().all(|r| r.at_ns >= 45 * MILLISECOND));
    }

    /// A case keeps the counters of exactly the threads its probes read,
    /// and its run equals the direct run's, whose machine keeps every
    /// thread's.
    #[test]
    #[should_panic(
        expected = "performance-counter read on a machine that keeps no performance counters \
                    for thread 0"
    )]
    fn a_case_keeps_the_counters_of_the_threads_its_probes_read() {
        let cfg = SimConfig::epyc_7502_2s();
        let mut sc = Scenario::new();
        sc.at(0).workload(ThreadId(5), KernelClass::VXorps, OperandWeight::HALF);
        let window = Window::span(MILLISECOND, 20 * MILLISECOND);
        let series = Probe::CounterSeries { thread: ThreadId(9), every: 5 * MILLISECOND };
        sc.probe("series", series, window);
        sc.probe("delta", Probe::CounterDelta(ThreadId(5)), window);
        sc.probe("again", Probe::CounterDelta(ThreadId(9)), window);
        assert_eq!(sc.counter_threads(), [ThreadId(5), ThreadId(9)]);
        let case = Case::new("probed", cfg.clone(), sc, 7);
        let mut direct = System::new(cfg.clone(), case.seed);
        let every = direct.run_scenario(&case.scenario).unwrap();
        let mut sys = System::new(cfg, case.seed);
        let kept = run_prechecked(&mut sys, &case);
        assert_eq!(format!("{kept:?}"), format!("{every:?}"));
        for t in [ThreadId(5), ThreadId(9)] {
            assert_eq!(sys.counters(t), direct.counters(t));
        }
        sys.counters(ThreadId(0));
    }

    /// A Fig. 10-shaped case, every thread loaded and each block read by
    /// an AC, a RAPL package-sum and a RAPL core-0 window, keeps three
    /// RAPL domains, runs its held slots in the held loop, and reads what
    /// the direct run, which keeps all 66 and runs no held loop, reads.
    #[test]
    fn a_fig10_shaped_case_keeps_three_rapl_domains() {
        let cfg = SimConfig::epyc_7502_2s();
        let mut sc = Scenario::new();
        for (k, weight) in
            (0..).zip([OperandWeight::HALF, OperandWeight::ZERO, OperandWeight::FULL])
        {
            let t0 = k * 150 * MILLISECOND;
            let mut at = sc.at(t0);
            for t in 0..128 {
                at = at.workload(ThreadId(t), KernelClass::VXorps, weight);
            }
            let window = Window::span(t0, t0 + 150 * MILLISECOND);
            sc.probe(format!("ac{k}"), Probe::AcTrueMeanW, window);
            sc.probe(format!("pkg{k}"), Probe::RaplPkgW, window);
            sc.probe(format!("core0_{k}"), Probe::RaplCoreW(CoreId(0)), window);
        }
        let case = Case::new("fig10-shaped", cfg.clone(), sc, 5);
        let mut direct = System::new(cfg.clone(), case.seed);
        let whole = direct.run_scenario(&case.scenario).unwrap();
        let mut sys = System::new(cfg, case.seed);
        let lean = run_prechecked(&mut sys, &case);
        assert_eq!(format!("{lean:?}"), format!("{whole:?}"));
        assert_eq!((sys.rapl_core_count(), direct.rapl_core_count()), (1, 64));
        assert!(sys.slot_counts().held_loop_slots > 400, "{:?}", sys.slot_counts());
        assert_eq!(direct.slot_counts().held_loop_slots, 0);
        let read = |sys: &mut System, thread: u32, register| {
            sys.sync_rapl_msrs();
            sys.msrs().peek(ThreadId(thread), register)
        };
        for (thread, register) in [
            (0, address::CORE_ENERGY_STAT),
            (0, address::PKG_ENERGY_STAT),
            (64, address::PKG_ENERGY_STAT),
        ] {
            assert_eq!(read(&mut sys, thread, register), read(&mut direct, thread, register));
        }
        // Core 1's domain integrated nothing and was never written.
        assert_eq!(read(&mut sys, 2, address::CORE_ENERGY_STAT), 0);
        assert!(read(&mut direct, 2, address::CORE_ENERGY_STAT) > 0);
    }
}
