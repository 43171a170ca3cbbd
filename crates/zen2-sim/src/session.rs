//! Batch execution: many `(SimConfig, Scenario, seed)` cases across a
//! worker pool, with results identical to serial execution.
//!
//! Every entry point runs one streaming core: it pulls cases one
//! shard-group (`workers × shard_size` cases) at a time, validates them,
//! executes them across the pool, and delivers each completed [`Run`] in
//! case order. [`Session::run`] collects a slice of cases into a `Vec`.
//! [`Session::run_streaming`] consumes a lazy case iterator (e.g.
//! [`Sweep::cases`](crate::Sweep::cases)) and hands each run to a sink,
//! holding at most `workers × shard_size` cases in memory.
//! [`Session::run_streaming_checkpointed`] adds two things for
//! interruptible paper-scale sweeps: the sink also observes every shard
//! boundary (a consistent cut to persist accumulator snapshots at), and
//! delivery indices can start at a resume offset.
//!
//! Each case boots its own freshly seeded machine
//! (`System::new(case.config, case.seed)`), so results depend only on
//! the case — never on scheduling or on the worker count.
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
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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
    /// it: cases are pulled from the iterator one shard-group
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
        self.run_streaming_with(cases, sink, |sys, case| {
            sys.run_scenario_prechecked(&case.scenario)
        })
    }

    /// [`run_streaming`](Self::run_streaming) with a checkpoint hook:
    /// the callback observes every delivery *and* every shard boundary,
    /// and delivered indices start at `first_index` — the two pieces a
    /// resumable sweep needs.
    ///
    /// [`StreamEvent::ShardBoundary`] fires after each shard's runs have
    /// been delivered (including the last), carrying the index of the
    /// next case the stream will execute. At that instant every case
    /// below the boundary has been folded into the caller's accumulators
    /// and nothing above it has — a consistent cut to persist (see
    /// [`Checkpoint`](crate::checkpoint::Checkpoint)). `first_index`
    /// offsets delivery indices for resumed streams: pass the index of
    /// the first case in `cases` (e.g. the `done` count of a loaded
    /// checkpoint, with `cases` starting at that case of the grid).
    ///
    /// The callback steers the stream: [`StreamControl::Halt`] stops
    /// cleanly after the current event (the paper-scale "stop now,
    /// resume later" path — the caller sees fewer deliveries than cases
    /// and knows the stream is incomplete), and an `Err` aborts with
    /// [`SessionErrorKind::CheckpointFailed`] (e.g. the checkpoint file
    /// could not be written). Returns the number of runs delivered by
    /// *this* call.
    ///
    /// ```
    /// use zen2_sim::{Case, Probe, Scenario, Session, SimConfig, Window};
    /// use zen2_sim::{StreamControl, StreamEvent};
    ///
    /// let mut sc = Scenario::new();
    /// sc.probe("ac", Probe::AcPowerW, Window::at(0));
    /// let case = |i: usize| {
    ///     Case::new(format!("case{i}"), SimConfig::epyc_7502_2s(), sc.clone(), i as u64)
    /// };
    /// // Resume at case 4 of 10: indices continue where the first run
    /// // stopped, and every shard boundary offers a durable cut.
    /// let mut delivered = Vec::new();
    /// let mut boundaries = Vec::new();
    /// let session = Session::new().workers(2).shard_size(2);
    /// let n = session
    ///     .run_streaming_checkpointed(4, (4..10).map(case), |event| {
    ///         match event {
    ///             StreamEvent::Run { index, .. } => delivered.push(index),
    ///             StreamEvent::ShardBoundary { next } => boundaries.push(next),
    ///         }
    ///         Ok(StreamControl::Continue)
    ///     })
    ///     .unwrap();
    /// assert_eq!(n, 6);
    /// assert_eq!(delivered, [4, 5, 6, 7, 8, 9]);
    /// assert_eq!(boundaries, [8, 10]); // workers × shard_size = 4 per shard
    /// ```
    pub fn run_streaming_checkpointed<I, F>(
        &self,
        first_index: usize,
        cases: I,
        on_event: F,
    ) -> Result<usize, SessionError>
    where
        I: IntoIterator<Item = Case>,
        F: FnMut(StreamEvent) -> Result<StreamControl, String>,
    {
        self.run_streaming_events_with(first_index, cases, on_event, |sys, case| {
            sys.run_scenario_prechecked(&case.scenario)
        })
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
        self.run_streaming_events_with(
            0,
            cases,
            |event| {
                if let StreamEvent::Run { index, run } = event {
                    sink(index, run);
                }
                Ok(StreamControl::Continue)
            },
            execute,
        )
    }

    /// The streaming core every public streaming entry point reduces
    /// to: pulls `cases` one shard-group (`workers × shard_size` cases)
    /// at a time, executes each shard on the worker pool, and reports
    /// deliveries and shard boundaries through `on_event` with indices
    /// offset by `first_index`.
    fn run_streaming_events_with<I, F>(
        &self,
        first_index: usize,
        cases: I,
        mut on_event: F,
        execute: impl Fn(&mut System, &Case) -> Run + Sync,
    ) -> Result<usize, SessionError>
    where
        I: IntoIterator<Item = Case>,
        F: FnMut(StreamEvent) -> Result<StreamControl, String>,
    {
        let group = self.workers.saturating_mul(self.shard);
        let mut iter = cases.into_iter();
        let mut delivered = 0usize;
        let obs = self.obs();
        // On error paths (`?`) the open spans are deliberately left
        // unclosed: the run is aborting, and sinks tolerate it.
        let sweep_span = obs.open(
            None,
            obs::SPAN_SWEEP,
            &[
                ("first_index", AttrValue::U64(first_index as u64)),
                ("workers", AttrValue::U64(self.workers as u64)),
                ("shard_size", AttrValue::U64(self.shard as u64)),
            ],
        );
        // Forwards one event, attributing a callback failure to `at`.
        let mut notify = |event: StreamEvent, at: &str| -> Result<StreamControl, SessionError> {
            on_event(event).map_err(|message| SessionError {
                case: at.to_string(),
                kind: SessionErrorKind::CheckpointFailed(message),
            })
        };
        loop {
            let shard_cases: Vec<Case> = iter.by_ref().take(group).collect();
            if shard_cases.is_empty() {
                obs.close(sweep_span);
                return Ok(delivered);
            }
            for case in &shard_cases {
                validate_case(case)?;
            }
            let shard_span = obs.open(
                sweep_span,
                obs::SPAN_SHARD,
                &[
                    ("first", AttrValue::U64((first_index + delivered) as u64)),
                    ("cases", AttrValue::U64(shard_cases.len() as u64)),
                ],
            );
            obs.observe(OBS_SHARD_CASES, shard_cases.len() as f64);
            let outcomes = pool_outcomes(
                &shard_cases,
                self.workers,
                &execute,
                obs,
                shard_span,
                first_index + delivered,
            );
            for (case, outcome) in shard_cases.iter().zip(outcomes) {
                match outcome {
                    Ok(run) => {
                        let index = first_index + delivered;
                        let reduce_span = obs.open(
                            shard_span,
                            obs::SPAN_REDUCE,
                            &[("index", AttrValue::U64(index as u64))],
                        );
                        let control = notify(StreamEvent::Run { index, run }, &case.label)?;
                        obs.close(reduce_span);
                        obs.counter(CTR_CASES_DONE, 1);
                        delivered += 1;
                        if matches!(control, StreamControl::Halt) {
                            obs.close(shard_span);
                            obs.close(sweep_span);
                            return Ok(delivered);
                        }
                    }
                    Err(panic) => {
                        return Err(SessionError {
                            case: case.label.clone(),
                            kind: SessionErrorKind::WorkerPanicked(panic),
                        })
                    }
                }
            }
            let next = first_index + delivered;
            let boundary = StreamEvent::ShardBoundary { next };
            let checkpoint_span = obs.open(
                shard_span,
                obs::SPAN_CHECKPOINT,
                &[("next", AttrValue::U64(next as u64))],
            );
            let control = notify(boundary, &format!("shard boundary at {next}"))?;
            obs.close(checkpoint_span);
            obs.close(shard_span);
            if let StreamControl::Halt = control {
                obs.close(sweep_span);
                return Ok(delivered);
            }
        }
    }
}

/// One notification from the checkpointed streaming path
/// ([`Session::run_streaming_checkpointed`]).
#[derive(Debug)]
pub enum StreamEvent {
    /// Case `index`'s completed run, delivered in case order.
    Run {
        /// The case's global index (`first_index` + deliveries so far).
        index: usize,
        /// The completed run.
        run: Run,
    },
    /// Every case with index < `next` has been delivered and nothing at
    /// or above `next` has — a consistent cut for persisting
    /// accumulator snapshots.
    ShardBoundary {
        /// The index of the next case the stream will execute.
        next: usize,
    },
}

/// What a checkpointed stream should do after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamControl {
    /// Keep streaming.
    Continue,
    /// Stop cleanly after this event: remaining cases are not executed
    /// and the call returns `Ok` with the deliveries so far (the
    /// deliberate mid-run halt of a checkpointed sweep).
    Halt,
}

/// Validates one case, attributing any scenario error to its label.
fn validate_case(case: &Case) -> Result<(), SessionError> {
    case.scenario.validate(&case.config).map_err(|error| SessionError {
        case: case.label.clone(),
        kind: SessionErrorKind::InvalidScenario(error),
    })
}

/// Executes every case across a worker pool, booting a fresh machine per
/// case, and returns each case's outcome in case order. Panicking cases
/// are contained and reported as `Err` outcomes. Each case reports a
/// `case` span (with `boot` and `sim` child phases) through `obs`,
/// indexed globally from `base_index`.
fn pool_outcomes(
    cases: &[Case],
    workers: usize,
    execute: &(impl Fn(&mut System, &Case) -> Run + Sync),
    obs: Obs<'_>,
    parent: Option<SpanId>,
    base_index: usize,
) -> Vec<Result<Run, String>> {
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<Run, String>>>> =
        cases.iter().map(|_| Mutex::new(None)).collect();
    let workers = workers.min(cases.len()).max(1);
    let results_ref = &results;
    let next_ref = &next;
    let pool_span = obs.open(
        parent,
        obs::SPAN_POOL,
        &[
            ("cases", AttrValue::U64(cases.len() as u64)),
            ("workers", AttrValue::U64(workers as u64)),
        ],
    );

    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || loop {
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= cases.len() {
                    break;
                }
                let case = &cases[i];
                let case_span = obs.open(
                    pool_span,
                    obs::SPAN_CASE,
                    &[
                        ("index", AttrValue::U64((base_index + i) as u64)),
                        ("label", AttrValue::Str(&case.label)),
                        ("worker", AttrValue::U64(w as u64)),
                    ],
                );
                // Contain a panicking case: record it against slot `i`
                // and keep the worker alive for the remaining cases,
                // instead of letting the unwind cross the scope and
                // cascade into unrelated cases.
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let boot_span = obs.open(case_span, obs::SPAN_BOOT, &[]);
                    let mut sys = System::new(case.config.clone(), case.seed);
                    obs.close(boot_span);
                    let sim_span = obs.open(case_span, obs::SPAN_SIM, &[]);
                    let run = execute(&mut sys, case);
                    obs.close(sim_span);
                    run
                }))
                .map_err(|payload| panic_text(payload.as_ref()));
                obs.close(case_span);
                // Nothing here can poison the slot (the fallible work
                // all sits inside the catch above), but stay robust.
                let mut slot = match results_ref[i].lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                *slot = Some(outcome);
            });
        }
    });
    obs.close(pool_span);

    results
        .into_iter()
        .map(|slot| {
            let outcome = match slot.into_inner() {
                Ok(value) => value,
                Err(poisoned) => poisoned.into_inner(),
            };
            outcome.expect("every claimed case stores its outcome")
        })
        .collect()
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
    /// The streaming event callback failed (typically: a checkpoint
    /// file could not be written at a shard boundary); the stream
    /// stopped at the failing event. The `case` field names the
    /// delivery or boundary the callback was handling.
    CheckpointFailed(String),
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
            SessionErrorKind::CheckpointFailed(message) => {
                write!(f, "checkpoint at {:?} failed: {}", self.case, message)
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            SessionErrorKind::InvalidScenario(error) => Some(error),
            SessionErrorKind::WorkerPanicked(_) | SessionErrorKind::CheckpointFailed(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Probe, Window};

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
                    sys.run_scenario_prechecked(&case.scenario)
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
    fn checkpointed_stream_reports_boundaries_and_offsets_indices() {
        let batch = cases(&["a", "b", "c", "d", "e"]);
        let mut indices = Vec::new();
        let mut boundaries = Vec::new();
        let n = Session::new()
            .workers(1)
            .shard_size(2)
            .run_streaming_checkpointed(10, batch, |event| {
                match event {
                    StreamEvent::Run { index, .. } => indices.push(index),
                    StreamEvent::ShardBoundary { next } => boundaries.push(next),
                }
                Ok(StreamControl::Continue)
            })
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(indices, [10, 11, 12, 13, 14]);
        // Shards of 2 cases: boundaries after 2, 4 and 5 deliveries,
        // including one after the final (short) shard.
        assert_eq!(boundaries, [12, 14, 15]);
    }

    #[test]
    fn checkpointed_stream_halts_cleanly_at_a_boundary() {
        let batch = cases(&["a", "b", "c", "d", "e"]);
        let mut delivered = 0;
        let n = Session::new()
            .workers(1)
            .shard_size(2)
            .run_streaming_checkpointed(0, batch, |event| {
                Ok(match event {
                    StreamEvent::Run { .. } => {
                        delivered += 1;
                        StreamControl::Continue
                    }
                    // Stop at the first boundary: cases 2.. never run.
                    StreamEvent::ShardBoundary { .. } => StreamControl::Halt,
                })
            })
            .unwrap();
        assert_eq!((n, delivered), (2, 2));
    }

    #[test]
    fn checkpoint_callback_failure_aborts_with_its_own_kind() {
        let batch = cases(&["a", "b", "c"]);
        let err = Session::new()
            .workers(1)
            .shard_size(2)
            .run_streaming_checkpointed(0, batch, |event| match event {
                StreamEvent::Run { .. } => Ok(StreamControl::Continue),
                StreamEvent::ShardBoundary { .. } => Err("disk full".into()),
            })
            .unwrap_err();
        assert!(matches!(err.kind, SessionErrorKind::CheckpointFailed(ref m) if m == "disk full"));
        assert!(err.to_string().contains("disk full"));
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
                    sys.run_scenario_prechecked(&case.scenario)
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
                        sys.run_scenario_prechecked(&case.scenario)
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
                sys.run_scenario_prechecked(&case.scenario)
            },
        );
        let mut ran = executed.into_inner().unwrap();
        ran.sort();
        assert_eq!(ran, ["a", "c", "d"]);
    }
}
