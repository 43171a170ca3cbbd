//! The telemetry facade the execution paths report through: a
//! [`Recorder`] receives hierarchical spans, counters, gauges, and
//! events from [`Session`](crate::Session) runs, and sink
//! implementations (the `zen2-obs` crate) turn them into JSONL traces,
//! summary tables, or live progress lines.
//!
//! # Out-of-band by construction
//!
//! Telemetry must never be able to change a result, so the facade is
//! shaped to make that structurally true rather than merely intended:
//!
//! * Every [`Recorder`] method takes `&self` and returns `()` — nothing
//!   an implementation does can flow back into the engine.
//! * This module contains **no clock reads**. `zen2-sim` reports *what*
//!   happened ("case 17's sim phase opened/closed"); a sink stamps
//!   *when* with its own clock (`zen2_obs::clock`, the one file the
//!   `no-wallclock` lint allowlists). Simulated time stays the only
//!   time the engine itself ever touches.
//! * The engine emits the same calls in the same per-thread order
//!   regardless of worker count or shard size; only the interleaving
//!   *across* worker threads (and every timestamp a sink attaches) is
//!   scheduling-dependent. Results are byte-identical with a recorder
//!   attached or not — `tests/observability.rs` asserts it across
//!   worker/shard splits.
//!
//! # Span hierarchy
//!
//! ```text
//! sweep                         one streaming run
//! └── shard                     one workers × shard_size case group
//!     ├── pool                  the worker-pool execution of the shard
//!     │   └── case              one case, on its worker thread
//!     │       ├── boot          the case's machine boot
//!     │       └── sim           scenario execution (the hot kernel)
//!     ├── reduce                one delivery folded by the caller
//!     └── checkpoint            the shard-boundary callback
//! ```
//!
//! Every entry point, [`Session::run`](crate::Session::run) included,
//! reports this shape. A failed run aborts mid-span, so sinks must
//! tolerate spans that never close (the bundled sinks all do).
//!
//! Span ids come from one process-wide counter, so they are unique
//! across concurrent sessions sharing a sink but are **not** stable
//! between runs — telemetry identity, never result identity.

use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies one span between its open and close calls. Unique within
/// the process; never reused while open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// One attribute value on a span or event. Borrowed, so emitting
/// telemetry never clones engine state; sinks that outlive the call
/// copy what they keep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue<'a> {
    /// An unsigned integer (indices, counts, worker numbers).
    U64(u64),
    /// A float.
    F64(f64),
    /// A string slice (labels).
    Str(&'a str),
    /// A flag.
    Bool(bool),
}

/// One `(key, value)` attribute.
pub type Attr<'a> = (&'static str, AttrValue<'a>);

/// A telemetry sink. All methods are fire-and-forget (`&self` → `()`),
/// and implementations must be `Send + Sync`: `case`-phase calls arrive
/// concurrently from the session's worker threads.
pub trait Recorder: Send + Sync {
    /// A span opened. `parent` is `None` only for root spans
    /// (`sweep`); `attrs` are valid for this call only.
    fn span_open(&self, id: SpanId, parent: Option<SpanId>, name: &'static str, attrs: &[Attr<'_>]);

    /// The span closed. Every close matches an earlier open, but an
    /// aborted run may leave opens with no close.
    fn span_close(&self, id: SpanId);

    /// A monotonically accumulating count increased by `delta`
    /// (never called with zero).
    fn counter(&self, name: &'static str, delta: u64);

    /// A point-in-time level.
    fn gauge(&self, name: &'static str, value: f64);

    /// One observation of a distribution (histogram primitive; sinks
    /// aggregate with [`Welford`](crate::stats::Welford) /
    /// [`P2Quantile`](crate::stats::P2Quantile)).
    fn observe(&self, name: &'static str, value: f64);

    /// A structured point event (e.g. [`EVT_SWEEP_TOTAL`]).
    fn event(&self, name: &'static str, attrs: &[Attr<'_>]);
}

/// Root span of one streaming run. Attrs: `first_index`, `workers`,
/// `shard_size`.
pub const SPAN_SWEEP: &str = "sweep";
/// One shard-group of a streaming run. Attrs: `first`, `cases`.
pub const SPAN_SHARD: &str = "shard";
/// The worker-pool execution of one shard. Attrs: `cases`,
/// `workers`.
pub const SPAN_POOL: &str = "pool";
/// One case on its worker thread. Attrs: `index`, `label`, `worker`.
pub const SPAN_CASE: &str = "case";
/// The case's machine boot, under its `case` span.
pub const SPAN_BOOT: &str = "boot";
/// A [`System::fork`](crate::System::fork) of a booted machine. The
/// session never emits it (it boots every case); recorders that time
/// forks themselves name their span with it.
pub const SPAN_FORK: &str = "fork";
/// Scenario execution — the simulator hot path, under its `case` span.
pub const SPAN_SIM: &str = "sim";
/// One delivery folded by the caller's sink/accumulators. Attrs:
/// `index`.
pub const SPAN_REDUCE: &str = "reduce";
/// The shard-boundary callback (typically a checkpoint save). Attrs:
/// `next`.
pub const SPAN_CHECKPOINT: &str = "checkpoint";

/// Cases booted without a prototype to fork. The session never reports
/// it (it boots every case); recorders that count boots themselves
/// name their counter with it.
pub const CTR_CACHE_MISS: &str = "cache.miss";
/// Cases delivered to the caller.
pub const CTR_CASES_DONE: &str = "cases.done";

/// Shard sizes actually pulled (the tail shard is usually short).
pub const OBS_SHARD_CASES: &str = "shard.cases";

/// Announces a run's extent before streaming starts — what a progress
/// sink needs for percentages and ETA. Attrs: `sweep` (label), `total`
/// (full case count), `start` (resume offset; 0 for a fresh run).
pub const EVT_SWEEP_TOTAL: &str = "sweep.total";

/// Process-wide span id allocator (see the module docs on stability).
fn next_span_id() -> SpanId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    SpanId(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// The borrowed handle the execution paths thread through themselves:
/// a no-op when no recorder is attached, so the instrumented hot paths
/// pay one branch per call site.
#[derive(Clone, Copy)]
pub(crate) struct Obs<'a> {
    rec: Option<&'a dyn Recorder>,
}

impl<'a> Obs<'a> {
    pub(crate) fn new(rec: Option<&'a dyn Recorder>) -> Self {
        Self { rec }
    }

    /// A disabled handle, for exercising instrumented internals in
    /// tests without a recorder.
    #[cfg(test)]
    pub(crate) fn off() -> Self {
        Self { rec: None }
    }

    pub(crate) fn open(
        self,
        parent: Option<SpanId>,
        name: &'static str,
        attrs: &[Attr<'_>],
    ) -> Option<SpanId> {
        let rec = self.rec?;
        let id = next_span_id();
        rec.span_open(id, parent, name, attrs);
        Some(id)
    }

    pub(crate) fn close(self, span: Option<SpanId>) {
        if let (Some(rec), Some(id)) = (self.rec, span) {
            rec.span_close(id);
        }
    }

    pub(crate) fn counter(self, name: &'static str, delta: u64) {
        if let Some(rec) = self.rec.filter(|_| delta > 0) {
            rec.counter(name, delta);
        }
    }

    pub(crate) fn observe(self, name: &'static str, value: f64) {
        if let Some(rec) = self.rec {
            rec.observe(name, value);
        }
    }

    pub(crate) fn event(self, name: &'static str, attrs: &[Attr<'_>]) {
        if let Some(rec) = self.rec {
            rec.event(name, attrs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_unique_and_monotonic() {
        let a = next_span_id();
        let b = next_span_id();
        assert!(b.0 > a.0);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::off();
        let span = obs.open(None, SPAN_SWEEP, &[("workers", AttrValue::U64(4))]);
        assert_eq!(span, None);
        obs.close(span);
        obs.counter(CTR_CASES_DONE, 1);
        obs.observe(OBS_SHARD_CASES, 64.0);
        obs.event(EVT_SWEEP_TOTAL, &[("total", AttrValue::U64(10))]);
    }
}
