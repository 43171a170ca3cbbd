//! Telemetry sinks for the `zen2-sim` observability facade.
//!
//! `zen2-sim` instruments its execution paths against the pure-data
//! [`Recorder`] trait ([`zen2_sim::obs`]); this crate provides the
//! implementations that turn those calls into something usable:
//!
//! * [`JsonlSink`] — a machine-readable trace file, one JSON object per
//!   line (validated by the `obscheck` bin).
//! * [`SummarySink`] — bounded-memory aggregation into an end-of-run
//!   table (span durations, counters, worker utilization), built on the
//!   same Welford/P² accumulators as the sweeps themselves.
//! * [`Heartbeat`] — rate-limited `done/total … cases/s … eta` lines on
//!   stderr for long runs.
//! * [`MemorySink`] — owned records for tests asserting on engine
//!   behavior (counters, span shapes).
//! * [`Multi`] — fan-out, since a run usually wants several at once.
//! * [`clock`] — the single wall-clock read the `no-wallclock` lint
//!   allows; every timestamp in every sink comes from here.
//!
//! Telemetry is strictly out-of-band: attaching any of these to a
//! [`Session`](zen2_sim::Session) cannot change a result (the facade's
//! methods return nothing), and the workspace test
//! `tests/observability.rs` asserts byte-identical output with the full
//! sink stack attached or not, across worker/shard splits. See
//! `docs/OBSERVABILITY.md` for the event schema and a profiling
//! walkthrough.
//!
//! ```
//! use std::sync::Arc;
//! use zen2_obs::{Heartbeat, MemorySink, Multi, SummarySink};
//! use zen2_sim::Recorder;
//!
//! let memory = Arc::new(MemorySink::new());
//! let sinks = Multi::new(vec![
//!     memory.clone(),
//!     Arc::new(SummarySink::new()),
//!     Arc::new(Heartbeat::every_ns(u64::MAX)),
//! ]);
//! // A Session would do this internally once `.recorder(...)` is set:
//! sinks.counter(zen2_sim::obs::CTR_CASES_DONE, 3);
//! assert_eq!(memory.counter_total("cases.done"), 3);
//! ```

pub mod clock;
pub mod heartbeat;
pub mod jsonl;
pub mod memory;
pub mod multi;
pub mod summary;

pub use heartbeat::Heartbeat;
pub use jsonl::JsonlSink;
pub use memory::{MemorySink, Record, Value};
pub use multi::Multi;
pub use summary::SummarySink;
pub use zen2_sim::obs::{Attr, AttrValue, Recorder, SpanId};
