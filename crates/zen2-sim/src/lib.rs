//! Deterministic simulator of the paper's dual-socket AMD EPYC 7502 system.
//!
//! The simulator is event-driven with piecewise-constant power segments:
//! machine state (thread workloads, C-states, DVFS targets) changes only at
//! explicit events, so power, performance counters and RAPL energy can be
//! integrated exactly between events. All stochastic behavior (measurement
//! noise, random waits) flows from a caller-supplied seed.
//!
//! The interesting control machinery, each in its own module:
//!
//! * [`smu`] — the SMU network's DVFS behavior: requests are granted only
//!   at 1 ms update slots, ramps take 390 µs down / 360 µs up, and an
//!   incomplete previous transition enables the 2.2↔2.5 GHz fast paths of
//!   Section V-B (down to 160 µs, or 1 µs for an instantaneous return).
//! * [`ccx`] — the CCX clock mesh: the L3 and mesh follow the fastest core
//!   in the complex, and slower cores are re-derived from the mesh through
//!   a ⅛-step frequency divider. That divider granularity reproduces the
//!   paper's Table I *exactly* (2.2 GHz set → 2.000 GHz applied when a
//!   2.5 GHz neighbor raises the mesh).
//! * [`cstate`] — idle-state machinery including the global package-C6
//!   criterion ("all threads of all packages must be in the deepest sleep
//!   state") and the offline-thread anomaly of Section VI-B.
//! * [`controller`] — the SMU telemetry loop ("an intelligent EDC manager
//!   which monitors activity and throttles execution only when necessary"):
//!   regulates the *estimated* package power (the RAPL model) against its
//!   PPT target in 25 MHz steps.
//! * [`power`] — true-power integration: cores, package base, DRAM
//!   traffic, PSU, thermal/leakage feedback, the meter trace and the RAPL
//!   energy accounting.
//! * [`perf`] — TSC/APERF/MPERF/instructions accounting, including the
//!   timer-tick cycles that make idle hardware threads report "less than
//!   60 000 cycle/s".
//! * [`os`] — the Linux-side interfaces the paper drives: the `userspace`
//!   cpufreq governor, sysfs C-state disabling, hotplug.
//! * [`system`] — the façade tying it all together.
//!
//! The declarative driving surface sits on top of the façade:
//!
//! * [`scenario`] — a [`Scenario`] records timed actions as data and
//!   validates them against the topology before anything simulates.
//! * [`probe`] — a [`Probe`] plus a [`Window`] declares *what* to observe
//!   and *when*; executing a scenario returns one typed [`Run`].
//! * [`session`] — a [`Session`] executes `(SimConfig, Scenario, seed)`
//!   batches across a worker pool, booting one machine per case, with
//!   results independent of the worker count; [`Session::run_streaming`]
//!   does the same for lazy case streams with bounded memory.
//! * [`sweep`] — a [`Sweep`] declares a parameter grid as named
//!   [`Axis`] labels plus one function from a grid point's axis indices
//!   to its `(config, scenario)`, lazily yields its cases, and streams
//!   them through a session.
//! * [`stats`] — on-line aggregators (Welford, streaming quantiles,
//!   trace reductions) turning arbitrarily large sweeps into
//!   bounded-size summaries, including [`GroupedStats`] buckets keyed
//!   by sweep axes for per-frequency / per-config rows.
//! * [`snapshot`] / [`checkpoint`] — exact JSON snapshots and the
//!   durable checkpoint files that store one snapshot per finished
//!   case's cell, so a paper-scale sweep interrupted at a shard
//!   boundary resumes with byte-identical output (see
//!   `docs/SWEEPS.md`).
//! * [`obs`] — the out-of-band telemetry facade ([`Recorder`]): session
//!   runs report spans, counters, gauges, and progress events through
//!   it; the sinks live in the `zen2-obs` crate, and results are
//!   byte-identical with or without one attached (see
//!   `docs/OBSERVABILITY.md`).
//! * [`torture`] — the seeded random-scenario fuzzer and physics-invariant
//!   checker behind the `torture` soak bin and the proptest suite (see
//!   `docs/TORTURE.md`).

pub mod ccx;
pub mod checkpoint;
pub mod config;
pub mod controller;
pub mod cstate;
pub mod methodology;
pub mod obs;
pub mod os;
pub mod perf;
pub mod power;
pub mod probe;
pub mod scenario;
pub mod session;
pub mod smu;
pub mod snapshot;
pub mod stats;
pub mod sweep;
pub mod system;
pub mod time;
pub mod torture;
pub mod trace;
pub mod wakeup;

#[cfg(test)]
mod proptests;

pub use checkpoint::{Checkpoint, CheckpointError, CheckpointSpec, ShardRange};
pub use config::SimConfig;
pub use obs::{Attr, AttrValue, Recorder, SpanId};
pub use probe::{EventFilter, Measurement, Probe, ProbeSpec, Run, Window};
pub use scenario::{Op, Scenario, ScenarioError, Step};
pub use session::{Case, Session, SessionError, SessionErrorKind};
pub use snapshot::{Json, Snapshot, SnapshotError};
pub use stats::{FreqResidency, GroupedStats, OnlineStats, P2Quantile, TransitionStats, Welford};
pub use sweep::{Axis, Sweep};
pub use system::System;
pub use time::{Duration, Instant, Ns};
