//! # zen2-ee — Energy-efficiency aspects of the AMD Zen 2 architecture
//!
//! A full reproduction of Schöne et al., *"Energy Efficiency Aspects of
//! the AMD Zen 2 Architecture"* (IEEE CLUSTER 2021), built as a
//! mechanistic, deterministic simulator of the paper's dual-socket EPYC
//! 7502 test system plus faithful re-implementations of every experiment
//! in the paper's evaluation.
//!
//! ## Quick start
//!
//! Scenarios record timed actions as data, probes declare what to
//! observe, and a session executes `(config, scenario, seed)` cases over
//! a worker pool — the same machinery every experiment module drives:
//!
//! ```
//! use zen2_ee::prelude::*;
//!
//! // The paper's test system: 2x EPYC 7502, SMT on, booted all idle.
//! let config = SimConfig::epyc_7502_2s();
//!
//! // Watch the Fig. 7 idle floor, then put FIRESTARTER on every
//! // hardware thread and watch the EDC/PPT manager pull the cores
//! // below nominal (Fig. 6).
//! let mut sc = Scenario::new();
//! sc.probe("idle", Probe::AcTrueMeanW, Window::span_secs(0.05, 0.25));
//! let mut at = sc.at_secs(0.25);
//! for t in 0..128u32 {
//!     at = at.workload(ThreadId(t), KernelClass::Firestarter, OperandWeight::HALF);
//! }
//! sc.probe("throttled", Probe::EffectiveGhz(CoreId(0)), Window::at_secs(0.35));
//!
//! let cases = vec![Case::new("quickstart", config, sc, 42)];
//! let run = &Session::new().run(&cases).expect("scenario validates")[0];
//! assert!((run.watts("idle") - 99.1).abs() < 1.5); // Fig. 7 idle floor
//! let f = run.ghz("throttled");
//! assert!(f < 2.2, "throttled from the nominal 2.5 GHz to {f:.2} GHz");
//! ```
//!
//! ## Crate map
//!
//! * [`topology`] — the Rome SoC structure (sockets/CCDs/CCXs/cores/SMT).
//! * [`msr`] — Family-17h MSRs: P-state encodings, RAPL counters.
//! * [`isa`] — workload kernels with per-unit activity (FIRESTARTER,
//!   STREAM, pointer chase, the Fig. 9/10 kernel sets).
//! * [`power`] — calibrated true-power models and the LMG670 meter.
//! * [`mem`] — FCLK/UCLK/MEMCLK clock domains, L3/DRAM latency, STREAM
//!   bandwidth.
//! * [`rapl`] — AMD's modeled RAPL with its structural blind spots.
//! * [`sim`] — the event-driven machine: SMU slots and ramps, CCX clock
//!   coupling, C-states and package C6, PPT/EDC control, OS interfaces.
//! * [`experiments`] — one module per paper table/figure with
//!   paper-vs-measured reporting.

pub use zen2_experiments as experiments;
pub use zen2_isa as isa;
pub use zen2_mem as mem;
pub use zen2_msr as msr;
pub use zen2_power as power;
pub use zen2_rapl as rapl;
pub use zen2_sim as sim;
pub use zen2_topology as topology;

/// The most common imports for driving the simulated machine.
pub mod prelude {
    pub use zen2_isa::{KernelClass, OperandWeight, SmtMode};
    pub use zen2_mem::{DramFreq, IodPstate};
    pub use zen2_sim::{
        Axis, Case, CaseDraft, Checkpoint, CheckpointError, CheckpointSpec, EventFilter,
        FreqResidency, GroupedStats, Json, Measurement, OnlineStats, P2Quantile, Probe, Run,
        Scenario, ScenarioError, Session, SessionError, SessionErrorKind, ShardRange, SimConfig,
        Snapshot, SnapshotError, StreamControl, StreamEvent, Sweep, System, TransitionStats,
        Welford, Window,
    };
    pub use zen2_topology::{CoreId, LogicalCpu, SocketId, ThreadId, Topology};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_boots_the_paper_system() {
        let sys = System::new(SimConfig::epyc_7502_2s(), 1);
        assert_eq!(sys.config().topology.num_threads(), 128);
    }
}
