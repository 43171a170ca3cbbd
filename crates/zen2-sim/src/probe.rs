//! Declarative observation: probes, windows, and typed measurements.
//!
//! A [`Probe`] names a physical quantity; a [`Window`] names when to look.
//! The scenario engine evaluates every probe while it advances the
//! machine, so one pass over simulated time yields every observation a
//! [`Run`] needs.
//!
//! All windows are *scenario-relative*: time 0 is the instant the
//! scenario starts executing, which for [`Session`](crate::Session) runs
//! is a freshly booted machine.

use crate::perf::ThreadCounters;
use crate::system::{package_lead, System};
use crate::time::{to_secs, Ns, SECOND};
use crate::trace::{Event, Record};
use zen2_msr::{address, RaplUnits};
use zen2_power::MeterSample;
use zen2_rapl::CounterTracker;
use zen2_topology::{CoreId, SocketId, ThreadId};

/// When a probe observes: a `[from, to]` span, or an instant (`from ==
/// to`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Window start, ns from scenario start.
    pub from: Ns,
    /// Window end, ns from scenario start.
    pub to: Ns,
}

impl Window {
    /// A span window over `[from, to]` nanoseconds.
    pub fn span(from: Ns, to: Ns) -> Self {
        Self { from, to }
    }

    /// A span window over `[from, to]` seconds.
    pub fn span_secs(from: f64, to: f64) -> Self {
        Self { from: crate::time::from_secs(from), to: crate::time::from_secs(to) }
    }

    /// An instantaneous window at `t` nanoseconds.
    pub fn at(t: Ns) -> Self {
        Self { from: t, to: t }
    }

    /// An instantaneous window at `t` seconds.
    pub fn at_secs(t: f64) -> Self {
        let t = crate::time::from_secs(t);
        Self { from: t, to: t }
    }

    /// Whether this is an instantaneous window.
    pub fn is_instant(&self) -> bool {
        self.from == self.to
    }

    /// Window length in seconds.
    pub fn secs(&self) -> f64 {
        to_secs(self.to - self.from)
    }
}

/// An observable quantity of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// True mean AC (wall) power over the window, from the power trace —
    /// no instrument noise. Span probe.
    AcTrueMeanW,
    /// Externally measured mean AC power: LMG670 samples over the window,
    /// averaged over the inner 80 % (the paper's 10 s / inner-8 s
    /// methodology). Span probe.
    AcMeteredW,
    /// The raw LMG670 sample stream over the window. Span probe.
    MeterSamples,
    /// Mean RAPL power as software computes it: the MSR energy counters
    /// polled at 100 ms over the window, reported as `(package sum, core
    /// sum)` watts. It reads every core domain, so a
    /// [`Session`](crate::Session) case that reads one keeps them all.
    /// Span probe.
    RaplW,
    /// The package sum of [`Probe::RaplW`], bit for bit, read from the
    /// package counters alone: a [`Session`](crate::Session) case whose
    /// other probes read no core domain keeps none. Span probe.
    RaplPkgW,
    /// Performance-counter delta of one hardware thread over the window.
    /// Span probe.
    CounterDelta(ThreadId),
    /// Performance-counter snapshots of one hardware thread at `every`
    /// intervals across the window (first snapshot at the window start).
    /// Span probe.
    CounterSeries {
        /// Observed hardware thread.
        thread: ThreadId,
        /// Sampling period, ns.
        every: Ns,
    },
    /// Repeated cond-var wakeup latency samples: every `gap` ns the
    /// `caller` signals the idle `callee` once. Span probe.
    WakeupSamples {
        /// Signalling thread (must be active).
        caller: ThreadId,
        /// Woken thread (must be idle).
        callee: ThreadId,
        /// Number of samples.
        count: usize,
        /// Time between samples, ns.
        gap: Ns,
    },
    /// AC energy consumed over the window, joules. Span probe.
    AcEnergyJ,
    /// Mean RAPL power of one core's domain over the window (the MSR
    /// energy counter polled at 100 ms, like [`Probe::RaplW`] but for a
    /// single core, which is the one core domain it keeps in a
    /// [`Session`](crate::Session) case). Span probe.
    RaplCoreW(CoreId),
    /// Tracer events recorded within `[from, to)`, filtered. When a
    /// scenario carries one of these, the engine enables the lo2s-style
    /// tracer for the duration of the run (and disables it again
    /// afterwards), so no explicit `tracing(true)` step is needed. Span
    /// probe.
    TraceEvents(EventFilter),
    /// Effective (post-coupling) frequency of a core, GHz. Instant probe.
    EffectiveGhz(CoreId),
    /// Instantaneous true AC power, W. Instant probe.
    AcPowerW,
    /// Instantaneous true package power of one socket, W. Instant probe.
    PkgTrueW(SocketId),
    /// Pointer-chase L3 hit latency of a reader core under the current
    /// CCX clocks, ns (Fig. 4 benchmark). Instant probe.
    L3LatencyNs(CoreId),
    /// Pointer-chase DRAM latency under the configured I/O-die P-state
    /// and DRAM clock, ns (Fig. 5b benchmark). Instant probe.
    DramLatencyNs,
    /// STREAM-triad bandwidth for this many streaming cores on one CCD,
    /// GB/s (Fig. 5a benchmark). The count must be between 1 and the
    /// machine's core count. Instant probe.
    StreamTriadGbs(u32),
    /// One socket's `PKG_ENERGY_STAT` MSR as software reads it, in raw
    /// energy-status counts (§VII's polling benchmark). The counter
    /// publishes every 1 ms, so two reads inside one publication period
    /// agree. It reads no core domain. Instant probe.
    PkgEnergyMsr(SocketId),
}

impl Probe {
    /// Whether this probe observes an instant rather than a span.
    pub fn is_instant(&self) -> bool {
        matches!(
            self,
            Probe::EffectiveGhz(_)
                | Probe::AcPowerW
                | Probe::PkgTrueW(_)
                | Probe::L3LatencyNs(_)
                | Probe::DramLatencyNs
                | Probe::StreamTriadGbs(_)
                | Probe::PkgEnergyMsr(_)
        )
    }

    /// Whether this probe reads the machine's AC power trace when its
    /// window closes: [`Probe::AcTrueMeanW`], [`Probe::AcMeteredW`] and
    /// [`Probe::MeterSamples`].
    pub(crate) fn reads_ac_trace(&self) -> bool {
        matches!(self, Probe::AcTrueMeanW | Probe::AcMeteredW | Probe::MeterSamples)
    }
}

/// Which recorded tracer events a [`Probe::TraceEvents`] collects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventFilter {
    /// Every recorded event.
    All,
    /// DVFS requests and applications of one core.
    Freq(CoreId),
    /// Scheduling-state changes of one thread.
    ThreadState(ThreadId),
    /// PC6 entries/exits of one socket.
    PackageSleep(SocketId),
    /// Throttle-cap movements of one socket.
    CapChanged(SocketId),
}

impl EventFilter {
    /// Whether a recorded event passes this filter.
    pub fn matches(&self, event: &Event) -> bool {
        match (*self, event) {
            (Self::All, _) => true,
            (
                Self::Freq(core),
                Event::FreqRequested { core: c, .. } | Event::FreqApplied { core: c, .. },
            ) => *c == core,
            (Self::ThreadState(thread), Event::ThreadState { thread: t, .. }) => *t == thread,
            (Self::PackageSleep(socket), Event::PackageSleep { socket: s, .. }) => *s == socket,
            (Self::CapChanged(socket), Event::CapChanged { socket: s, .. }) => *s == socket,
            _ => false,
        }
    }
}

/// A labelled probe bound to its observation window.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSpec {
    /// Name the measurement is retrieved by.
    pub label: String,
    /// What to observe.
    pub probe: Probe,
    /// When to observe.
    pub window: Window,
}

impl ProbeSpec {
    /// The `k`-th scenario-relative time (from `k = 1`), inside the window
    /// and after its start, at which the engine must pause for this probe,
    /// or `None` past the last: a counter snapshot every `every`, a wakeup
    /// draw every `gap`, or a RAPL poll about every 100 ms, the last on
    /// the window's end. The times rise strictly with `k`.
    pub(crate) fn obligation(&self, k: u64) -> Option<Ns> {
        let Window { from, to } = self.window;
        match self.probe {
            Probe::CounterSeries { every, .. } => {
                // u128: `from + k * every` can overflow u64 for huge intervals.
                let t = from as u128 + k as u128 * every as u128;
                (t <= to as u128).then_some(t as Ns)
            }
            Probe::WakeupSamples { count, gap, .. } => (k <= count as u64).then(|| from + k * gap),
            Probe::RaplW | Probe::RaplPkgW | Probe::RaplCoreW(_) => {
                let len = to - from;
                let steps = rapl_poll_steps(len);
                // u128: `len * k` can exceed u64 for very long windows.
                (k <= steps).then(|| from + (len as u128 * k as u128 / steps as u128) as Ns)
            }
            _ => None,
        }
    }
}

/// RAPL polling cadence of the probe engine: ~100 ms steps, staying far
/// from counter wrap.
fn rapl_poll_steps(len: Ns) -> u64 {
    (to_secs(len) / 0.1).ceil().max(1.0) as u64
}

/// One typed observation result.
#[derive(Debug, Clone, PartialEq)]
pub enum Measurement {
    /// A power, W.
    Watts(f64),
    /// RAPL package and core rails, W.
    WattsPair {
        /// Package-domain sum over all sockets.
        pkg_w: f64,
        /// Core-domain sum over all cores.
        core_w: f64,
    },
    /// A meter sample stream.
    Samples(Vec<MeterSample>),
    /// Counter snapshots at a window's ends, boxed so that every
    /// measurement fits in 32 bytes.
    CounterDelta {
        /// Snapshot at the window start.
        begin: Box<ThreadCounters>,
        /// Snapshot at the window end.
        end: Box<ThreadCounters>,
        /// Window length, s.
        wall_s: f64,
    },
    /// Counter snapshots at regular intervals (first at window start).
    CounterSeries(Vec<ThreadCounters>),
    /// Latency samples, ns.
    DurationsNs(Vec<f64>),
    /// A frequency, GHz.
    Ghz(f64),
    /// An energy, J.
    Joules(f64),
    /// A latency, ns.
    Nanos(f64),
    /// A bandwidth, GB/s.
    GigabytesPerSec(f64),
    /// Recorded tracer events (machine-absolute timestamps).
    Events(Vec<Record>),
    /// A raw register value.
    Raw(u64),
}

/// The complete result of executing one `(SimConfig, Scenario, seed)`
/// case: every probe's measurement plus closing machine state.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The seed the machine was booted with.
    pub seed: u64,
    /// Machine time when the scenario finished, ns.
    pub end_ns: Ns,
    /// Instantaneous true AC power at the end, W.
    pub final_ac_w: f64,
    /// `(label, measurement)` in probe declaration order.
    pub measurements: Vec<(String, Measurement)>,
}

impl Run {
    /// Looks a measurement up by label.
    pub fn get(&self, label: &str) -> &Measurement {
        self.measurements
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, m)| m)
            .unwrap_or_else(|| panic!("no measurement labelled {label:?}"))
    }

    /// A `Watts` measurement by label.
    pub fn watts(&self, label: &str) -> f64 {
        match self.get(label) {
            Measurement::Watts(w) => *w,
            other => panic!("{label:?} is {other:?}, not Watts"),
        }
    }

    /// A `WattsPair` measurement by label.
    pub fn watts_pair(&self, label: &str) -> (f64, f64) {
        match self.get(label) {
            Measurement::WattsPair { pkg_w, core_w } => (*pkg_w, *core_w),
            other => panic!("{label:?} is {other:?}, not WattsPair"),
        }
    }

    /// A `CounterDelta` measurement by label.
    pub fn counter_delta(&self, label: &str) -> (ThreadCounters, ThreadCounters, f64) {
        match self.get(label) {
            Measurement::CounterDelta { begin, end, wall_s } => (**begin, **end, *wall_s),
            other => panic!("{label:?} is {other:?}, not CounterDelta"),
        }
    }

    /// A `CounterSeries` measurement by label.
    pub fn counter_series(&self, label: &str) -> &[ThreadCounters] {
        match self.get(label) {
            Measurement::CounterSeries(s) => s,
            other => panic!("{label:?} is {other:?}, not CounterSeries"),
        }
    }

    /// A `DurationsNs` measurement by label.
    pub fn durations_ns(&self, label: &str) -> &[f64] {
        match self.get(label) {
            Measurement::DurationsNs(d) => d,
            other => panic!("{label:?} is {other:?}, not DurationsNs"),
        }
    }

    /// A `Ghz` measurement by label.
    pub fn ghz(&self, label: &str) -> f64 {
        match self.get(label) {
            Measurement::Ghz(g) => *g,
            other => panic!("{label:?} is {other:?}, not Ghz"),
        }
    }

    /// A `Joules` measurement by label.
    pub fn joules(&self, label: &str) -> f64 {
        match self.get(label) {
            Measurement::Joules(j) => *j,
            other => panic!("{label:?} is {other:?}, not Joules"),
        }
    }

    /// A `Samples` measurement by label.
    pub fn samples(&self, label: &str) -> &[MeterSample] {
        match self.get(label) {
            Measurement::Samples(s) => s,
            other => panic!("{label:?} is {other:?}, not Samples"),
        }
    }

    /// A `Nanos` measurement by label.
    pub fn nanos(&self, label: &str) -> f64 {
        match self.get(label) {
            Measurement::Nanos(n) => *n,
            other => panic!("{label:?} is {other:?}, not Nanos"),
        }
    }

    /// A `GigabytesPerSec` measurement by label.
    pub fn gbs(&self, label: &str) -> f64 {
        match self.get(label) {
            Measurement::GigabytesPerSec(b) => *b,
            other => panic!("{label:?} is {other:?}, not GigabytesPerSec"),
        }
    }

    /// An `Events` measurement by label.
    pub fn events(&self, label: &str) -> &[Record] {
        match self.get(label) {
            Measurement::Events(e) => e,
            other => panic!("{label:?} is {other:?}, not Events"),
        }
    }
}

/// An open window over some RAPL energy counters: both packages'
/// `PKG_ENERGY_STAT` for a [`Probe::RaplPkgW`], one core's
/// `CORE_ENERGY_STAT` for a [`Probe::RaplCoreW`], and both of these
/// windows over every core and both packages for a [`Probe::RaplW`]. Each
/// counter is read through its domain's first thread and accumulated by
/// the [`CounterTracker`] arithmetic the `x86_energy`-style
/// [`RaplReader`](zen2_rapl::RaplReader) applies to it, and the joules
/// are summed in domain order as the reader sums them, so the watts are
/// the reader's bit for bit without polling any other counter. It reads
/// the energy MSRs as [`System::sync_rapl_msrs`] last left them: the
/// scenario engine syncs once per breakpoint with a RAPL action due,
/// before the first of them, and nothing integrates until the breakpoint
/// ends.
pub(crate) struct RaplDomainsWindow {
    counters: Vec<(ThreadId, u32, CounterTracker)>,
    units: RaplUnits,
    from: Ns,
}

impl RaplDomainsWindow {
    /// Opens a window over both package domains at the machine's current
    /// time, on MSRs synced at this instant.
    pub(crate) fn packages(sys: &System) -> Self {
        let topo = &sys.config().topology;
        let leads = (0..topo.num_sockets()).map(|pkg| package_lead(topo, pkg));
        Self::open(sys, leads.map(|lead| (lead, address::PKG_ENERGY_STAT)).collect())
    }

    /// Opens a window over the domains of `cores`, in their order, at the
    /// machine's current time, on MSRs synced at this instant.
    pub(crate) fn cores(sys: &System, cores: impl Iterator<Item = CoreId>) -> Self {
        let tpc = sys.config().topology.threads_per_core() as u32;
        let first_threads = cores.map(|core| ThreadId(core.0 * tpc));
        Self::open(sys, first_threads.map(|thread| (thread, address::CORE_ENERGY_STAT)).collect())
    }

    fn open(sys: &System, registers: Vec<(ThreadId, u32)>) -> Self {
        let msrs = sys.msrs();
        let counters = registers
            .into_iter()
            .map(|(thread, msr)| (thread, msr, CounterTracker::new(msrs.peek(thread, msr) as u32)));
        Self {
            counters: counters.collect(),
            units: RaplUnits::decode(msrs.peek(ThreadId(0), address::RAPL_PWR_UNIT)),
            from: sys.now_ns(),
        }
    }

    /// Polls the counters at the machine's current time, on MSRs synced
    /// at this instant.
    pub(crate) fn poll(&mut self, sys: &System) {
        for (thread, msr, tracker) in &mut self.counters {
            tracker.update(sys.msrs().peek(*thread, *msr) as u32);
        }
    }

    /// Closes the window, returning the domains' summed mean power in
    /// watts.
    pub(crate) fn finish(self, sys: &System) -> f64 {
        let dt = to_secs(sys.now_ns() - self.from);
        assert!(dt > 0.0, "RAPL window must have positive length");
        // zen2-lint: allow(float-order) — one pass in ascending domain order, as `RaplReader` sums
        let joules: f64 = self.counters.iter().map(|(_, _, t)| t.total_joules(&self.units)).sum();
        joules / dt
    }
}

/// Sanity: probe windows cannot exceed this many simulated seconds (guards
/// against accidentally huge scenarios; the paper's longest run is 120 s).
pub(crate) const MAX_WINDOW_NS: Ns = 100_000 * SECOND;
