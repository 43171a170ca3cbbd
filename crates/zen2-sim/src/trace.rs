//! Machine event tracing (the `lo2s` role).
//!
//! The paper's group builds its measurements on low-overhead tracing of
//! scheduling and power events (Ilsche et al., "System Monitoring with
//! lo2s"). This module records the simulator's state transitions on a
//! timeline so experiments and debugging sessions can reconstruct *why*
//! a power trace looks the way it does: who requested which frequency
//! when, when the SMU granted it, when packages fell into or out of deep
//! sleep, and when the throttle controller moved its cap.
//!
//! A tick of scheduled actions resolves once, after the last of them, so
//! a `PackageSleep` record gives the package state after the tick's
//! actions: it follows the tick's `ThreadState` records, and a package
//! that falls asleep and wakes again within one tick records neither.

use crate::time::Ns;
use zen2_topology::{CoreId, SocketId, ThreadId};

/// One recorded machine event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A DVFS request was submitted for a core.
    FreqRequested {
        /// The affected core.
        core: CoreId,
        /// Requested frequency in MHz.
        target_mhz: u32,
    },
    /// A DVFS transition completed and the new frequency applies.
    FreqApplied {
        /// The affected core.
        core: CoreId,
        /// The now-active frequency in MHz.
        mhz: u32,
        /// Whether the §V-B fast path was used.
        fast_path: bool,
    },
    /// A thread changed scheduling state (C0/C1/C2/offline).
    ThreadState {
        /// The affected thread.
        thread: ThreadId,
        /// Human-readable state label.
        state: &'static str,
    },
    /// A package entered or left deep sleep (PC6).
    PackageSleep {
        /// The affected socket.
        socket: SocketId,
        /// `true` when entering PC6.
        asleep: bool,
    },
    /// The PPT controller moved a package's frequency cap.
    CapChanged {
        /// The affected socket.
        socket: SocketId,
        /// New cap in MHz.
        cap_mhz: u32,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Simulation time of the event.
    pub at_ns: Ns,
    /// The event.
    pub event: Event,
}

/// An event recorder with query helpers. Records are appended in time
/// order; [`clear`](Self::clear) drops them all, and a session case's
/// trace window takes its own out at close.
#[derive(Debug, Default, Clone)]
pub struct Tracer {
    enabled: bool,
    records: Vec<Record>,
}

impl Tracer {
    /// Creates a disabled tracer (zero overhead until enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables recording. Disabling keeps existing records.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event (no-op while disabled).
    pub fn record(&mut self, at_ns: Ns, event: Event) {
        if self.enabled {
            self.records.push(Record { at_ns, event });
        }
    }

    /// All records in chronological order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Clears the recording buffer.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Records within a time window.
    pub fn in_window(&self, from_ns: Ns, to_ns: Ns) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(move |r| r.at_ns >= from_ns && r.at_ns < to_ns)
    }

    /// The records within `[from_ns, to_ns)` that `keep` accepts, in
    /// order, handed over rather than copied: every record before `to_ns`
    /// leaves the tracer, and the records at or after it stay for later
    /// windows.
    pub(crate) fn take_window(
        &mut self,
        from_ns: Ns,
        to_ns: Ns,
        mut keep: impl FnMut(&Record) -> bool,
    ) -> Vec<Record> {
        let later = self.records.iter().filter(|r| r.at_ns >= to_ns).cloned().collect();
        let mut window = std::mem::replace(&mut self.records, later);
        window.retain(|r| r.at_ns >= from_ns && r.at_ns < to_ns && keep(r));
        window
    }

    /// Time spent asleep by a socket within `[from, to)`, assuming the
    /// socket was awake at `from` unless a sleep record says otherwise.
    pub fn asleep_ns(&self, socket: SocketId, from_ns: Ns, to_ns: Ns) -> Ns {
        let mut asleep_since: Option<Ns> = None;
        // Establish the state at the window start.
        for r in &self.records {
            if r.at_ns >= from_ns {
                break;
            }
            if let Event::PackageSleep { socket: s, asleep } = r.event {
                if s == socket {
                    asleep_since = if asleep { Some(from_ns) } else { None };
                }
            }
        }
        let mut total = 0;
        for r in self.in_window(from_ns, to_ns) {
            if let Event::PackageSleep { socket: s, asleep } = r.event {
                if s != socket {
                    continue;
                }
                match (asleep, asleep_since) {
                    (true, None) => asleep_since = Some(r.at_ns),
                    (false, Some(since)) => {
                        total += r.at_ns - since;
                        asleep_since = None;
                    }
                    _ => {}
                }
            }
        }
        if let Some(since) = asleep_since {
            total += to_ns - since;
        }
        total
    }

    /// Renders the trace as one line per record (lo2s-style text dump).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.records {
            let _ = writeln!(out, "{:>12} ns  {:?}", r.at_ns, r.event);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tracer {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.record(100, Event::FreqRequested { core: CoreId(0), target_mhz: 1500 });
        t.record(1_390_000, Event::FreqApplied { core: CoreId(0), mhz: 1500, fast_path: false });
        t.record(2_000_000, Event::PackageSleep { socket: SocketId(0), asleep: true });
        t.record(5_000_000, Event::PackageSleep { socket: SocketId(0), asleep: false });
        t.record(6_000_000, Event::FreqApplied { core: CoreId(1), mhz: 2200, fast_path: true });
        t
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.record(1, Event::CapChanged { socket: SocketId(0), cap_mhz: 2475 });
        assert!(t.records().is_empty());
        t.set_enabled(true);
        t.record(2, Event::CapChanged { socket: SocketId(0), cap_mhz: 2450 });
        assert_eq!(t.records().len(), 1);
    }

    #[test]
    fn asleep_accounting() {
        let t = sample();
        // Asleep from 2 ms to 5 ms within [0, 10 ms).
        assert_eq!(t.asleep_ns(SocketId(0), 0, 10_000_000), 3_000_000);
        // Window entirely inside the sleep interval.
        assert_eq!(t.asleep_ns(SocketId(0), 3_000_000, 4_000_000), 1_000_000);
        // Open-ended sleep extends to the window edge.
        let mut t2 = Tracer::new();
        t2.set_enabled(true);
        t2.record(1_000, Event::PackageSleep { socket: SocketId(1), asleep: true });
        assert_eq!(t2.asleep_ns(SocketId(1), 0, 10_000), 9_000);
    }

    #[test]
    fn window_queries_and_render() {
        let t = sample();
        assert_eq!(t.in_window(0, 2_000_000).count(), 2);
        let dump = t.render();
        assert!(dump.contains("FreqApplied"));
        assert!(dump.lines().count() == 5);
    }

    #[test]
    fn a_taken_window_leaves_the_records_from_its_end_on() {
        let mut t = sample();
        let keep = |r: &Record| !matches!(r.event, Event::PackageSleep { .. });
        let copied: Vec<Record> =
            t.in_window(1_000, 5_000_000).filter(|r| keep(r)).cloned().collect();
        let later: Vec<Record> = t.records()[3..].to_vec();
        assert_eq!(t.take_window(1_000, 5_000_000, keep), copied);
        assert_eq!(copied.len(), 1, "the one FreqApplied inside the window");
        assert_eq!(t.records(), later, "records from the window's end on stay");
        assert!(t.is_enabled());
    }

    #[test]
    fn clear_empties_the_buffer() {
        let mut t = sample();
        t.clear();
        assert!(t.records().is_empty());
        assert!(t.is_enabled());
    }
}
