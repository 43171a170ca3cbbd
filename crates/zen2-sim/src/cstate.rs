//! Idle-state machinery (Section VI).
//!
//! Three C-states exist on the test system (OS numbering): C0 (active),
//! C1 (entered via `monitor`/`mwait`, clock-gates the core) and C2
//! (entered via an I/O-port read, power-gates the core). Deep *package*
//! sleep (PC6) has a single, global criterion on the paper's system: every
//! hardware thread of every package must sit in the deepest state. One
//! thread in C1 — or an *offlined* thread parked in C1 by the kernel's
//! play-dead path (the Section VI-B anomaly) — keeps both packages out of
//! PC6 and costs +81 W at the wall.

/// Scheduling state of one hardware thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Executing instructions.
    Active,
    /// Idle in C1 (clock gated; APERF/MPERF/cycle counters halt).
    C1,
    /// Idle in C2 (power gated).
    C2,
    /// Offlined through sysfs. Whether this blocks package sleep depends
    /// on [`crate::config::OsParams::offline_parks_in_c1`].
    Offline,
}

impl ThreadState {
    /// Whether this thread state permits deep package sleep, given the
    /// offline-parking behavior of the kernel.
    pub fn allows_package_c6(self, offline_parks_in_c1: bool) -> bool {
        match self {
            ThreadState::Active | ThreadState::C1 => false,
            ThreadState::C2 => true,
            ThreadState::Offline => !offline_parks_in_c1,
        }
    }

    /// Whether the thread is consuming its core's execution resources.
    pub fn is_active(self) -> bool {
        matches!(self, ThreadState::Active)
    }
}

/// Power-relevant classification of one *core* from its two thread states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreIdleClass {
    /// At least one thread executes.
    Active {
        /// Number of threads in C0 on this core (1 or 2).
        active_threads: usize,
    },
    /// No thread executes; the shallowest idle thread is in C1 (or parked
    /// offline in C1): the core is clock-gated but not power-gated.
    ClockGated,
    /// Every thread is in C2 (or cleanly offline): the core is power-gated.
    PowerGated,
}

/// Classifies a core from its thread states.
pub fn classify_core(threads: &[ThreadState], offline_parks_in_c1: bool) -> CoreIdleClass {
    assert!(!threads.is_empty() && threads.len() <= 2, "Zen 2 cores have 1 or 2 threads");
    let active = threads.iter().filter(|t| t.is_active()).count();
    if active > 0 {
        return CoreIdleClass::Active { active_threads: active };
    }
    let any_c1 = threads.iter().any(|t| match t {
        ThreadState::C1 => true,
        ThreadState::Offline => offline_parks_in_c1,
        _ => false,
    });
    if any_c1 {
        CoreIdleClass::ClockGated
    } else {
        CoreIdleClass::PowerGated
    }
}

/// Whether the whole system may enter deep package sleep. With
/// `global_criterion` (the paper's observed behavior) every thread of
/// every package must allow it; the ablation checks only one package's own
/// threads.
pub fn package_c6_allowed(
    all_threads: &[ThreadState],
    package_threads: &[ThreadState],
    offline_parks_in_c1: bool,
    global_criterion: bool,
) -> bool {
    let pool = if global_criterion { all_threads } else { package_threads };
    pool.iter().all(|t| t.allows_package_c6(offline_parks_in_c1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ThreadState::*;

    #[test]
    fn c2_everywhere_allows_package_sleep() {
        let all = vec![C2; 128];
        assert!(package_c6_allowed(&all, &all[..64], true, true));
    }

    #[test]
    fn single_c1_thread_blocks_both_packages() {
        // The Fig. 7 step: one thread in C1 costs +81 W because PC6 is
        // lost globally.
        let mut all = vec![C2; 128];
        all[5] = C1;
        assert!(!package_c6_allowed(&all, &all[..64], true, true));
        // Even threads of the *other* package block it under the global
        // criterion...
        let mut all = vec![C2; 128];
        all[100] = C1;
        assert!(!package_c6_allowed(&all, &all[..64], true, true));
        // ...but not under the per-package ablation.
        assert!(package_c6_allowed(&all, &all[..64], true, false));
    }

    #[test]
    fn active_thread_blocks_package_sleep() {
        let mut all = vec![C2; 128];
        all[0] = Active;
        assert!(!package_c6_allowed(&all, &all[..64], true, true));
    }

    #[test]
    fn offline_parking_blocks_package_sleep() {
        // Section VI-B: "even though C2 states are active and used by the
        // active hardware threads, system power consumption is increased
        // to the C1 level as long as the disabled hardware threads are
        // offline".
        let mut all = vec![C2; 128];
        all[64] = Offline;
        assert!(!package_c6_allowed(&all, &all[..64], true, true));
        // With a kernel that parks offline threads cleanly, they would not
        // block (the paper could not observe such a kernel; ablation).
        assert!(package_c6_allowed(&all, &all[..64], false, true));
    }

    #[test]
    fn core_classification() {
        assert_eq!(classify_core(&[Active, C2], true), CoreIdleClass::Active { active_threads: 1 });
        assert_eq!(
            classify_core(&[Active, Active], true),
            CoreIdleClass::Active { active_threads: 2 }
        );
        assert_eq!(classify_core(&[C1, C2], true), CoreIdleClass::ClockGated);
        assert_eq!(classify_core(&[C2, C2], true), CoreIdleClass::PowerGated);
        // The anomaly: an offline sibling holds the core at C1 level.
        assert_eq!(classify_core(&[C2, Offline], true), CoreIdleClass::ClockGated);
        assert_eq!(classify_core(&[C2, Offline], false), CoreIdleClass::PowerGated);
    }

    #[test]
    fn single_thread_cores_classify() {
        assert_eq!(classify_core(&[C1], true), CoreIdleClass::ClockGated);
        assert_eq!(classify_core(&[C2], true), CoreIdleClass::PowerGated);
    }

    #[test]
    #[should_panic(expected = "1 or 2 threads")]
    fn oversized_core_is_a_bug() {
        let _ = classify_core(&[C1, C1, C1], true);
    }
}
