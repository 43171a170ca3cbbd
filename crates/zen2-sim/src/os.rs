//! OS-side control interfaces (the sysfs knobs the paper drives).
//!
//! "We use the Linux cpufreq governor 'userspace' to control processor
//! frequencies. By default, we enabled all available C-states. We use
//! sysfs files to control C-states and hardware threads."

use crate::cstate::ThreadState;

/// Per-CPU cpuidle configuration: which idle states the governor may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleConfig {
    /// `state1` (C1) enabled.
    pub c1_enabled: bool,
    /// `state2` (C2) enabled.
    pub c2_enabled: bool,
}

impl Default for IdleConfig {
    fn default() -> Self {
        Self { c1_enabled: true, c2_enabled: true }
    }
}

impl IdleConfig {
    /// The state an idle thread settles in under this configuration.
    /// With every idle state disabled, the OS falls back to the POLL loop
    /// — which is *active* from the hardware's point of view.
    pub fn deepest_idle_state(&self) -> ThreadState {
        if self.c2_enabled {
            ThreadState::C2
        } else if self.c1_enabled {
            ThreadState::C1
        } else {
            ThreadState::Active
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deepest_state_selection() {
        let both = IdleConfig::default();
        assert_eq!(both.deepest_idle_state(), ThreadState::C2);
        let c1_only = IdleConfig { c1_enabled: true, c2_enabled: false };
        assert_eq!(c1_only.deepest_idle_state(), ThreadState::C1);
        let none = IdleConfig { c1_enabled: false, c2_enabled: false };
        assert_eq!(none.deepest_idle_state(), ThreadState::Active, "POLL fallback");
    }
}
