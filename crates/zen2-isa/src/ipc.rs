//! SMT occupancy and throughput accounting helpers.

/// How many hardware threads of a core are executing a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SmtMode {
    /// One thread active, the sibling idle or offline.
    Single,
    /// Both SMT siblings active.
    Both,
}

impl SmtMode {
    /// Number of active threads.
    pub fn active_threads(self) -> usize {
        match self {
            SmtMode::Single => 1,
            SmtMode::Both => 2,
        }
    }

    /// Derives the mode from a count of active siblings.
    ///
    /// # Panics
    /// Panics if `active` is 0 or exceeds 2: a core with no active thread
    /// has no SMT mode, and Zen 2 has two hardware threads per core.
    pub fn from_active(active: usize) -> Self {
        match active {
            1 => SmtMode::Single,
            2 => SmtMode::Both,
            other => panic!("a Zen 2 core runs 1 or 2 threads, not {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smt_mode_round_trip() {
        assert_eq!(SmtMode::from_active(1), SmtMode::Single);
        assert_eq!(SmtMode::from_active(2), SmtMode::Both);
        assert_eq!(SmtMode::Single.active_threads(), 1);
        assert_eq!(SmtMode::Both.active_threads(), 2);
    }

    #[test]
    #[should_panic(expected = "1 or 2 threads")]
    fn zero_active_threads_is_a_bug() {
        let _ = SmtMode::from_active(0);
    }
}
