//! Strongly-typed identifiers for the Zen 2 hierarchy.
//!
//! All identifiers are *global* within a [`crate::Topology`] (e.g. a
//! [`CoreId`] is unique across sockets, not per-CCX). Conversions between
//! levels are provided by the topology, which knows the machine shape; the
//! identifiers themselves are plain indices so they can be used directly as
//! `Vec` subscripts in hot simulation paths.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index for container subscripting.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds the identifier from a raw container index.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(index as u32)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// A processor package (socket). The paper's system has two.
    SocketId,
    "socket"
);
id_type!(
    /// A Core Complex Die: one chiplet with two CCXs. The EPYC 7502 has
    /// four CCDs per socket.
    CcdId,
    "ccd"
);
id_type!(
    /// A Core Complex: four cores sharing a 16 MiB L3 cache and, crucially
    /// for the paper's Section V-C, one clock mesh whose frequency follows
    /// the fastest core in the complex.
    CcxId,
    "ccx"
);
id_type!(
    /// A physical core (front-end, two 256-bit FMA pipes, 512 KiB L2).
    CoreId,
    "core"
);
id_type!(
    /// A hardware thread (SMT sibling). Two per core on Zen 2.
    ThreadId,
    "thread"
);
id_type!(
    /// A unified memory controller on the I/O die; each UMC drives one DDR4
    /// channel. Rome has eight per socket.
    UmcId,
    "umc"
);
id_type!(
    /// An Infinity Fabric switch quadrant on the I/O die. Each quadrant
    /// connects up to two CCDs and two UMCs (Fig. 2b of the paper).
    QuadrantId,
    "quadrant"
);
id_type!(
    /// A NUMA node as exposed to the operating system. The count depends on
    /// the configured [`crate::NumaMode`].
    NumaNodeId,
    "node"
);

/// A Linux-style logical CPU number (`/sys/devices/system/cpu/cpuN`).
///
/// Logical CPU numbers depend on the enumeration policy, not the silicon;
/// [`crate::CpuNumbering`] maps between [`ThreadId`] and `LogicalCpu`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogicalCpu(pub u32);

impl LogicalCpu {
    /// Returns the raw index for container subscripting.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds the identifier from a raw container index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }
}

impl fmt::Display for LogicalCpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Which SMT sibling of a core a thread is (0 = first, 1 = second).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SmtSibling {
    /// The first hardware thread of the core.
    Primary,
    /// The second hardware thread of the core.
    Secondary,
}

impl SmtSibling {
    /// Numeric index of the sibling within its core.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            SmtSibling::Primary => 0,
            SmtSibling::Secondary => 1,
        }
    }

    /// Builds the sibling designation from an index (`0` or `1`).
    ///
    /// # Panics
    /// Panics if `index > 1`; Zen 2 cores have exactly two hardware threads.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        match index {
            0 => SmtSibling::Primary,
            1 => SmtSibling::Secondary,
            other => panic!("Zen 2 cores have 2 SMT threads, sibling index {other} is invalid"),
        }
    }
}

pub use self::QuadrantId as IfSwitchId;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_hierarchy_prefix() {
        assert_eq!(SocketId(1).to_string(), "socket1");
        assert_eq!(CcdId(3).to_string(), "ccd3");
        assert_eq!(CcxId(7).to_string(), "ccx7");
        assert_eq!(CoreId(31).to_string(), "core31");
        assert_eq!(ThreadId(63).to_string(), "thread63");
        assert_eq!(LogicalCpu(127).to_string(), "cpu127");
        assert_eq!(UmcId(5).to_string(), "umc5");
    }

    #[test]
    fn index_round_trips() {
        for i in [0usize, 1, 63, 127] {
            assert_eq!(ThreadId::from_index(i).index(), i);
            assert_eq!(CoreId::from_index(i).index(), i);
            assert_eq!(LogicalCpu::from_index(i).index(), i);
        }
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(CoreId(2) < CoreId(10));
        assert!(ThreadId(0) < ThreadId(1));
    }

    #[test]
    fn smt_sibling_round_trips() {
        assert_eq!(SmtSibling::from_index(0), SmtSibling::Primary);
        assert_eq!(SmtSibling::from_index(1), SmtSibling::Secondary);
        assert_eq!(SmtSibling::Primary.index(), 0);
        assert_eq!(SmtSibling::Secondary.index(), 1);
    }

    #[test]
    #[should_panic(expected = "2 SMT threads")]
    fn smt_sibling_rejects_out_of_range() {
        let _ = SmtSibling::from_index(2);
    }
}
