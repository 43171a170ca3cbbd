//! Machine-shape description and builder.

use crate::ids::{CcdId, CcxId, CoreId, QuadrantId, SmtSibling, SocketId, ThreadId};
use crate::numa::{NumaConfig, NumaMode};
use std::fmt;

/// Fixed Zen 2 structural constants (PPR Family 17h Model 31h).
pub mod consts {
    /// Cores per Core Complex.
    pub const CORES_PER_CCX: u32 = 4;
    /// Core Complexes per Core Complex Die.
    pub const CCX_PER_CCD: u32 = 2;
    /// Hardware threads per core with SMT enabled.
    pub const THREADS_PER_CORE: u32 = 2;
    /// Infinity Fabric switch quadrants on the server I/O die.
    pub const QUADRANTS_PER_SOCKET: u32 = 4;
    /// Maximum CCDs attachable to one I/O die.
    pub const MAX_CCDS_PER_SOCKET: u32 = 8;
    /// L3 capacity per CCX in bytes (16 MiB in four 4 MiB slices).
    pub const L3_BYTES_PER_CCX: u64 = 16 * 1024 * 1024;
    /// L2 capacity per core in bytes.
    pub const L2_BYTES_PER_CORE: u64 = 512 * 1024;
}

/// Errors produced while building a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The requested CCD count cannot attach to one I/O die.
    TooManyCcds {
        /// CCDs requested per socket.
        requested: u32,
    },
    /// At least one socket is required.
    NoSockets,
    /// At least one CCD per socket is required.
    NoCcds,
    /// CCD count must allow a symmetric quadrant assignment (1, 2, 4 or 8).
    AsymmetricCcds {
        /// CCDs requested per socket.
        requested: u32,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::TooManyCcds { requested } => write!(
                f,
                "{requested} CCDs per socket exceeds the I/O die maximum of {}",
                consts::MAX_CCDS_PER_SOCKET
            ),
            TopologyError::NoSockets => write!(f, "a system needs at least one socket"),
            TopologyError::NoCcds => write!(f, "a socket needs at least one CCD"),
            TopologyError::AsymmetricCcds { requested } => write!(
                f,
                "{requested} CCDs per socket cannot be distributed symmetrically over {} quadrants (use 1, 2, 4 or 8)",
                consts::QUADRANTS_PER_SOCKET
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Builder for [`Topology`].
///
/// ```
/// use zen2_topology::{Topology, TopologyBuilder, NumaMode};
///
/// let topo: Topology = TopologyBuilder::new()
///     .sockets(2)
///     .ccds_per_socket(4)
///     .smt(true)
///     .numa_mode(NumaMode::Nps4)
///     .build()
///     .unwrap();
/// assert_eq!(topo.num_threads(), 128);
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    sockets: u32,
    ccds_per_socket: u32,
    smt: bool,
    numa_mode: NumaMode,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// Starts from a single-socket, single-CCD, SMT-on configuration.
    pub fn new() -> Self {
        Self { sockets: 1, ccds_per_socket: 1, smt: true, numa_mode: NumaMode::Nps1 }
    }

    /// Sets the number of processor packages.
    pub fn sockets(mut self, sockets: u32) -> Self {
        self.sockets = sockets;
        self
    }

    /// Sets the number of Core Complex Dies attached to each I/O die.
    pub fn ccds_per_socket(mut self, ccds: u32) -> Self {
        self.ccds_per_socket = ccds;
        self
    }

    /// Enables or disables SMT (two hardware threads per core).
    pub fn smt(mut self, smt: bool) -> Self {
        self.smt = smt;
        self
    }

    /// Selects the NUMA-per-socket BIOS mode.
    pub fn numa_mode(mut self, mode: NumaMode) -> Self {
        self.numa_mode = mode;
        self
    }

    /// Validates the configuration and produces the topology.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.sockets == 0 {
            return Err(TopologyError::NoSockets);
        }
        if self.ccds_per_socket == 0 {
            return Err(TopologyError::NoCcds);
        }
        if self.ccds_per_socket > consts::MAX_CCDS_PER_SOCKET {
            return Err(TopologyError::TooManyCcds { requested: self.ccds_per_socket });
        }
        if !matches!(self.ccds_per_socket, 1 | 2 | 4 | 8) {
            return Err(TopologyError::AsymmetricCcds { requested: self.ccds_per_socket });
        }
        let numa = NumaConfig::derive(self.numa_mode, self.sockets);
        Ok(Topology {
            sockets: self.sockets,
            ccds_per_socket: self.ccds_per_socket,
            smt: self.smt,
            numa,
        })
    }
}

/// A concrete machine shape.
///
/// The topology owns the arithmetic mapping between hierarchy levels; all
/// identifiers are globally dense, so conversions are pure index math and
/// suitable for hot simulation loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    sockets: u32,
    ccds_per_socket: u32,
    smt: bool,
    numa: NumaConfig,
}

impl Topology {
    /// The paper's test system: two EPYC 7502 packages, 32 cores in 4 CCDs
    /// each, SMT enabled, "2-Channel Interleaving (per Quadrant)" = NPS4.
    pub fn epyc_7502_2s() -> Self {
        TopologyBuilder::new()
            .sockets(2)
            .ccds_per_socket(4)
            .smt(true)
            .numa_mode(NumaMode::Nps4)
            .build()
            .expect("preset is valid")
    }

    /// A single-socket EPYC 7502 for cheaper experiments.
    pub fn epyc_7502_1s() -> Self {
        TopologyBuilder::new()
            .sockets(1)
            .ccds_per_socket(4)
            .smt(true)
            .numa_mode(NumaMode::Nps4)
            .build()
            .expect("preset is valid")
    }

    /// A fully-populated 64-core Rome package (e.g. EPYC 7742), used by the
    /// paper's future-work discussion on higher compute-to-I/O ratios.
    pub fn epyc_7742_1s() -> Self {
        TopologyBuilder::new()
            .sockets(1)
            .ccds_per_socket(8)
            .smt(true)
            .numa_mode(NumaMode::Nps4)
            .build()
            .expect("preset is valid")
    }

    // ----- counts ---------------------------------------------------------

    /// Number of processor packages.
    pub fn num_sockets(&self) -> usize {
        self.sockets as usize
    }

    /// Number of CCDs in the whole system.
    pub fn num_ccds(&self) -> usize {
        (self.sockets * self.ccds_per_socket) as usize
    }

    /// Number of CCDs attached to each I/O die.
    pub fn ccds_per_socket(&self) -> usize {
        self.ccds_per_socket as usize
    }

    /// Number of CCXs in the whole system.
    pub fn num_ccxs(&self) -> usize {
        self.num_ccds() * consts::CCX_PER_CCD as usize
    }

    /// Number of CCXs per socket.
    pub fn ccxs_per_socket(&self) -> usize {
        (self.ccds_per_socket * consts::CCX_PER_CCD) as usize
    }

    /// Number of physical cores in the whole system.
    pub fn num_cores(&self) -> usize {
        self.num_ccxs() * consts::CORES_PER_CCX as usize
    }

    /// Number of physical cores per socket.
    pub fn cores_per_socket(&self) -> usize {
        self.ccxs_per_socket() * consts::CORES_PER_CCX as usize
    }

    /// Whether SMT is enabled.
    pub fn smt_enabled(&self) -> bool {
        self.smt
    }

    /// Hardware threads per core (2 with SMT, 1 without).
    pub fn threads_per_core(&self) -> usize {
        if self.smt {
            consts::THREADS_PER_CORE as usize
        } else {
            1
        }
    }

    /// Number of hardware threads in the whole system.
    pub fn num_threads(&self) -> usize {
        self.num_cores() * self.threads_per_core()
    }

    /// The NUMA configuration derived from the BIOS mode.
    pub fn numa(&self) -> &NumaConfig {
        &self.numa
    }

    // ----- thread-level mappings -----------------------------------------

    /// The core a hardware thread belongs to.
    #[inline]
    pub fn core_of(&self, thread: ThreadId) -> CoreId {
        CoreId((thread.0 as usize / self.threads_per_core()) as u32)
    }

    /// Which SMT sibling of its core a thread is.
    #[inline]
    pub fn sibling_of(&self, thread: ThreadId) -> SmtSibling {
        SmtSibling::from_index(thread.0 as usize % self.threads_per_core())
    }

    /// The other hardware thread on the same core, if SMT is enabled.
    #[inline]
    pub fn smt_sibling_thread(&self, thread: ThreadId) -> Option<ThreadId> {
        if !self.smt {
            return None;
        }
        Some(ThreadId(thread.0 ^ 1))
    }

    /// Both hardware threads of a core (the second is `None` without SMT).
    #[inline]
    pub fn threads_of_core(&self, core: CoreId) -> [Option<ThreadId>; 2] {
        let base = core.0 * self.threads_per_core() as u32;
        if self.smt {
            [Some(ThreadId(base)), Some(ThreadId(base + 1))]
        } else {
            [Some(ThreadId(base)), None]
        }
    }

    // ----- core-level mappings --------------------------------------------

    /// The CCX a core belongs to.
    #[inline]
    pub fn ccx_of_core(&self, core: CoreId) -> CcxId {
        CcxId(core.0 / consts::CORES_PER_CCX)
    }

    /// The CCD a core belongs to.
    #[inline]
    pub fn ccd_of_core(&self, core: CoreId) -> CcdId {
        self.ccd_of_ccx(self.ccx_of_core(core))
    }

    /// The socket a core belongs to.
    #[inline]
    pub fn socket_of_core(&self, core: CoreId) -> SocketId {
        SocketId(core.0 / self.cores_per_socket() as u32)
    }

    /// The socket a thread belongs to.
    #[inline]
    pub fn socket_of_thread(&self, thread: ThreadId) -> SocketId {
        self.socket_of_core(self.core_of(thread))
    }

    /// The four cores of a CCX.
    pub fn cores_of_ccx(&self, ccx: CcxId) -> impl Iterator<Item = CoreId> + '_ {
        let base = ccx.0 * consts::CORES_PER_CCX;
        (base..base + consts::CORES_PER_CCX).map(CoreId)
    }

    /// All cores of the system in id order.
    pub fn all_cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.num_cores() as u32).map(CoreId)
    }

    /// All hardware threads of the system in id order.
    pub fn all_threads(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (0..self.num_threads() as u32).map(ThreadId)
    }

    /// All CCXs of the system in id order.
    pub fn all_ccxs(&self) -> impl Iterator<Item = CcxId> + '_ {
        (0..self.num_ccxs() as u32).map(CcxId)
    }

    /// All sockets of the system in id order.
    pub fn all_sockets(&self) -> impl Iterator<Item = SocketId> + '_ {
        (0..self.sockets).map(SocketId)
    }

    // ----- CCX/CCD/socket mappings ----------------------------------------

    /// The CCD a CCX belongs to.
    #[inline]
    pub fn ccd_of_ccx(&self, ccx: CcxId) -> CcdId {
        CcdId(ccx.0 / consts::CCX_PER_CCD)
    }

    /// The socket a CCD belongs to.
    #[inline]
    pub fn socket_of_ccd(&self, ccd: CcdId) -> SocketId {
        SocketId(ccd.0 / self.ccds_per_socket)
    }

    /// The socket a CCX belongs to.
    #[inline]
    pub fn socket_of_ccx(&self, ccx: CcxId) -> SocketId {
        self.socket_of_ccd(self.ccd_of_ccx(ccx))
    }

    /// The two CCXs of a CCD.
    pub fn ccxs_of_ccd(&self, ccd: CcdId) -> [CcxId; 2] {
        [CcxId(ccd.0 * consts::CCX_PER_CCD), CcxId(ccd.0 * consts::CCX_PER_CCD + 1)]
    }

    /// The CCDs of a socket in id order.
    pub fn ccds_of_socket(&self, socket: SocketId) -> impl Iterator<Item = CcdId> + '_ {
        let base = socket.0 * self.ccds_per_socket;
        (base..base + self.ccds_per_socket).map(CcdId)
    }

    /// The I/O-die quadrant (Infinity Fabric switch) a CCD attaches to.
    ///
    /// With 8 CCDs two share each quadrant; with 4 (the EPYC 7502) each CCD
    /// has a quadrant of its own; with fewer, quadrants go unused.
    #[inline]
    pub fn quadrant_of_ccd(&self, ccd: CcdId) -> QuadrantId {
        let socket = self.socket_of_ccd(ccd);
        let local = ccd.0 - socket.0 * self.ccds_per_socket;
        let per_quadrant = self.ccds_per_socket.div_ceil(consts::QUADRANTS_PER_SOCKET).max(1);
        QuadrantId(socket.0 * consts::QUADRANTS_PER_SOCKET + local / per_quadrant)
    }

    /// Human-readable one-line summary (`2 sockets x 4 CCDs x 8 cores ...`).
    pub fn describe(&self) -> String {
        format!(
            "{} socket(s), {} CCD(s)/socket, {} CCX(s), {} cores, {} hardware threads, SMT {}, {}",
            self.num_sockets(),
            self.ccds_per_socket(),
            self.num_ccxs(),
            self.num_cores(),
            self.num_threads(),
            if self.smt { "on" } else { "off" },
            self.numa.mode()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epyc_7502_2s_matches_paper_system() {
        let t = Topology::epyc_7502_2s();
        assert_eq!(t.num_sockets(), 2);
        assert_eq!(t.num_ccds(), 8);
        assert_eq!(t.num_ccxs(), 16);
        assert_eq!(t.num_cores(), 64);
        assert_eq!(t.num_threads(), 128);
        assert_eq!(t.cores_per_socket(), 32);
        assert!(t.smt_enabled());
    }

    #[test]
    fn epyc_7742_has_64_cores_per_socket() {
        let t = Topology::epyc_7742_1s();
        assert_eq!(t.num_cores(), 64);
        assert_eq!(t.num_threads(), 128);
        assert_eq!(t.num_sockets(), 1);
    }

    #[test]
    fn thread_core_mapping_with_smt() {
        let t = Topology::epyc_7502_2s();
        assert_eq!(t.core_of(ThreadId(0)), CoreId(0));
        assert_eq!(t.core_of(ThreadId(1)), CoreId(0));
        assert_eq!(t.core_of(ThreadId(2)), CoreId(1));
        assert_eq!(t.sibling_of(ThreadId(0)), SmtSibling::Primary);
        assert_eq!(t.sibling_of(ThreadId(1)), SmtSibling::Secondary);
        assert_eq!(t.smt_sibling_thread(ThreadId(4)), Some(ThreadId(5)));
        assert_eq!(t.smt_sibling_thread(ThreadId(5)), Some(ThreadId(4)));
    }

    #[test]
    fn thread_core_mapping_without_smt() {
        let t = TopologyBuilder::new().sockets(1).ccds_per_socket(4).smt(false).build().unwrap();
        assert_eq!(t.num_threads(), 32);
        assert_eq!(t.core_of(ThreadId(7)), CoreId(7));
        assert_eq!(t.smt_sibling_thread(ThreadId(7)), None);
        assert_eq!(t.threads_of_core(CoreId(3)), [Some(ThreadId(3)), None]);
    }

    #[test]
    fn ccx_of_core_groups_by_four() {
        let t = Topology::epyc_7502_2s();
        assert_eq!(t.ccx_of_core(CoreId(0)), CcxId(0));
        assert_eq!(t.ccx_of_core(CoreId(3)), CcxId(0));
        assert_eq!(t.ccx_of_core(CoreId(4)), CcxId(1));
        assert_eq!(t.ccx_of_core(CoreId(63)), CcxId(15));
        let cores: Vec<_> = t.cores_of_ccx(CcxId(2)).collect();
        assert_eq!(cores, vec![CoreId(8), CoreId(9), CoreId(10), CoreId(11)]);
    }

    #[test]
    fn socket_boundaries() {
        let t = Topology::epyc_7502_2s();
        assert_eq!(t.socket_of_core(CoreId(31)), SocketId(0));
        assert_eq!(t.socket_of_core(CoreId(32)), SocketId(1));
        assert_eq!(t.socket_of_thread(ThreadId(63)), SocketId(0));
        assert_eq!(t.socket_of_thread(ThreadId(64)), SocketId(1));
        assert_eq!(t.socket_of_ccx(CcxId(7)), SocketId(0));
        assert_eq!(t.socket_of_ccx(CcxId(8)), SocketId(1));
    }

    #[test]
    fn quadrant_assignment_7502() {
        // 4 CCDs per socket: one per quadrant.
        let t = Topology::epyc_7502_2s();
        assert_eq!(t.quadrant_of_ccd(CcdId(0)), QuadrantId(0));
        assert_eq!(t.quadrant_of_ccd(CcdId(3)), QuadrantId(3));
        assert_eq!(t.quadrant_of_ccd(CcdId(4)), QuadrantId(4)); // socket 1
        assert_eq!(t.quadrant_of_ccd(CcdId(7)), QuadrantId(7));
    }

    #[test]
    fn quadrant_assignment_7742_pairs_ccds() {
        // 8 CCDs per socket: two share each quadrant (paper Section III-A).
        let t = Topology::epyc_7742_1s();
        assert_eq!(t.quadrant_of_ccd(CcdId(0)), QuadrantId(0));
        assert_eq!(t.quadrant_of_ccd(CcdId(1)), QuadrantId(0));
        assert_eq!(t.quadrant_of_ccd(CcdId(2)), QuadrantId(1));
        assert_eq!(t.quadrant_of_ccd(CcdId(7)), QuadrantId(3));
    }

    #[test]
    fn builder_rejects_invalid_shapes() {
        assert_eq!(
            TopologyBuilder::new().sockets(0).build().unwrap_err(),
            TopologyError::NoSockets
        );
        assert_eq!(
            TopologyBuilder::new().ccds_per_socket(0).build().unwrap_err(),
            TopologyError::NoCcds
        );
        assert_eq!(
            TopologyBuilder::new().ccds_per_socket(9).build().unwrap_err(),
            TopologyError::TooManyCcds { requested: 9 }
        );
        assert_eq!(
            TopologyBuilder::new().ccds_per_socket(3).build().unwrap_err(),
            TopologyError::AsymmetricCcds { requested: 3 }
        );
    }

    #[test]
    fn describe_mentions_key_counts() {
        let d = Topology::epyc_7502_2s().describe();
        assert!(d.contains("64 cores"));
        assert!(d.contains("128 hardware threads"));
    }
}
