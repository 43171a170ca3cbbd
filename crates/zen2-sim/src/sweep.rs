//! Declarative parameter sweeps: a grid of axes lazily yielding
//! [`Case`]s, streamed through a [`Session`] worker pool and reduced
//! with the on-line aggregators in [`stats`](crate::stats).
//!
//! A [`Sweep`] describes a cross product without materializing it: each
//! [`Axis`] is a name plus a list of value labels, and one build
//! function turns a grid point's axis indices into its
//! `(config, scenario)`. Every case is built on demand from its index.
//! [`Sweep::stream`] then pushes each completed [`Run`] to a sink in
//! case order while the session holds at most `workers × shard_size`
//! cases in memory — a million-point grid reduces to bounded-size
//! summaries:
//!
//! ```
//! use zen2_sim::stats::OnlineStats;
//! use zen2_sim::{Axis, Probe, Scenario, Session, SimConfig, Sweep, Window};
//! use zen2_isa::{KernelClass, OperandWeight};
//! use zen2_topology::{CoreId, ThreadId};
//!
//! const FREQS_MHZ: [u32; 2] = [1500, 2200];
//! let sweep = Sweep::new("demo", |ix| {
//!     let mhz = FREQS_MHZ[ix[0]];
//!     let mut sc = Scenario::new();
//!     sc.at(0)
//!         .workload(ThreadId(0), KernelClass::BusyWait, OperandWeight::HALF)
//!         .pstate(ThreadId(0), mhz)
//!         .pstate(ThreadId(1), mhz);
//!     sc.probe("ghz", Probe::EffectiveGhz(CoreId(0)), Window::at_secs(0.03));
//!     (SimConfig::epyc_7502_2s(), sc)
//! })
//! .seed(42)
//! .axis(Axis::new("freq", FREQS_MHZ));
//! let mut ghz = OnlineStats::new();
//! let session = Session::new().workers(2).shard_size(4);
//! let n = sweep.stream(&session, |_, run| ghz.push(run.ghz("ghz"))).unwrap();
//! assert_eq!(n, 2);
//! assert!(ghz.min() < ghz.max());
//! ```

use crate::config::SimConfig;
use crate::obs::{AttrValue, EVT_SWEEP_TOTAL};
use crate::probe::Run;
use crate::scenario::Scenario;
use crate::session::{Case, Session, SessionError};
use std::fmt;
use std::sync::Arc;

/// SplitMix64-based child-seed derivation: the `index`-th child of a
/// root seed. Deterministic, decorrelated between adjacent indices, and
/// what [`Sweep::seed`] derives each case's seed with.
pub fn child_seed(root: u64, index: u64) -> u64 {
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut state = root ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
    let mut out = splitmix64(&mut state);
    // One extra round decorrelates adjacent indices thoroughly.
    out ^= splitmix64(&mut state);
    out
}

/// One dimension of a sweep grid: a name plus an ordered list of value
/// labels. The labels name the values in case labels,
/// [`GroupedStats`](crate::stats::GroupedStats) rows and checkpoint
/// fingerprints; what value `i` means is up to the sweep's build
/// function, which receives `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    name: String,
    labels: Vec<String>,
}

impl Axis {
    /// An axis with one value per label, in order (no labels: an empty
    /// axis, whose sweep yields no cases).
    pub fn new(name: impl Into<String>, labels: impl IntoIterator<Item = impl ToString>) -> Self {
        Self { name: name.into(), labels: labels.into_iter().map(|l| l.to_string()).collect() }
    }

    /// The axis name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of values on this axis.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the axis has no values (its sweep yields no cases).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// All value labels, in axis order.
    pub fn value_labels(&self) -> impl Iterator<Item = &str> {
        self.labels.iter().map(String::as_str)
    }
}

type Build = Arc<dyn Fn(&[usize]) -> (SimConfig, Scenario) + Send + Sync>;
type SeedFn = Arc<dyn Fn(u64) -> u64 + Send + Sync>;

/// A declarative parameter grid: a label, its axes, one function from
/// a grid point's axis indices to its `(config, scenario)`, and a seed
/// derivation from the case index. The cross product of all axes is
/// never materialized: [`cases`](Self::cases) yields each grid point on
/// demand, in row-major order (the first axis declared is the
/// outermost, the last varies fastest).
#[derive(Clone)]
pub struct Sweep {
    label: String,
    axes: Vec<Axis>,
    build: Build,
    seed_fn: SeedFn,
}

impl fmt::Debug for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sweep")
            .field("label", &self.label)
            .field("axes", &self.axes)
            .field("len", &self.len())
            .finish()
    }
}

impl Sweep {
    /// A sweep whose case at axis indices `ix` (one index per axis, in
    /// declaration order) runs `build(ix)`. It starts with no axes (one
    /// case, `build(&[])`) and case index as the seed.
    pub fn new(
        label: impl Into<String>,
        build: impl Fn(&[usize]) -> (SimConfig, Scenario) + Send + Sync + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            axes: Vec::new(),
            build: Arc::new(build),
            seed_fn: Arc::new(|index| index),
        }
    }

    /// Derives each case's seed as [`child_seed`]`(root, index)`.
    pub fn seed(self, root: u64) -> Self {
        self.seed_fn(move |index| child_seed(root, index))
    }

    /// Replaces the seed derivation entirely (`case index → seed`).
    pub fn seed_fn(mut self, f: impl Fn(u64) -> u64 + Send + Sync + 'static) -> Self {
        self.seed_fn = Arc::new(f);
        self
    }

    /// Appends a grid dimension.
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// The grid's axes, in declaration order (outermost first).
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// The sweep's label (the prefix of every case label).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Grid size: the product of the axis lengths (1 with no axes; 0 if
    /// any axis is empty).
    pub fn len(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// Whether the grid has no cases.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The per-axis value indices of case `index` (row-major decode) —
    /// what the build function receives, the key for bucketing streamed
    /// results per grid point, and what
    /// [`GroupedStats`](crate::stats::GroupedStats) uses to route a case
    /// to its group.
    ///
    /// # Panics
    /// Panics when `index` is outside the grid (`index >= self.len()`).
    pub fn axis_indices(&self, index: usize) -> Vec<usize> {
        assert!(index < self.len(), "case {index} out of range ({} cases)", self.len());
        let mut rest = index;
        let mut out = vec![0; self.axes.len()];
        for (slot, axis) in out.iter_mut().zip(&self.axes).rev() {
            *slot = rest % axis.len();
            rest /= axis.len();
        }
        out
    }

    /// Builds case `index` of the grid: labelled
    /// `<sweep>/<axis>=<value>/…`, built from its axis indices and
    /// seeded by the seed derivation.
    ///
    /// # Panics
    /// Panics when `index` is outside the grid (`index >= self.len()`),
    /// the same contract as [`axis_indices`](Self::axis_indices); use
    /// [`cases`](Self::cases) to iterate without index bookkeeping.
    pub fn case(&self, index: usize) -> Case {
        let indices = self.axis_indices(index);
        let mut label = self.label.clone();
        for (axis, &value) in self.axes.iter().zip(&indices) {
            label.push_str(&format!("/{}={}", axis.name, axis.labels[value]));
        }
        let (config, scenario) = (self.build)(&indices);
        Case::new(label, config, scenario, (self.seed_fn)(index as u64))
    }

    /// Lazily yields every case of the grid, in case-index order.
    pub fn cases(&self) -> impl Iterator<Item = Case> + '_ {
        (0..self.len()).map(|index| self.case(index))
    }

    /// Lazily yields exactly the cases `start..start + len` (clamped to
    /// the grid) — the shard and resume path. Because every case is a
    /// pure function of its index (seeds come from the sweep's seed
    /// derivation, labels and cases from the axis decode), a resumed
    /// run re-derives exactly the cases an interrupted run had left:
    /// same labels, same `child_seed`s, same scenarios. Both ends are
    /// bounded because the engine fetches a full `workers × shard_size`
    /// group at a time before it looks at what arrived, so a shard never
    /// derives — let alone executes — a case outside its slice, no
    /// matter the worker/shard-size split.
    ///
    /// ```
    /// use zen2_sim::{Axis, Scenario, SimConfig, Sweep};
    ///
    /// let sweep = Sweep::new("grid", |_| (SimConfig::epyc_7502_2s(), Scenario::new()))
    ///     .seed(7)
    ///     .axis(Axis::new("x", [0, 1, 2]))
    ///     .axis(Axis::new("y", [0, 1]));
    /// let slice: Vec<_> = sweep.take_range(2, 3).map(|c| (c.label, c.seed)).collect();
    /// let full: Vec<_> = sweep.cases().map(|c| (c.label, c.seed)).collect();
    /// assert_eq!(slice, full[2..5]);
    /// // Both ends clamp to the grid.
    /// assert_eq!(sweep.take_range(4, 99).count(), 2);
    /// assert_eq!(sweep.take_range(99, 1).count(), 0);
    /// ```
    pub fn take_range(&self, start: usize, len: usize) -> impl Iterator<Item = Case> + '_ {
        let start = start.min(self.len());
        let end = start.saturating_add(len).min(self.len());
        (start..end).map(|index| self.case(index))
    }

    /// Streams the whole grid through a session: each completed
    /// [`Run`] is handed to `sink` with its case index, in case order,
    /// while at most `workers × shard_size` cases are resident. Returns
    /// the number of runs delivered.
    pub fn stream(
        &self,
        session: &Session,
        sink: impl FnMut(usize, Run),
    ) -> Result<usize, SessionError> {
        // Announce the grid's extent: progress sinks need the total to
        // show percentages and ETA.
        session.obs().event(
            EVT_SWEEP_TOTAL,
            &[
                ("sweep", AttrValue::Str(self.label())),
                ("total", AttrValue::U64(self.len() as u64)),
                ("start", AttrValue::U64(0)),
            ],
        );
        session.run_streaming(self.cases(), sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Probe, Window};

    fn instant_sweep() -> Sweep {
        let mut base = Scenario::new();
        base.probe("ac", Probe::AcPowerW, Window::at(0));
        let config = SimConfig::epyc_7502_2s();
        Sweep::new("grid", move |_| (config.clone(), base.clone())).seed(7)
    }

    #[test]
    fn child_seed_is_deterministic_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| child_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| child_seed(42, i)).collect();
        assert_eq!(a, b);
        // zen2-lint: allow(no-unordered-iteration) — cardinality-only uniqueness check; never iterated
        let unique: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(unique.len(), 64);
        assert_ne!(child_seed(1, 0), child_seed(2, 0));
    }

    /// A probe-only scenario whose probe time encodes axis indices.
    fn encoded(ix: &[usize]) -> Scenario {
        let mut sc = Scenario::new();
        sc.probe("ac", Probe::AcPowerW, Window::at((ix[0] * 10 + ix[1]) as u64));
        sc
    }

    #[test]
    fn grid_is_row_major_with_first_axis_outermost() {
        let sweep = Sweep::new("grid", |ix| (SimConfig::epyc_7502_2s(), encoded(ix)))
            .axis(Axis::new("outer", [0, 1, 2]))
            .axis(Axis::new("inner", [0, 1]));
        assert_eq!(sweep.len(), 6);
        assert_eq!(sweep.axis_indices(0), [0, 0]);
        assert_eq!(sweep.axis_indices(1), [0, 1]);
        assert_eq!(sweep.axis_indices(2), [1, 0]);
        assert_eq!(sweep.axis_indices(5), [2, 1]);
        assert_eq!(sweep.case(3).label, "grid/outer=1/inner=1");
        // The build function sees each case's row-major decode.
        for i in 0..sweep.len() {
            assert_eq!(sweep.case(i).scenario, encoded(&sweep.axis_indices(i)), "case {i}");
        }
    }

    #[test]
    fn seeds_default_to_child_derivation() {
        let sweep = instant_sweep().axis(Axis::new("x", [0, 1, 2]));
        for i in 0..3 {
            assert_eq!(sweep.case(i).seed, child_seed(7, i as u64));
        }
    }

    #[test]
    fn value_label_is_none_out_of_range() {
        let axis = Axis::new("x", [1, 2]);
        assert_eq!(axis.value_labels().next(), Some("1"));
        assert_eq!(axis.value_labels().nth(1), Some("2"));
        assert_eq!(axis.value_labels().nth(2), None);
        assert_eq!(axis.value_labels().collect::<Vec<_>>(), ["1", "2"]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn case_panics_out_of_range_as_documented() {
        let sweep = instant_sweep().axis(Axis::new("x", [1, 2]));
        let _ = sweep.case(2);
    }

    #[test]
    fn empty_axis_empties_the_grid_and_no_axes_mean_one_case() {
        assert_eq!(instant_sweep().len(), 1);
        let empty = instant_sweep().axis(Axis::new("none", Vec::<&str>::new()));
        assert!(empty.is_empty());
        assert_eq!(empty.cases().count(), 0);
    }
}
