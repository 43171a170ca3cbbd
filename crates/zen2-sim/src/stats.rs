//! On-line statistics for streaming sweeps: bounded-size aggregators
//! that reduce arbitrarily many [`Run`](crate::Run)s to summaries.
//!
//! A million-case sweep cannot keep its runs around; these aggregators
//! consume one observation (or one run's trace records) at a time and
//! hold O(1) state:
//!
//! * [`Welford`] — numerically stable mean/standard deviation plus
//!   min/max, via Welford's on-line algorithm.
//! * [`P2Quantile`] — a streaming quantile estimate (Jain & Chlamtac's
//!   P² algorithm, five markers, exact until the sixth observation).
//! * [`OnlineStats`] — the bundle the sweep engine hands out: Welford
//!   plus p50/p95 estimators behind one `push`.
//! * [`FreqResidency`] — time-at-frequency histogram reduced from
//!   [`Probe::TraceEvents`](crate::Probe::TraceEvents) records.
//! * [`TransitionStats`] — DVFS transition counts and request→apply
//!   latency statistics from the same records.
//! * [`GroupedStats`] — any of the above (or any `Default` accumulator),
//!   bucketed by one or more [`Sweep`] axes, so a sink folds a wide grid
//!   into per-frequency / per-config rows.
//!
//! Every aggregator is deterministic in its input order. The streaming
//! session delivers runs in case order regardless of worker count or
//! shard size, so feeding these from a
//! [`Session::run_streaming`](crate::Session::run_streaming) sink gives
//! bit-identical summaries for any parallelism.
//!
//! Every aggregator except [`GroupedStats`] also implements
//! [`Snapshot`]: its exact state dumps to a JSON tree and restores
//! bit-for-bit, so it can be a
//! [`Checkpoint`](crate::checkpoint::Checkpoint) cell that resumes with
//! byte-identical output.

use crate::snapshot::{Json, Snapshot, SnapshotError};
use crate::sweep::Sweep;
use crate::time::Ns;
use crate::trace::{Event, Record};
use std::collections::BTreeMap;

/// Welford's on-line mean and variance, with min/max tracking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one observation.
    pub fn push(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Observations consumed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean.
    ///
    /// # Panics
    /// Panics on an empty accumulator.
    pub fn mean(&self) -> f64 {
        assert!(self.count > 0, "mean of an empty accumulator");
        self.mean
    }

    /// Sample standard deviation (n−1 denominator).
    ///
    /// # Panics
    /// Panics with fewer than two observations.
    pub fn std_dev(&self) -> f64 {
        assert!(self.count >= 2, "standard deviation needs at least two observations");
        (self.m2 / (self.count - 1) as f64).sqrt()
    }

    /// Smallest observation.
    ///
    /// # Panics
    /// Panics on an empty accumulator.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "min of an empty accumulator");
        self.min
    }

    /// Largest observation.
    ///
    /// # Panics
    /// Panics on an empty accumulator.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "max of an empty accumulator");
        self.max
    }
}

/// A streaming quantile estimator: the P² algorithm (Jain & Chlamtac,
/// CACM 1985). Five markers, O(1) state, exact for the first five
/// observations and a parabolic-interpolation estimate afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights.
    q: [f64; 5],
    /// Marker positions (1-based observation ranks).
    n: [i64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired-position increments per observation.
    dn: [f64; 5],
    /// Initial buffer until five observations have arrived.
    initial: Vec<f64>,
    count: u64,
}

impl P2Quantile {
    /// An estimator for the `p`-quantile, `0 < p < 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1)");
        Self {
            p,
            q: [0.0; 5],
            n: [1, 2, 3, 4, 5],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            initial: Vec::with_capacity(5),
            count: 0,
        }
    }

    /// Consumes one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            self.initial.push(x);
            if self.count == 5 {
                self.initial.sort_by(f64::total_cmp);
                for (slot, &v) in self.q.iter_mut().zip(&self.initial) {
                    *slot = v;
                }
            }
            return;
        }

        // Locate the cell, extending the extreme markers if needed.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            (0..4).find(|&i| self.q[i] <= x && x < self.q[i + 1]).expect("x within marker span")
        };

        for i in (k + 1)..5 {
            self.n[i] += 1;
        }
        for (np, dn) in self.np.iter_mut().zip(&self.dn) {
            *np += dn;
        }

        // Nudge the three middle markers toward their desired positions.
        for i in 1..4 {
            let d = self.np[i] - self.n[i] as f64;
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1)
            {
                let d = d.signum() as i64;
                let parabolic = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < parabolic && parabolic < self.q[i + 1] {
                    parabolic
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: i64) -> f64 {
        let (q, n) = (&self.q, &self.n);
        let d = d as f64;
        let above = ((n[i] - n[i - 1]) as f64 + d) * (q[i + 1] - q[i]) / ((n[i + 1] - n[i]) as f64);
        let below = ((n[i + 1] - n[i]) as f64 - d) * (q[i] - q[i - 1]) / ((n[i] - n[i - 1]) as f64);
        q[i] + d / ((n[i + 1] - n[i - 1]) as f64) * (above + below)
    }

    fn linear(&self, i: usize, d: i64) -> f64 {
        let j = (i as i64 + d) as usize;
        self.q[i] + d as f64 * (self.q[j] - self.q[i]) / ((self.n[j] - self.n[i]) as f64)
    }

    /// Observations consumed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The current quantile estimate (exact for ≤ 5 observations).
    ///
    /// # Panics
    /// Panics on an empty estimator.
    pub fn estimate(&self) -> f64 {
        assert!(self.count > 0, "quantile of an empty estimator");
        if self.count <= 5 {
            // Exact: linear interpolation on the sorted buffer.
            let mut sorted = self.initial.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = self.p * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
        }
        self.q[2]
    }
}

/// One observable's complete streaming summary: count, mean, standard
/// deviation, min/max, and p50/p95 estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStats {
    welford: Welford,
    p50: P2Quantile,
    p95: P2Quantile,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// An empty summary.
    pub fn new() -> Self {
        Self { welford: Welford::new(), p50: P2Quantile::new(0.5), p95: P2Quantile::new(0.95) }
    }

    /// Consumes one observation.
    pub fn push(&mut self, x: f64) {
        self.welford.push(x);
        self.p50.push(x);
        self.p95.push(x);
    }

    /// Observations consumed so far.
    pub fn count(&self) -> u64 {
        self.welford.count()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.welford.mean()
    }

    /// Sample standard deviation (n−1 denominator).
    pub fn std_dev(&self) -> f64 {
        self.welford.std_dev()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.welford.min()
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.welford.max()
    }

    /// Streaming median estimate.
    pub fn p50(&self) -> f64 {
        self.p50.estimate()
    }

    /// Streaming 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.p95.estimate()
    }
}

/// A frequency-residency histogram: how long a core spent at each
/// applied frequency, reduced from
/// [`Probe::TraceEvents`](crate::Probe::TraceEvents) records (pair it
/// with [`EventFilter::Freq`](crate::EventFilter::Freq) so the records
/// describe one core). Time before the first `FreqApplied` record in a
/// window has no known frequency and lands in
/// [`unknown_ns`](Self::unknown_ns); calling
/// [`observe`](Self::observe) repeatedly accumulates across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FreqResidency {
    by_mhz: BTreeMap<u32, Ns>,
    unknown_ns: Ns,
}

impl FreqResidency {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one run's records over the machine-absolute window
    /// `[from_ns, to_ns)`. Records outside the window still establish
    /// the frequency that is current when the window opens.
    pub fn observe(&mut self, records: &[Record], from_ns: Ns, to_ns: Ns) {
        assert!(from_ns <= to_ns, "residency window runs backwards");
        let mut current: Option<u32> = None;
        let mut cursor = from_ns;
        for record in records {
            let Event::FreqApplied { mhz, .. } = record.event else { continue };
            if record.at_ns <= from_ns {
                current = Some(mhz);
                continue;
            }
            let end = record.at_ns.min(to_ns);
            if end > cursor {
                self.credit(current, end - cursor);
                cursor = end;
            }
            if record.at_ns >= to_ns {
                current = Some(mhz);
                break;
            }
            current = Some(mhz);
        }
        if to_ns > cursor {
            self.credit(current, to_ns - cursor);
        }
    }

    fn credit(&mut self, mhz: Option<u32>, ns: Ns) {
        match mhz {
            Some(mhz) => *self.by_mhz.entry(mhz).or_insert(0) += ns,
            None => self.unknown_ns += ns,
        }
    }

    /// Residency per applied frequency, ns, ascending by MHz.
    pub fn residency(&self) -> &BTreeMap<u32, Ns> {
        &self.by_mhz
    }

    /// Time with no applied frequency on record yet, ns.
    pub fn unknown_ns(&self) -> Ns {
        self.unknown_ns
    }

    /// Total accumulated window time, ns (known + unknown).
    pub fn total_ns(&self) -> Ns {
        self.by_mhz.values().sum::<Ns>() + self.unknown_ns
    }

    /// Fraction of the *known* time spent at `mhz` (0 when nothing is
    /// known yet).
    pub fn share(&self, mhz: u32) -> f64 {
        let known = self.total_ns() - self.unknown_ns;
        if known == 0 {
            return 0.0;
        }
        self.by_mhz.get(&mhz).copied().unwrap_or(0) as f64 / known as f64
    }
}

/// DVFS transition statistics reduced from
/// [`Probe::TraceEvents`](crate::Probe::TraceEvents) records: completed
/// request→apply transitions, fast-path count, and streaming latency
/// statistics (ns).
///
/// Pairing generalizes the Fig. 3 recovery: per core, requests queue in
/// order (a repeated request for an already-queued target does not
/// restart its clock — the SMU coalesces it), and an apply matches the
/// earliest queued request for its target, retiring every older request
/// with it. Requests that overlap an in-flight transition (the SMU
/// queues them) therefore still pair with their own later application.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransitionStats {
    completed: u64,
    fast_path: u64,
    latency_ns: OnlineStats,
}

impl TransitionStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one run's records. Requests left pending when the
    /// record stream ends are dropped (the run ended mid-transition).
    pub fn observe(&mut self, records: &[Record]) {
        // Per-core queue of pending requests: (time, target MHz).
        let mut pending: BTreeMap<u32, Vec<(Ns, u32)>> = BTreeMap::new();
        for record in records {
            match record.event {
                Event::FreqRequested { core, target_mhz } => {
                    let queue = pending.entry(core.0).or_default();
                    if queue.iter().all(|&(_, mhz)| mhz != target_mhz) {
                        queue.push((record.at_ns, target_mhz));
                    }
                }
                Event::FreqApplied { core, mhz, fast_path } => {
                    let Some(queue) = pending.get_mut(&core.0) else { continue };
                    // An apply with no matching request (e.g. a settle
                    // transition recorded before the window) pairs with
                    // nothing and leaves the queue untouched.
                    let Some(at) = queue.iter().position(|&(_, target)| target == mhz) else {
                        continue;
                    };
                    let (requested_at, _) = queue[at];
                    queue.drain(..=at);
                    self.completed += 1;
                    if fast_path {
                        self.fast_path += 1;
                    }
                    self.latency_ns.push((record.at_ns - requested_at) as f64);
                }
                _ => {}
            }
        }
    }

    /// Completed request→apply transitions.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Transitions that took a §V-B fast path.
    pub fn fast_path(&self) -> u64 {
        self.fast_path
    }

    /// Streaming latency statistics over completed transitions, ns.
    pub fn latency_ns(&self) -> &OnlineStats {
        &self.latency_ns
    }
}

/// A streaming reducer bucketed by [`Sweep`] axes: one accumulator per
/// combination of the chosen axes' values, so a sink folds a wide grid
/// into per-frequency / per-config rows without ever materializing its
/// runs.
///
/// Construction captures only the grid's *shape* (axis lengths and value
/// labels) from the sweep — no closures, no cases — and
/// [`entry`](Self::entry) routes a streamed case index to its group by
/// the same row-major decode as [`Sweep::axis_indices`]. The accumulator
/// is any `Default` type: one of this module's aggregators, or an
/// experiment-specific struct bundling several of them.
///
/// Rows come back in grid order (the first grouping axis outermost),
/// independent of the order groups were first touched. Because
/// [`Session::run_streaming`](crate::Session::run_streaming) delivers
/// runs in case order for any worker count or shard size, every group's
/// accumulator sees its observations in case order too — grouped
/// summaries are bit-identical for any worker/shard split.
///
/// ```
/// use zen2_sim::stats::{GroupedStats, OnlineStats};
/// use zen2_sim::{Axis, Probe, Scenario, Session, SimConfig, Sweep, Window};
/// use zen2_isa::{KernelClass, OperandWeight};
/// use zen2_topology::ThreadId;
///
/// // 2 load levels × 3 seeds; group the 6 cases by load level.
/// const LOADS: [u32; 2] = [1, 8];
/// let sweep = Sweep::new("demo", |ix| {
///     let mut sc = Scenario::new();
///     sc.probe("ac", Probe::AcPowerW, Window::at(20_000)); // 20 µs: load has landed
///     let mut at = sc.at(0);
///     for t in 0..LOADS[ix[0]] {
///         at = at.workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
///     }
///     (SimConfig::epyc_7502_2s(), sc)
/// })
/// .seed(7)
/// .axis(Axis::new("busy_threads", LOADS))
/// .axis(Axis::new("rep", 0..3));
///
/// let mut by_load: GroupedStats<OnlineStats> = GroupedStats::new(&sweep, &["busy_threads"]);
/// let session = Session::new().workers(2).shard_size(2);
/// sweep.stream(&session, |i, run| by_load.entry(i).push(run.watts("ac"))).unwrap();
///
/// assert_eq!(by_load.len(), 2);
/// let rows: Vec<_> = by_load.rows().collect();
/// assert_eq!(rows[0].0, ["1"]);
/// assert_eq!(rows[1].0, ["8"]);
/// assert_eq!(rows[0].1.count(), 3);
/// assert!(rows[0].1.mean() < rows[1].1.mean());
/// assert_eq!(by_load.get(&["8"]).unwrap().count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedStats<A> {
    /// Per grouping axis: its name and value labels, in grouping order.
    axes: Vec<(String, Vec<String>)>,
    /// Position of each grouping axis among the sweep's axes.
    positions: Vec<usize>,
    /// Every sweep axis length, for the row-major case-index decode.
    lens: Vec<usize>,
    /// Accumulators keyed by grouping-axis value indices (grid order).
    groups: BTreeMap<Vec<usize>, A>,
}

impl<A> GroupedStats<A> {
    /// A reducer over `sweep`'s grid, grouping by the named axes (in the
    /// order given, which sets the row order: first name outermost).
    ///
    /// # Panics
    /// Panics when `by` is empty, names an axis the sweep does not have,
    /// or names the same axis twice.
    pub fn new(sweep: &Sweep, by: &[&str]) -> Self {
        assert!(!by.is_empty(), "grouping needs at least one axis");
        let mut axes = Vec::with_capacity(by.len());
        let mut positions = Vec::with_capacity(by.len());
        for name in by {
            let position = sweep
                .axes()
                .iter()
                .position(|axis| axis.name() == *name)
                .unwrap_or_else(|| panic!("sweep has no axis named {name:?}"));
            assert!(!positions.contains(&position), "axis {name:?} listed twice");
            positions.push(position);
            let axis = &sweep.axes()[position];
            axes.push((axis.name().to_string(), axis.value_labels().map(String::from).collect()));
        }
        Self {
            axes,
            positions,
            lens: sweep.axes().iter().map(crate::sweep::Axis::len).collect(),
            groups: BTreeMap::new(),
        }
    }

    /// Decodes a case index into this reducer's group key.
    fn key_of(&self, case_index: usize) -> Vec<usize> {
        let total: usize = self.lens.iter().product();
        assert!(case_index < total, "case {case_index} out of range ({total} cases)");
        let mut rest = case_index;
        let mut all = vec![0; self.lens.len()];
        for (slot, len) in all.iter_mut().zip(&self.lens).rev() {
            *slot = rest % len;
            rest /= len;
        }
        self.positions.iter().map(|&p| all[p]).collect()
    }

    /// The accumulator for case `case_index`'s group, created on first
    /// touch — the call a [`Sweep::stream`] sink makes per delivery.
    ///
    /// # Panics
    /// Panics when `case_index` is outside the grid the reducer was
    /// built over.
    pub fn entry(&mut self, case_index: usize) -> &mut A
    where
        A: Default,
    {
        let key = self.key_of(case_index);
        self.groups.entry(key).or_default()
    }

    /// The number of groups touched so far (at most the product of the
    /// grouping axes' lengths).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no case has been routed yet (e.g. the grid was empty).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The accumulator for the group with the given value labels (one
    /// per grouping axis, in row order), or `None` when the labels name
    /// no group or the group was never touched.
    pub fn get(&self, labels: &[&str]) -> Option<&A> {
        if labels.len() != self.axes.len() {
            return None;
        }
        let key: Option<Vec<usize>> = self
            .axes
            .iter()
            .zip(labels)
            .map(|((_, values), label)| values.iter().position(|v| v == label))
            .collect();
        self.groups.get(&key?)
    }

    /// All touched groups in grid order (first grouping axis outermost),
    /// each as its value labels plus the accumulator.
    pub fn rows(&self) -> impl Iterator<Item = (Vec<&str>, &A)> {
        self.groups.iter().map(|(key, stats)| {
            let labels =
                self.axes.iter().zip(key).map(|((_, values), &v)| values[v].as_str()).collect();
            (labels, stats)
        })
    }
}

// ---------------------------------------------------------------------
// Snapshot impls: exact JSON round-trips for checkpoint/resume. Every
// field is persisted verbatim — nothing is re-derived on restore, so a
// restored accumulator continues bit-identically to the original.
// ---------------------------------------------------------------------

impl Snapshot for Welford {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("count", Json::u64(self.count)),
            ("mean", Json::f64(self.mean)),
            ("m2", Json::f64(self.m2)),
            ("min", Json::f64(self.min)),
            ("max", Json::f64(self.max)),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            count: json.get("count")?.as_u64()?,
            mean: json.get("mean")?.as_f64()?,
            m2: json.get("m2")?.as_f64()?,
            min: json.get("min")?.as_f64()?,
            max: json.get("max")?.as_f64()?,
        })
    }
}

/// Reads a fixed-length `f64` array field.
fn f64_array<const N: usize>(json: &Json) -> Result<[f64; N], SnapshotError> {
    let values = json.as_f64s()?;
    values.try_into().map_err(|_| SnapshotError::new(format!("expected an array of {N} numbers")))
}

impl Snapshot for P2Quantile {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("p", Json::f64(self.p)),
            ("q", Json::f64s(self.q)),
            ("n", Json::Arr(self.n.iter().map(|&v| Json::Num(v.to_string())).collect())),
            ("np", Json::f64s(self.np)),
            ("dn", Json::f64s(self.dn)),
            ("initial", Json::f64s(self.initial.iter().copied())),
            ("count", Json::u64(self.count)),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        let n_values: Vec<i64> =
            json.get("n")?.items()?.iter().map(Json::as_i64).collect::<Result<_, _>>()?;
        let n: [i64; 5] = n_values
            .try_into()
            .map_err(|_| SnapshotError::new("expected an array of 5 marker positions"))?;
        let p = json.get("p")?.as_f64()?;
        if !(p > 0.0 && p < 1.0) {
            return Err(SnapshotError::new(format!("quantile {p} outside (0, 1)")));
        }
        Ok(Self {
            p,
            q: f64_array(json.get("q")?)?,
            n,
            np: f64_array(json.get("np")?)?,
            dn: f64_array(json.get("dn")?)?,
            initial: json.get("initial")?.as_f64s()?,
            count: json.get("count")?.as_u64()?,
        })
    }
}

impl Snapshot for OnlineStats {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("welford", self.welford.snapshot()),
            ("p50", self.p50.snapshot()),
            ("p95", self.p95.snapshot()),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            welford: Welford::restore(json.get("welford")?)?,
            p50: P2Quantile::restore(json.get("p50")?)?,
            p95: P2Quantile::restore(json.get("p95")?)?,
        })
    }
}

impl Snapshot for FreqResidency {
    fn snapshot(&self) -> Json {
        let rows = self
            .by_mhz
            .iter()
            .map(|(&mhz, &ns)| Json::Arr(vec![Json::u64(mhz as u64), Json::u64(ns)]))
            .collect();
        Json::obj([("unknown_ns", Json::u64(self.unknown_ns)), ("residency", Json::Arr(rows))])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        let mut by_mhz = BTreeMap::new();
        for row in json.get("residency")?.items()? {
            let [mhz, ns] = row.items()? else {
                return Err(SnapshotError::new("expected [mhz, ns] residency pairs"));
            };
            let mhz = u32::try_from(mhz.as_u64()?)
                .map_err(|_| SnapshotError::new("frequency exceeds u32"))?;
            if by_mhz.insert(mhz, ns.as_u64()?).is_some() {
                return Err(SnapshotError::new(format!("duplicate residency row for {mhz} MHz")));
            }
        }
        Ok(Self { by_mhz, unknown_ns: json.get("unknown_ns")?.as_u64()? })
    }
}

impl Snapshot for TransitionStats {
    fn snapshot(&self) -> Json {
        Json::obj([
            ("completed", Json::u64(self.completed)),
            ("fast_path", Json::u64(self.fast_path)),
            ("latency_ns", self.latency_ns.snapshot()),
        ])
    }

    fn restore(json: &Json) -> Result<Self, SnapshotError> {
        Ok(Self {
            completed: json.get("completed")?.as_u64()?,
            fast_path: json.get("fast_path")?.as_u64()?,
            latency_ns: OnlineStats::restore(json.get("latency_ns")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen2_topology::CoreId;

    fn exact_quantile(sorted: &[f64], p: f64) -> f64 {
        let rank = p * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo])
    }

    #[test]
    fn welford_matches_batch_formulas() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 1000);
        assert!((w.mean() - crate::methodology::mean(&xs)).abs() < 1e-9);
        assert!((w.std_dev() - crate::methodology::std_dev(&xs)).abs() < 1e-9);
        assert_eq!(w.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(w.max(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn p2_is_exact_for_small_samples() {
        let mut q = P2Quantile::new(0.5);
        for x in [5.0, 1.0, 3.0] {
            q.push(x);
        }
        assert_eq!(q.estimate(), 3.0);
        q.push(2.0);
        q.push(4.0);
        assert_eq!(q.estimate(), 3.0);
    }

    #[test]
    fn p2_tracks_known_quantiles_of_a_large_stream() {
        // A deterministic, well-shuffled stream over [0, 1).
        let xs: Vec<f64> = (0..10_000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [0.5, 0.95] {
            let mut est = P2Quantile::new(p);
            for &x in &xs {
                est.push(x);
            }
            let exact = exact_quantile(&sorted, p);
            assert!(
                (est.estimate() - exact).abs() < 0.02,
                "p{p}: estimate {} vs exact {exact}",
                est.estimate()
            );
        }
    }

    #[test]
    fn online_stats_bundle() {
        let mut s = OnlineStats::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.count(), 100);
        assert!((s.mean() - 50.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.p50() - 50.5).abs() < 2.0);
        assert!((s.p95() - 95.0).abs() < 2.5);
    }

    fn applied(at_ns: Ns, mhz: u32) -> Record {
        Record { at_ns, event: Event::FreqApplied { core: CoreId(0), mhz, fast_path: false } }
    }

    fn requested(at_ns: Ns, target_mhz: u32) -> Record {
        Record { at_ns, event: Event::FreqRequested { core: CoreId(0), target_mhz } }
    }

    #[test]
    fn residency_attributes_segments_and_unknown_lead_in() {
        let records = [applied(100, 2200), applied(300, 1500), applied(900, 2200)];
        let mut r = FreqResidency::new();
        r.observe(&records, 0, 1000);
        assert_eq!(r.unknown_ns(), 100);
        assert_eq!(r.residency()[&2200], 200 + 100);
        assert_eq!(r.residency()[&1500], 600);
        assert_eq!(r.total_ns(), 1000);
        // A second observation accumulates, and pre-window records
        // establish the frequency at the window start.
        r.observe(&records, 400, 800);
        assert_eq!(r.residency()[&1500], 600 + 400);
    }

    #[test]
    fn residency_share_ignores_unknown_time() {
        let mut r = FreqResidency::new();
        r.observe(&[applied(500, 1500)], 0, 1000);
        assert_eq!(r.unknown_ns(), 500);
        assert!((r.share(1500) - 1.0).abs() < 1e-12);
        assert_eq!(r.share(2200), 0.0);
    }

    #[test]
    fn transitions_pair_requests_with_applies() {
        let records = [
            requested(100, 1500),
            // A repeat of the pending target must not restart the clock.
            requested(200, 1500),
            applied(500, 1500),
            requested(1000, 2200),
            applied(1400, 2200),
            // An apply with no pending request is ignored.
            applied(2000, 2500),
        ];
        let mut t = TransitionStats::new();
        t.observe(&records);
        assert_eq!(t.completed(), 2);
        assert_eq!(t.fast_path(), 0);
        assert_eq!(t.latency_ns().count(), 2);
        assert_eq!(t.latency_ns().min(), 400.0);
        assert_eq!(t.latency_ns().max(), 400.0);
    }

    #[test]
    fn transitions_survive_overlapping_requests() {
        // The SMU queues a request that arrives mid-transition; both
        // transitions complete and both must be counted with their own
        // request times.
        let records =
            [requested(0, 1500), requested(10, 2200), applied(500, 1500), applied(900, 2200)];
        let mut t = TransitionStats::new();
        t.observe(&records);
        assert_eq!(t.completed(), 2);
        assert_eq!(t.latency_ns().min(), 500.0);
        assert_eq!(t.latency_ns().max(), 890.0);
    }

    /// A 3×2 grid shape for grouped-routing tests (never simulated).
    fn shape_sweep() -> Sweep {
        Sweep::new("shape", |_| (crate::SimConfig::epyc_7502_2s(), crate::Scenario::new()))
            .axis(crate::sweep::Axis::new("outer", [10, 20, 30]))
            .axis(crate::sweep::Axis::new("inner", [1, 2]))
    }

    #[test]
    fn grouped_routes_case_indices_like_axis_indices() {
        let sweep = shape_sweep();
        let mut by_outer: GroupedStats<Welford> = GroupedStats::new(&sweep, &["outer"]);
        let mut by_inner: GroupedStats<Welford> = GroupedStats::new(&sweep, &["inner"]);
        for i in 0..sweep.len() {
            by_outer.entry(i).push(i as f64);
            by_inner.entry(i).push(i as f64);
        }
        // Row-major: outer varies every 2 cases, inner alternates.
        assert_eq!(by_outer.len(), 3);
        let outer: Vec<_> = by_outer.rows().collect();
        assert_eq!(outer[0].0, ["10"]);
        assert_eq!(outer[0].1.min(), 0.0);
        assert_eq!(outer[0].1.max(), 1.0);
        assert_eq!(outer[2].0, ["30"]);
        assert_eq!(outer[2].1.min(), 4.0);
        assert_eq!(by_inner.len(), 2);
        assert_eq!(by_inner.get(&["1"]).unwrap().count(), 3);
        assert_eq!(by_inner.get(&["2"]).unwrap().mean(), (1.0 + 3.0 + 5.0) / 3.0);
    }

    #[test]
    fn grouped_by_both_axes_gives_one_group_per_case() {
        let sweep = shape_sweep();
        let mut g: GroupedStats<Welford> = GroupedStats::new(&sweep, &["outer", "inner"]);
        for i in 0..sweep.len() {
            g.entry(i).push(i as f64);
        }
        assert_eq!(g.len(), 6);
        let labels: Vec<Vec<&str>> = g.rows().map(|(labels, _)| labels).collect();
        assert_eq!(labels[0], ["10", "1"]);
        assert_eq!(labels[1], ["10", "2"]);
        assert_eq!(labels[5], ["30", "2"]);
        assert_eq!(g.get(&["30", "2"]).unwrap().mean(), 5.0);
    }

    #[test]
    fn grouped_get_rejects_unknown_labels_and_wrong_arity() {
        let sweep = shape_sweep();
        let mut g: GroupedStats<Welford> = GroupedStats::new(&sweep, &["outer"]);
        g.entry(0).push(1.0);
        assert!(g.get(&["10"]).is_some());
        assert!(g.get(&["20"]).is_none(), "valid label, untouched group");
        assert!(g.get(&["nope"]).is_none());
        assert!(g.get(&["10", "1"]).is_none(), "arity mismatch");
        assert!(g.get(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "no axis named")]
    fn grouped_rejects_unknown_axis() {
        let _: GroupedStats<Welford> = GroupedStats::new(&shape_sweep(), &["nope"]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn grouped_rejects_out_of_range_case() {
        let sweep = shape_sweep();
        let mut g: GroupedStats<Welford> = GroupedStats::new(&sweep, &["outer"]);
        g.entry(6);
    }

    #[test]
    fn snapshots_round_trip_exactly() {
        let mut online = OnlineStats::new();
        let mut welford = Welford::new();
        let mut freq = FreqResidency::new();
        let mut trans = TransitionStats::new();
        for i in 0..100 {
            let x = ((i * 37) % 101) as f64 / 7.0 - 5.0;
            online.push(x);
            welford.push(x);
        }
        freq.observe(&[applied(100, 2200), applied(300, 1500)], 0, 1000);
        trans.observe(&[requested(100, 1500), applied(500, 1500)]);

        assert_eq!(OnlineStats::from_json_text(&online.to_json_text()).unwrap(), online);
        assert_eq!(Welford::from_json_text(&welford.to_json_text()).unwrap(), welford);
        assert_eq!(FreqResidency::from_json_text(&freq.to_json_text()).unwrap(), freq);
        assert_eq!(TransitionStats::from_json_text(&trans.to_json_text()).unwrap(), trans);

        // A restored accumulator continues bit-identically.
        let mut restored = OnlineStats::from_json_text(&online.to_json_text()).unwrap();
        online.push(0.123456789);
        restored.push(0.123456789);
        assert_eq!(online, restored);
        assert_eq!(online.p95().to_bits(), restored.p95().to_bits());
    }

    #[test]
    fn transitions_track_fast_path_and_pending_drops() {
        let mut t = TransitionStats::new();
        t.observe(&[
            requested(0, 2500),
            Record {
                at_ns: 10,
                event: Event::FreqApplied { core: CoreId(0), mhz: 2500, fast_path: true },
            },
            // Left pending at end of stream: dropped.
            requested(100, 1500),
        ]);
        assert_eq!(t.completed(), 1);
        assert_eq!(t.fast_path(), 1);
    }
}
