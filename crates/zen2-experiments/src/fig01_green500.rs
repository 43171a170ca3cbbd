//! Fig. 1 — power efficiency of x86 systems in the 2021/07 Green500 list.
//!
//! This is context data, not a measurement on the test system. The
//! original figure aggregates the public Green500 list; since the full
//! list is not redistributable here, a representative sample per
//! architecture (with the ranges visible in the paper's box plot) is
//! embedded. Substitution documented in DESIGN.md.

use crate::report::Table;
use zen2_sim::methodology::{mean, quantile};

/// One architecture's efficiency samples (GFlops/W).
#[derive(Debug, Clone)]
pub struct ArchEfficiency {
    /// Architecture label as in the figure.
    pub arch: &'static str,
    /// Per-system efficiencies, GFlops/W.
    pub systems: Vec<f64>,
}

/// The embedded representative dataset (architectures with >5 systems in
/// the 2021/07 list, as in the figure).
pub fn dataset() -> Vec<ArchEfficiency> {
    vec![
        ArchEfficiency {
            arch: "AMD Zen 2 (Rome)",
            systems: vec![1.8, 2.3, 2.6, 2.9, 3.1, 3.4, 3.7, 4.0, 4.4, 4.9, 5.4],
        },
        ArchEfficiency {
            arch: "Intel Cascade Lake",
            systems: vec![1.1, 1.5, 1.9, 2.2, 2.5, 2.8, 3.1, 3.4, 3.8],
        },
        ArchEfficiency { arch: "Intel Xeon Phi", systems: vec![2.6, 2.9, 3.2, 3.5, 3.8, 4.3] },
        ArchEfficiency {
            arch: "Intel Skylake",
            systems: vec![0.9, 1.3, 1.7, 2.0, 2.3, 2.6, 2.9, 3.2],
        },
        ArchEfficiency { arch: "Intel Broadwell", systems: vec![0.7, 1.0, 1.3, 1.6, 1.9, 2.2] },
        ArchEfficiency { arch: "Intel Haswell", systems: vec![0.5, 0.8, 1.1, 1.4, 1.7, 2.0] },
    ]
}

/// Summary statistics per architecture.
#[derive(Debug, Clone)]
pub struct ArchSummary {
    /// Architecture label.
    pub arch: &'static str,
    /// Number of systems.
    pub count: usize,
    /// Minimum efficiency.
    pub min: f64,
    /// Median efficiency.
    pub median: f64,
    /// Maximum efficiency.
    pub max: f64,
    /// Mean efficiency.
    pub mean: f64,
}

/// Computes the per-architecture summaries.
pub fn run() -> Vec<ArchSummary> {
    dataset()
        .into_iter()
        .map(|a| ArchSummary {
            arch: a.arch,
            count: a.systems.len(),
            min: a.systems.iter().copied().fold(f64::INFINITY, f64::min),
            median: quantile(&a.systems, 0.5),
            max: a.systems.iter().copied().fold(0.0, f64::max),
            mean: mean(&a.systems),
        })
        .collect()
}

/// Renders the Fig. 1 summary.
pub fn render(summaries: &[ArchSummary]) -> String {
    tables(summaries).iter().map(Table::render).collect()
}

/// The summary as a [`Table`] (for text or JSON output).
pub fn tables(summaries: &[ArchSummary]) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 1 — Green500 2021/07 power efficiency by x86 architecture [GFlops/W]",
        &["architecture", "systems", "min", "median", "max", "mean"],
    );
    for s in summaries {
        t.row(&[
            s.arch.to_string(),
            format!("{}", s.count),
            format!("{:.1}", s.min),
            format!("{:.1}", s.median),
            format!("{:.1}", s.max),
            format!("{:.2}", s.mean),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rome_tops_the_ranking() {
        let s = run();
        let rome = s.iter().find(|a| a.arch.contains("Rome")).unwrap();
        for other in s.iter().filter(|a| !a.arch.contains("Rome")) {
            assert!(rome.max >= other.max, "{} beats Rome", other.arch);
            assert!(rome.median >= other.median);
        }
        // The figure's x-axis tops out near 5.4 GFlops/W for Rome.
        assert!(rome.max > 5.0 && rome.max < 6.0);
    }

    #[test]
    fn all_architectures_have_more_than_five_systems() {
        for s in run() {
            assert!(s.count >= 6, "{} has {}", s.arch, s.count);
        }
    }

    #[test]
    fn haswell_is_the_least_efficient() {
        let s = run();
        let haswell = s.iter().find(|a| a.arch.contains("Haswell")).unwrap();
        for other in &s {
            assert!(haswell.median <= other.median);
        }
    }

    #[test]
    fn render_lists_all_architectures() {
        let out = render(&run());
        for arch in ["Rome", "Cascade Lake", "Xeon Phi", "Skylake", "Broadwell", "Haswell"] {
            assert!(out.contains(arch), "{arch} missing");
        }
    }
}
