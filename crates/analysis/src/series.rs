//! Figure-series generation: the exact sweeps plotted in the paper.
//!
//! Every figure of Section 5 sweeps the message-loss probability
//! `p ∈ {0.05, 0.10, …, 0.50}` for cluster populations
//! `N ∈ {50, 75, 100}`; these helpers regenerate those series as
//! plain data.

use crate::{ch_false_detection, false_detection, incompleteness};
use serde::{Deserialize, Serialize};

/// The paper's cluster populations.
pub const POPULATIONS: [u64; 3] = [50, 75, 100];

/// The paper's loss-probability grid: 0.05 to 0.50 in steps of 0.05.
pub fn loss_grid() -> Vec<f64> {
    (1..=10).map(|i| i as f64 * 0.05).collect()
}

/// One point of a figure series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FigPoint {
    /// Cluster population `N`.
    pub n: u64,
    /// Message-loss probability `p`.
    pub p: f64,
    /// The measure's value.
    pub value: f64,
}

/// Figure 5: `P̂(False detection)` over the full grid.
pub fn fig5() -> Vec<FigPoint> {
    sweep(false_detection::worst_case)
}

/// Figure 6: `P(False detection on CH)` over the full grid.
pub fn fig6() -> Vec<FigPoint> {
    sweep(ch_false_detection::probability)
}

/// Figure 7: `P̂(Incompleteness)` over the full grid.
pub fn fig7() -> Vec<FigPoint> {
    sweep(incompleteness::worst_case)
}

fn sweep(f: impl Fn(u64, f64) -> f64) -> Vec<FigPoint> {
    let mut points = Vec::new();
    for &n in &POPULATIONS {
        for p in loss_grid() {
            points.push(FigPoint {
                n,
                p,
                value: f(n, p),
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_paper() {
        let g = loss_grid();
        assert_eq!(g.len(), 10);
        assert!((g[0] - 0.05).abs() < 1e-12);
        assert!((g[9] - 0.50).abs() < 1e-12);
    }

    #[test]
    fn figure_series_have_thirty_points() {
        for series in [fig5(), fig6(), fig7()] {
            assert_eq!(series.len(), 30);
            assert!(series
                .iter()
                .all(|pt| pt.value.is_finite() && pt.value >= 0.0));
        }
    }

    #[test]
    fn fig6_sits_below_fig5() {
        for (a, b) in fig5().iter().zip(fig6()) {
            assert!(b.value <= a.value, "n={} p={}", a.n, a.p);
        }
    }
}
