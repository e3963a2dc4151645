//! Experiment-harness helpers shared by the `clme` subcommands.
//!
//! `clme figures` regenerates every simulator table and figure of the
//! paper's evaluation (see DESIGN.md §3 for the index). This library
//! holds what its commands share: the window sizes the environment
//! selects, geometric and arithmetic means, and the `clme perf`
//! machinery.

pub mod perf;

use clme_sim::SimParams;

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean needs positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Harness window sizes: the default finishes every figure in minutes
/// while preserving every reported trend; set `CLME_FULL=1` for the long
/// evaluation windows.
pub fn params_from_env() -> SimParams {
    params_for(std::env::var("CLME_FULL").ok().as_deref())
}

/// The windows a `CLME_FULL` value selects: exactly `1` selects
/// [`SimParams::evaluation`]; any other value, or none, the figure
/// windows.
fn params_for(clme_full: Option<&str>) -> SimParams {
    if clme_full == Some("1") {
        SimParams::evaluation()
    } else {
        SimParams {
            functional_warmup_accesses: 200_000,
            warmup_per_core: 150_000,
            measure_per_core: 150_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_basics() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[0.0]);
    }

    #[test]
    fn only_clme_full_1_selects_the_evaluation_windows() {
        assert_eq!(params_for(Some("1")), SimParams::evaluation());
        let figure_windows = params_for(None);
        assert_ne!(figure_windows, SimParams::evaluation());
        for value in ["0", "", "true", "yes", " 1", "01", "1 "] {
            assert_eq!(
                params_for(Some(value)),
                figure_windows,
                "CLME_FULL={value:?}"
            );
        }
    }
}
