//! The two-scan smoother driver.

use kalman_model::{KalmanError, LinearModel, Result, Smoothed};
use kalman_par::ExecPolicy;

/// Options for the associative smoother.
#[derive(Debug, Clone, Copy)]
pub struct AssociativeOptions {
    /// Execution policy for element construction and both scans.
    pub policy: ExecPolicy,
}

impl Default for AssociativeOptions {
    fn default() -> Self {
        AssociativeOptions {
            policy: ExecPolicy::par(),
        }
    }
}

fn check_supported(model: &LinearModel) -> Result<()> {
    model.validate()?;
    if model.prior.is_none() {
        return Err(KalmanError::PriorRequired);
    }
    if !model.is_uniform() {
        return Err(KalmanError::UnsupportedStructure(
            "the associative smoother requires uniform state dimensions, square F, and H = I"
                .into(),
        ));
    }
    Ok(())
}

/// Smooths `model` with the associative parallel-scan algorithm.
///
/// A thin wrapper over the planned path: builds a transient
/// [`crate::ScanPlan`] for the model's shape and executes it once — phase 1
/// builds the filtering elements (parallel per step) and runs the forward
/// sweep, phase 2 builds the smoothing elements from the filtered results
/// and runs the backward (suffix) sweep, both over the schedule's fixed
/// Brent–Kung tree (so results are bitwise identical across execution
/// policies).  Unlike the QR smoothers, covariances are inherent to the
/// computation and always returned.
///
/// # Errors
///
/// [`KalmanError::PriorRequired`] / [`KalmanError::UnsupportedStructure`]
/// for unsupported models; covariance failures propagate.
pub fn associative_smooth(model: &LinearModel, options: AssociativeOptions) -> Result<Smoothed> {
    check_supported(model)?;
    let mut plan = crate::ScanPlan::for_model(
        model,
        crate::ScanOptions {
            policy: options.policy,
        },
    )?;
    // One-shot execution: workspace retention would never be harvested.
    plan.set_arena(false);
    plan.smooth_model(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_model::{generators, solve_dense};
    use kalman_seq::rts_smooth;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn smoother_matches_rts_and_dense() {
        let model = generators::paper_benchmark(&mut rng(61), 4, 40, true);
        let assoc = associative_smooth(&model, AssociativeOptions::default()).unwrap();
        let rts = rts_smooth(&model).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(
            assoc.max_mean_diff(&rts) < 1e-8,
            "vs RTS {}",
            assoc.max_mean_diff(&rts)
        );
        assert!(assoc.max_cov_diff(&rts).unwrap() < 1e-8);
        assert!(assoc.max_mean_diff(&dense) < 1e-8);
        assert!(assoc.max_cov_diff(&dense).unwrap() < 1e-8);
    }

    #[test]
    fn seq_and_par_policies_agree() {
        let model = generators::paper_benchmark(&mut rng(62), 3, 33, true);
        let seq = associative_smooth(
            &model,
            AssociativeOptions {
                policy: ExecPolicy::Seq,
            },
        )
        .unwrap();
        let par = associative_smooth(
            &model,
            AssociativeOptions {
                policy: ExecPolicy::par_with_grain(2),
            },
        )
        .unwrap();
        // The parallel scan applies the operator in a different association
        // order, so results differ by rounding only.
        assert!(seq.max_mean_diff(&par) < 1e-9);
        assert!(seq.max_cov_diff(&par).unwrap() < 1e-9);
    }

    #[test]
    fn requires_prior_and_uniform_model() {
        let model = generators::paper_benchmark(&mut rng(63), 2, 5, false);
        assert!(matches!(
            associative_smooth(&model, AssociativeOptions::default()),
            Err(KalmanError::PriorRequired)
        ));
        let mut dim_change = generators::dimension_change(&mut rng(64), 2, 4);
        dim_change.set_prior(vec![0.0; 2], kalman_model::CovarianceSpec::Identity(2));
        assert!(matches!(
            associative_smooth(&dim_change, AssociativeOptions::default()),
            Err(KalmanError::UnsupportedStructure(_))
        ));
    }

    #[test]
    fn handles_missing_observations() {
        let mut model = generators::sparse_observations(&mut rng(65), 3, 20, 4);
        model.set_prior(vec![0.0; 3], kalman_model::CovarianceSpec::Identity(3));
        let assoc = associative_smooth(&model, AssociativeOptions::default()).unwrap();
        let rts = rts_smooth(&model).unwrap();
        assert!(assoc.max_mean_diff(&rts) < 1e-8);
        assert!(assoc.max_cov_diff(&rts).unwrap() < 1e-8);
    }

    #[test]
    fn handles_tracking_problem() {
        let p = generators::tracking_2d(&mut rng(66), 40, 0.1, 0.5, 0.2);
        let assoc = associative_smooth(&p.model, AssociativeOptions::default()).unwrap();
        let rts = rts_smooth(&p.model).unwrap();
        assert!(assoc.max_mean_diff(&rts) < 1e-7);
        assert!(assoc.max_cov_diff(&rts).unwrap() < 1e-7);
    }

    #[test]
    fn single_state() {
        let model = generators::paper_benchmark(&mut rng(67), 2, 0, true);
        let assoc = associative_smooth(&model, AssociativeOptions::default()).unwrap();
        let rts = rts_smooth(&model).unwrap();
        assert!(assoc.max_mean_diff(&rts) < 1e-10);
    }
}
