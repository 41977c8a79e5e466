//! Van der Pol's oscillator benchmark (paper §4).
//!
//! The controlled 2-D non-linear system
//!
//! ```text
//! ẋ₁ = x₂
//! ẋ₂ = γ(1 − x₁²)x₂ − x₁ + u        (γ = 1)
//! ```
//!
//! with sets `X₀ = [−0.51,−0.49] × [0.49,0.51]`,
//! `X_g = [−0.05,0.05]²`, `X_u = [−0.3,−0.25] × [0.2,0.35]` and `δ = 0.1`.
//!
//! The unsafe box sits near the natural (uncontrolled) trajectory from `X₀`
//! toward the origin, so a goal-only controller easily clips it — the paper's
//! motivation for verification in the loop.

use crate::simulate::Lanes;
use crate::system::{Dynamics, ReachAvoidProblem};
use dwv_geom::Region;
use dwv_interval::IntervalBox;
use dwv_poly::Polynomial;
use dwv_taylor::OdeRhs;
use std::sync::Arc;

/// The damping coefficient `γ`.
pub const GAMMA: f64 = 1.0;

/// The sampling period `δ`.
pub const DELTA: f64 = 0.1;

/// Control steps in the verification horizon (`T = 3.5 s`).
pub const HORIZON_STEPS: usize = 35;

/// The Van der Pol oscillator dynamics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Oscillator;

impl Dynamics for Oscillator {
    fn name(&self) -> &str {
        "oscillator"
    }

    fn n_state(&self) -> usize {
        2
    }

    fn n_input(&self) -> usize {
        1
    }

    fn deriv(&self, x: &[f64], u: &[f64]) -> Vec<f64> {
        vec![x[1], GAMMA * (1.0 - x[0] * x[0]) * x[1] - x[0] + u[0]]
    }

    fn deriv_into(&self, x: &[f64], u: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.push(x[1]);
        out.push(GAMMA * (1.0 - x[0] * x[0]) * x[1] - x[0] + u[0]);
    }

    fn deriv_lanes(&self, x: &[Lanes], u: &[Lanes], out: &mut [Lanes]) {
        let (x0, x1, u) = (x[0], x[1], u[0]);
        out[0] = x1;
        out[1] = std::array::from_fn(|l| GAMMA * (1.0 - x0[l] * x0[l]) * x1[l] - x0[l] + u[l]);
    }

    fn vector_field(&self) -> OdeRhs {
        // Variables: (x1, x2, u).
        let x1 = Polynomial::var(3, 0);
        let x2 = Polynomial::var(3, 1);
        let u = Polynomial::var(3, 2);
        OdeRhs::new(
            2,
            1,
            vec![
                x2.clone(),
                x2.clone().scale(GAMMA) - (x1.clone() * x1.clone() * x2).scale(GAMMA) - x1 + u,
            ],
        )
    }
}

/// The paper's oscillator reach-avoid problem instance.
#[must_use]
pub fn reach_avoid_problem() -> ReachAvoidProblem {
    ReachAvoidProblem {
        dynamics: Arc::new(Oscillator),
        x0: IntervalBox::from_bounds(&[(-0.51, -0.49), (0.49, 0.51)]),
        unsafe_region: Region::from_box(IntervalBox::from_bounds(&[(-0.3, -0.25), (0.2, 0.35)])),
        goal_region: Region::from_box(IntervalBox::from_bounds(&[(-0.05, 0.05), (-0.05, 0.05)])),
        delta: DELTA,
        horizon_steps: HORIZON_STEPS,
        universe: IntervalBox::from_bounds(&[(-2.0, 2.0), (-2.0, 2.0)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deriv_matches_field_polynomials() {
        let osc = Oscillator;
        let f = osc.vector_field();
        for (x, u) in [([-0.5, 0.5], 0.3), ([1.2, -0.4], -1.0), ([0.0, 0.0], 0.0)] {
            let d1 = osc.deriv(&x, &[u]);
            let d2 = f.eval(&[x[0], x[1], u]);
            assert!((d1[0] - d2[0]).abs() < 1e-12);
            assert!((d1[1] - d2[1]).abs() < 1e-12, "{d1:?} vs {d2:?}");
        }
    }

    #[test]
    fn not_linear() {
        assert!(Oscillator.linear_parts().is_none());
        assert_eq!(Oscillator.vector_field().degree(), 3);
    }

    #[test]
    fn problem_sets_match_paper() {
        let p = reach_avoid_problem();
        assert!(p.x0.contains_point(&[-0.5, 0.5]));
        assert!(p.goal_region.contains_point(&[0.0, 0.0]));
        assert!(p.unsafe_region.contains_point(&[-0.27, 0.3]));
        assert!(!p.unsafe_region.contains_point(&[0.0, 0.0]));
    }
}
