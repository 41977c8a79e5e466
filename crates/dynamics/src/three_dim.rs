//! The 3-D numerical benchmark (paper §4, originally from ReachNN/Verisig).
//!
//! ```text
//! ẋ₁ = x₃³ − x₂
//! ẋ₂ = x₃
//! ẋ₃ = u
//! ```
//!
//! with `δ = 0.2`, `X₀ = [0.38,0.4] × [0.45,0.47] × [0.25,0.27]`,
//! `X_g : x₁ ∈ [−0.5,−0.28], x₂ ∈ [0,0.28]`,
//! `X_u : x₁ ∈ [−0.1,0.2], x₂ ∈ [0.55,0.6]` (x₃ unconstrained in both).

use crate::simulate::Lanes;
use crate::system::{Dynamics, ReachAvoidProblem};
use dwv_geom::Region;
use dwv_interval::IntervalBox;
use dwv_poly::Polynomial;
use dwv_taylor::OdeRhs;
use std::sync::Arc;

/// The sampling period `δ`.
pub const DELTA: f64 = 0.2;

/// Control steps in the verification horizon (`T = 2 s`).
pub const HORIZON_STEPS: usize = 10;

/// The 3-D system dynamics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreeDim;

impl Dynamics for ThreeDim {
    fn name(&self) -> &str {
        "three-dim"
    }

    fn n_state(&self) -> usize {
        3
    }

    fn n_input(&self) -> usize {
        1
    }

    fn deriv(&self, x: &[f64], u: &[f64]) -> Vec<f64> {
        vec![x[2] * x[2] * x[2] - x[1], x[2], u[0]]
    }

    fn deriv_into(&self, x: &[f64], u: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.push(x[2] * x[2] * x[2] - x[1]);
        out.push(x[2]);
        out.push(u[0]);
    }

    fn deriv_lanes(&self, x: &[Lanes], u: &[Lanes], out: &mut [Lanes]) {
        let (x1, x2) = (x[1], x[2]);
        out[0] = std::array::from_fn(|l| x2[l] * x2[l] * x2[l] - x1[l]);
        out[1] = x2;
        out[2] = u[0];
    }

    fn vector_field(&self) -> OdeRhs {
        // Variables: (x1, x2, x3, u).
        let x2 = Polynomial::var(4, 1);
        let x3 = Polynomial::var(4, 2);
        let u = Polynomial::var(4, 3);
        OdeRhs::new(
            3,
            1,
            vec![x3.clone() * x3.clone() * x3.clone() - x2.clone(), x3, u],
        )
    }
}

/// The paper's 3-D reach-avoid problem instance.
#[must_use]
pub fn reach_avoid_problem() -> ReachAvoidProblem {
    ReachAvoidProblem {
        dynamics: Arc::new(ThreeDim),
        x0: IntervalBox::from_bounds(&[(0.38, 0.4), (0.45, 0.47), (0.25, 0.27)]),
        unsafe_region: Region::box_constraints(&[(-0.1, 0.2), (0.55, 0.6)], 3),
        goal_region: Region::box_constraints(&[(-0.5, -0.28), (0.0, 0.28)], 3),
        delta: DELTA,
        horizon_steps: HORIZON_STEPS,
        universe: IntervalBox::from_bounds(&[(-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deriv_matches_field_polynomials() {
        let sys = ThreeDim;
        let f = sys.vector_field();
        for (x, u) in [([0.39, 0.46, 0.26], 0.5), ([-0.2, 0.1, -0.5], -1.0)] {
            let d1 = sys.deriv(&x, &[u]);
            let d2 = f.eval(&[x[0], x[1], x[2], u]);
            for i in 0..3 {
                assert!((d1[i] - d2[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cubic_term_present() {
        let sys = ThreeDim;
        let d = sys.deriv(&[0.0, 0.0, 2.0], &[0.0]);
        assert_eq!(d[0], 8.0);
        assert_eq!(sys.vector_field().degree(), 3);
    }

    #[test]
    fn regions_unconstrained_in_x3() {
        let p = reach_avoid_problem();
        assert!(p.goal_region.contains_point(&[-0.4, 0.1, 100.0]));
        assert!(p.unsafe_region.contains_point(&[0.0, 0.57, -100.0]));
        assert!(!p.goal_region.contains_point(&[0.0, 0.1, 0.0]));
    }
}
