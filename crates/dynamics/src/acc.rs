//! Linear adaptive cruise control (ACC) benchmark (paper §4, Fig. 3).
//!
//! Two vehicles: the front vehicle drives at `v_f = 40`; the ego vehicle
//! controls its acceleration. With state `x = (s, v)` (relative distance and
//! ego velocity):
//!
//! ```text
//! ṡ = v_f − v
//! v̇ = k·v + u          (k = −0.2)
//! ```
//!
//! Sets (from the paper): `X₀ = [122,124] × [48,52]`, `X_u = {s ≤ 120}`,
//! `X_g = [145,155] × [39.5,40.5]`, sampling period `δ = 0.1`.
//!
//! The ego starts *faster* than the front vehicle (v ≈ 50 > 40), so the gap
//! initially shrinks toward the unsafe region; the controller must brake
//! below `v_f` to re-open the gap and then settle at `v ≈ 40` inside the
//! goal window — the reach-avoid tension that makes this a good benchmark.

use crate::linalg::Matrix;
use crate::simulate::Lanes;
use crate::system::{Dynamics, ReachAvoidProblem};
use dwv_geom::{HalfSpace, Region};
use dwv_interval::IntervalBox;
use dwv_poly::Polynomial;
use dwv_taylor::OdeRhs;
use std::sync::Arc;

/// The front-vehicle velocity `v_f`.
pub const V_FRONT: f64 = 40.0;

/// The velocity damping coefficient `k`.
pub const K_DAMP: f64 = -0.2;

/// The sampling period `δ`.
pub const DELTA: f64 = 0.1;

/// Control steps in the verification horizon (`T = 12 s`), long enough for
/// the gap to re-open from ≈123 and settle into the goal window around
/// `(150, 40)` (a pure-linear feedback has one slow closed-loop pole once
/// the equilibrium is pinned to the goal, so settling takes ≈10 s).
pub const HORIZON_STEPS: usize = 120;

/// The ACC dynamics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc;

impl Dynamics for Acc {
    fn name(&self) -> &str {
        "acc"
    }

    fn n_state(&self) -> usize {
        2
    }

    fn n_input(&self) -> usize {
        1
    }

    fn deriv(&self, x: &[f64], u: &[f64]) -> Vec<f64> {
        vec![V_FRONT - x[1], K_DAMP * x[1] + u[0]]
    }

    fn deriv_into(&self, x: &[f64], u: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.push(V_FRONT - x[1]);
        out.push(K_DAMP * x[1] + u[0]);
    }

    fn deriv_lanes(&self, x: &[Lanes], u: &[Lanes], out: &mut [Lanes]) {
        let (v, u) = (x[1], u[0]);
        out[0] = std::array::from_fn(|l| V_FRONT - v[l]);
        out[1] = std::array::from_fn(|l| K_DAMP * v[l] + u[l]);
    }

    fn vector_field(&self) -> OdeRhs {
        // Variables: (s, v, u).
        let v = Polynomial::var(3, 1);
        let u = Polynomial::var(3, 2);
        OdeRhs::new(
            2,
            1,
            vec![
                Polynomial::constant(3, V_FRONT) - v.clone(),
                v.scale(K_DAMP) + u,
            ],
        )
    }

    fn linear_parts(&self) -> Option<(Matrix, Matrix, Vec<f64>)> {
        Some((
            Matrix::from_rows(vec![vec![0.0, -1.0], vec![0.0, K_DAMP]]),
            Matrix::from_rows(vec![vec![0.0], vec![1.0]]),
            vec![V_FRONT, 0.0],
        ))
    }
}

/// The paper's ACC reach-avoid problem instance.
#[must_use]
pub fn reach_avoid_problem() -> ReachAvoidProblem {
    ReachAvoidProblem {
        dynamics: Arc::new(Acc),
        x0: IntervalBox::from_bounds(&[(122.0, 124.0), (48.0, 52.0)]),
        unsafe_region: Region::from_halfspace(HalfSpace::new(vec![1.0, 0.0], 120.0)),
        goal_region: Region::from_box(IntervalBox::from_bounds(&[(145.0, 155.0), (39.5, 40.5)])),
        delta: DELTA,
        horizon_steps: HORIZON_STEPS,
        universe: IntervalBox::from_bounds(&[(80.0, 220.0), (0.0, 80.0)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deriv_matches_field_polynomials() {
        let acc = Acc;
        let f = acc.vector_field();
        for (x, u) in [([123.0, 50.0], 2.0), ([150.0, 40.0], -1.0)] {
            let d1 = acc.deriv(&x, &[u]);
            let d2 = f.eval(&[x[0], x[1], u]);
            assert!((d1[0] - d2[0]).abs() < 1e-12);
            assert!((d1[1] - d2[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_parts_reproduce_deriv() {
        let acc = Acc;
        let (a, b, c) = acc.linear_parts().unwrap();
        let x = [123.0, 50.0];
        let u = [1.5];
        let ax = a.matvec(&x);
        let bu = b.matvec(&u);
        let d = acc.deriv(&x, &u);
        for i in 0..2 {
            assert!((ax[i] + bu[i] + c[i] - d[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn problem_sets_match_paper() {
        let p = reach_avoid_problem();
        assert_eq!(p.n_state(), 2);
        assert!(p.x0.contains_point(&[123.0, 50.0]));
        assert!(p.unsafe_region.contains_point(&[119.0, 40.0]));
        assert!(!p.unsafe_region.contains_point(&[121.0, 40.0]));
        assert!(p.goal_region.contains_point(&[150.0, 40.0]));
        assert!((p.horizon() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn gap_initially_shrinks() {
        // The benchmark's tension: with v > v_f the distance decreases.
        let acc = Acc;
        let d = acc.deriv(&[123.0, 50.0], &[0.0]);
        assert!(d[0] < 0.0);
    }
}
