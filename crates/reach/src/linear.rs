//! Exact reachability for discretized LTI systems under linear feedback —
//! the Flow\* stand-in used for the ACC benchmark (paper §3.1).
//!
//! For `ẋ = Ax + Bu + c` discretized with zero-order hold at period `δ`,
//! the closed loop under `u = Θx` is the affine recursion
//!
//! ```text
//! X_r[t+1] = (A_d + B_d Θ) X_r[t] ⊕ {c_d},   X_r[0] = X₀
//! ```
//!
//! The affine image of a convex polytope is exactly the convex hull of the
//! mapped vertices, so the reach sets are computed *exactly* (up to f64
//! rounding): in 2-D as convex polygons, in general as propagated vertex
//! clouds with tight bounding boxes.

use crate::error::ReachError;
use crate::flowpipe::{Flowpipe, StepEnclosure};
use crate::sweep::affine_sweep_box_chord;
use dwv_dynamics::linalg::{discretize, Matrix};
use dwv_dynamics::{LinearController, ReachAvoidProblem};
use dwv_geom::{ConvexPolygon, Vec2};
use dwv_interval::{Interval, IntervalBox};

/// Exact polytope-recursion verifier for LTI systems with linear controllers.
///
/// # Example
///
/// ```
/// use dwv_reach::LinearReach;
/// use dwv_dynamics::{acc, LinearController};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let problem = acc::reach_avoid_problem();
/// let verifier = LinearReach::for_problem(&problem)?;
/// let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
/// let fp = verifier.reach(&k)?;
/// assert_eq!(fp.len(), problem.horizon_steps + 1);
/// // Every step of the 2-D recursion carries an exact polygon.
/// assert!(fp.steps().iter().all(|s| s.polygon.is_some()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LinearReach {
    ad: Matrix,
    bd: Matrix,
    cd: Vec<f64>,
    // Continuous-time parts, kept for the inter-sample sweep enclosures.
    a: Matrix,
    b: Matrix,
    c: Vec<f64>,
    x0: IntervalBox,
    steps: usize,
    delta: f64,
}

impl LinearReach {
    /// Builds the verifier for a problem whose dynamics are affine.
    ///
    /// # Errors
    ///
    /// Returns [`ReachError::Unsupported`] when the dynamics do not expose
    /// `(A, B, c)` parts.
    pub fn for_problem(problem: &ReachAvoidProblem) -> Result<Self, ReachError> {
        let (a, b, c) = problem.dynamics.linear_parts().ok_or_else(|| {
            ReachError::Unsupported(format!(
                "dynamics '{}' are not affine; use the Taylor-model verifier",
                problem.dynamics.name()
            ))
        })?;
        Ok(Self::new(
            &a,
            &b,
            &c,
            problem.x0.clone(),
            problem.delta,
            problem.horizon_steps,
        ))
    }

    /// Builds the verifier from explicit affine parts `ẋ = Ax + Bu + c`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches or a non-finite initial box.
    #[must_use]
    pub fn new(
        a: &Matrix,
        b: &Matrix,
        c: &[f64],
        x0: IntervalBox,
        delta: f64,
        steps: usize,
    ) -> Self {
        assert_eq!(a.nrows(), x0.dim(), "A dimension must match X0");
        assert_eq!(c.len(), a.nrows(), "affine term length mismatch");
        assert!(x0.is_finite(), "initial box must be bounded");
        // Discretize [B | c] together so c_d = ∫ e^{At} c dt comes for free.
        let c_col = Matrix::from_rows(c.iter().map(|&v| vec![v]).collect());
        let b_aug = b.hcat(&c_col);
        let (ad, bd_aug) = discretize(a, &b_aug, delta);
        let m = b.ncols();
        let bd = bd_aug.block(0, 0, a.nrows(), m);
        let cd_m = bd_aug.block(0, m, a.nrows(), 1);
        let cd = (0..a.nrows()).map(|i| cd_m.get(i, 0)).collect();
        Self {
            ad,
            bd,
            cd,
            a: a.clone(),
            b: b.clone(),
            c: c.to_vec(),
            x0,
            steps,
            delta,
        }
    }

    /// The discretized closed-loop map `M = A_d + B_d Θ`.
    #[must_use]
    pub fn closed_loop_matrix(&self, controller: &LinearController) -> Matrix {
        let n = self.ad.nrows();
        let m = self.bd.ncols();
        let mut k = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                k.set(i, j, controller.gain(i, j));
            }
        }
        self.ad.add(&self.bd.matmul(&k))
    }

    /// Replaces the initial set (the Algorithm 2 per-cell entry point).
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch or a non-finite box.
    #[must_use]
    pub fn with_initial_set(mut self, x0: IntervalBox) -> Self {
        assert_eq!(x0.dim(), self.ad.nrows(), "X0 dimension must match A");
        assert!(x0.is_finite(), "initial box must be bounded");
        self.x0 = x0;
        self
    }

    /// Computes the reachable sets.
    ///
    /// Step 0 is the initial set at `t = 0` (exact); step `k ≥ 1` covers
    /// the control period `[(k−1)δ, kδ]`: its `end_box`/`polygon` are the
    /// *exact* instantaneous set at `kδ` from the vertex recursion, and its
    /// `enclosure` additionally covers the inter-sample trajectory sweep
    /// (a sound chord-plus-curvature derivative-bound enclosure), so
    /// safety judgements hold for *all* continuous times (Definition 1).
    ///
    /// # Errors
    ///
    /// Returns [`ReachError::Diverged`] if the recursion produces non-finite
    /// coordinates (an unstable closed loop blowing past f64 range);
    /// [`ReachError::Unsupported`] for a NaN or infinite gain.
    pub fn reach(&self, controller: &LinearController) -> Result<Flowpipe, ReachError> {
        crate::verifier::require_finite_params(controller)?;
        let _run = dwv_obs::span("reach.run");
        let n = self.x0.dim();
        let m = self.closed_loop_matrix(controller);
        let mut vertices: Vec<Vec<f64>> = self.x0.corners();
        let mut steps = Vec::with_capacity(self.steps + 1);
        steps.push(StepEnclosure {
            t0: 0.0,
            t1: 0.0,
            enclosure: self.x0.clone(),
            end_box: self.x0.clone(),
            polygon: instant_polygon(&vertices, n),
        });
        for t in 1..=self.steps {
            let prev_box: IntervalBox = vertex_box(&vertices, n);
            let u_box: Vec<Interval> = (0..self.bd.ncols())
                .map(|i| {
                    let mut acc = Interval::ZERO;
                    for j in 0..n {
                        acc += prev_box.interval(j) * controller.gain(i, j);
                    }
                    acc
                })
                .collect();
            vertices = vertices
                .iter()
                .map(|v| {
                    let mut x = m.matvec(v);
                    for (xi, cdi) in x.iter_mut().zip(&self.cd) {
                        *xi += cdi;
                    }
                    x
                })
                .collect();
            if vertices.iter().any(|v| v.iter().any(|x| !x.is_finite())) {
                return Err(ReachError::Diverged {
                    step: t,
                    source: dwv_taylor::FlowpipeError::Diverged {
                        last_radius: f64::INFINITY,
                    },
                });
            }
            let end_box = vertex_box(&vertices, n);
            let sweep = affine_sweep_box_chord(
                &self.a, &self.b, &self.c, &prev_box, &end_box, &u_box, self.delta,
            );
            steps.push(StepEnclosure {
                t0: (t - 1) as f64 * self.delta,
                t1: t as f64 * self.delta,
                enclosure: sweep,
                end_box,
                polygon: instant_polygon(&vertices, n),
            });
        }
        Ok(Flowpipe::new(steps))
    }
}

impl crate::verifier::Verifier<LinearController> for LinearReach {
    fn name(&self) -> &'static str {
        "linear-exact"
    }

    fn cost_class(&self) -> crate::verifier::CostClass {
        crate::verifier::CostClass::Exact
    }

    fn reach(&self, controller: &LinearController) -> Result<Flowpipe, ReachError> {
        LinearReach::reach(self, controller)
    }

    fn reach_from(
        &self,
        x0: &IntervalBox,
        controller: &LinearController,
    ) -> Result<Flowpipe, ReachError> {
        self.clone().with_initial_set(x0.clone()).reach(controller)
    }
}

fn vertex_box(vertices: &[Vec<f64>], n: usize) -> IntervalBox {
    (0..n)
        .map(|i| {
            Interval::hull_of_values(vertices.iter().map(|v| v[i])) // dwv-lint: allow(panic-freedom#index) -- vertex coordinates are n-wide by construction
                .expect("vertex cloud is non-empty") // dwv-lint: allow(panic-freedom) -- the box vertex enumeration is non-empty
        })
        .collect()
}

fn instant_polygon(vertices: &[Vec<f64>], n: usize) -> Option<ConvexPolygon> {
    if n == 2 {
        // dwv-lint: allow(panic-freedom#index) -- guarded by n == 2
        ConvexPolygon::from_points(vertices.iter().map(|v| Vec2::new(v[0], v[1])).collect()).ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwv_dynamics::acc;
    use dwv_dynamics::simulate::Simulator;
    use dwv_dynamics::Controller;

    fn stable_gain() -> LinearController {
        // Equilibrium at (150, 40): 150a + 40b = 8.
        LinearController::new(2, 1, vec![0.5867, -2.0])
    }

    #[test]
    fn reach_contains_simulated_boundary_states() {
        let p = acc::reach_avoid_problem();
        let v = LinearReach::for_problem(&p).unwrap();
        let k = stable_gain();
        let fp = v.reach(&k).unwrap();
        // Simulate several initial corners/centers; sampled states must lie
        // inside the per-step enclosures (discretization differences between
        // the exact ZOH map and RK4 are ~1e-10).
        let sim = Simulator::new(p.dynamics.clone(), p.delta);
        for x0 in [[122.0, 48.0], [124.0, 52.0], [123.0, 50.0], [122.5, 51.0]] {
            let traj = sim.rollout(&x0, &k, p.horizon_steps);
            for (t, x) in traj.states.iter().enumerate() {
                let enc = &fp.steps()[t].enclosure.inflate(1e-6);
                assert!(
                    enc.contains_point(x),
                    "t={t}: state {x:?} outside enclosure {enc}"
                );
            }
        }
    }

    #[test]
    fn polygon_area_contracts_for_stable_loop() {
        let p = acc::reach_avoid_problem();
        let v = LinearReach::for_problem(&p).unwrap();
        let fp = v.reach(&stable_gain()).unwrap();
        let first = fp.steps()[0].polygon.as_ref().unwrap().area();
        let last = fp.final_step().polygon.as_ref().unwrap().area();
        assert!(
            last < first,
            "stable loop should contract: {first} -> {last}"
        );
    }

    #[test]
    fn instability_detected_or_finite() {
        // A destabilizing gain: positive feedback on v.
        let p = acc::reach_avoid_problem();
        let v = LinearReach::for_problem(&p).unwrap();
        let k = LinearController::new(2, 1, vec![0.0, 500.0]);
        match v.reach(&k) {
            Ok(fp) => {
                // Blow-up without overflow: the final box must be enormous.
                assert!(fp.final_step().enclosure.volume() > 1e12);
            }
            Err(ReachError::Diverged { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn zero_steps_is_initial_set_only() {
        let p = acc::reach_avoid_problem();
        let mut v = LinearReach::for_problem(&p).unwrap();
        v.steps = 0;
        let fp = v.reach(&stable_gain()).unwrap();
        assert_eq!(fp.len(), 1);
        assert!(fp.steps()[0].enclosure.contains(&p.x0));
    }

    #[test]
    fn nonlinear_system_rejected() {
        let p = dwv_dynamics::oscillator::reach_avoid_problem();
        assert!(matches!(
            LinearReach::for_problem(&p),
            Err(ReachError::Unsupported(_))
        ));
    }

    #[test]
    fn closed_loop_matrix_matches_manual_computation() {
        let p = acc::reach_avoid_problem();
        let v = LinearReach::for_problem(&p).unwrap();
        let k = stable_gain();
        let m = v.closed_loop_matrix(&k);
        // M = Ad + Bd*K elementwise.
        for i in 0..2 {
            for j in 0..2 {
                let manual = v.ad.get(i, j) + v.bd.get(i, 0) * k.params()[j];
                assert!((m.get(i, j) - manual).abs() < 1e-14);
            }
        }
    }
}
