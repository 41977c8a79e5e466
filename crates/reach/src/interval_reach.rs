//! Directed interval / mixed-monotone box reachability — the cheap tier of
//! the verifier portfolio (Jafarpour–Harapanahalli–Coogan style
//! interval-analysis reachability, arXiv:2301.07912).
//!
//! Each control step holds the input constant (zero-order hold), bounds the
//! controller's output over the current state box with the controller's own
//! [`ControlEnclosure`], and then encloses the continuous flow with a
//! two-phase validated step:
//!
//! 1. **A-priori enclosure.** A box `B` with `X + [0,δ]·F(B, U) ⊆ B` is
//!    found by inflation-and-recheck (the Picard–Lindelöf a-priori
//!    enclosure lemma); the resulting sweep box `X + [0,δ]·F(B, U)`
//!    contains every trajectory point over the whole step.
//! 2. **End tightening.** The instantaneous set at `t = δ` is enclosed by
//!    the first-order Taylor expansion with a rigorous Lagrange remainder,
//!    `X + δ·F(X, U) + (δ²/2)·(J_x f · f)(B, U)`, intersected with the
//!    sweep box.
//!
//! Where the interval Jacobian of a field component has stable sign over
//! the evaluation box, the component's range is computed by
//! **mixed-monotone corner evaluation** (two point evaluations instead of
//! one interval extension — tight for monotone dynamics such as the ACC
//! benchmark); components with indefinite Jacobian entries fall back to the
//! plain interval extension. Both paths run entirely in the outward-rounded
//! `dwv-interval` primitives, so every enclosure is sound.
//!
//! The backend never proves unsafety: a blown-up enclosure returns
//! [`ReachError::Diverged`], which the portfolio treats as "escalate", not
//! as a verdict.

use crate::error::ReachError;
use crate::flowpipe::{Flowpipe, StepEnclosure};
use crate::verifier::{ControlEnclosure, CostClass, Verifier};
use dwv_dynamics::ReachAvoidProblem;
use dwv_interval::{Interval, IntervalBox};
use dwv_poly::Polynomial;
use dwv_taylor::{FlowpipeError, OdeRhs};

/// Inflation attempts before a step is declared diverged.
const MAX_APRIORI_ITERS: usize = 24;

/// Interval/mixed-monotone box-propagation verifier.
///
/// Works for any polynomial dynamics and any controller implementing
/// [`ControlEnclosure`] (linear gains and neural networks both do).
///
/// # Example
///
/// ```
/// use dwv_reach::IntervalReach;
/// use dwv_dynamics::{acc, LinearController};
///
/// let problem = acc::reach_avoid_problem();
/// let verifier = IntervalReach::for_problem(&problem);
/// let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
/// let fp = verifier.reach(&k).expect("stable closed loop encloses");
/// assert_eq!(fp.len(), problem.horizon_steps + 1);
/// ```
#[derive(Debug, Clone)]
pub struct IntervalReach {
    rhs: OdeRhs,
    /// `jac[i][v]` = ∂f_i/∂v over all state *and* input variables — the
    /// sign-structure source for mixed-monotone corner evaluation.
    jac: Vec<Vec<Polynomial>>,
    /// `second[i]` = Σ_j (∂f_i/∂x_j)·f_j — the Lagrange-remainder field of
    /// the first-order Taylor step.
    second: Vec<Polynomial>,
    x0: IntervalBox,
    delta: f64,
    steps: usize,
    max_width: f64,
}

impl IntervalReach {
    /// Builds the verifier for a problem (any polynomial dynamics).
    #[must_use]
    pub fn for_problem(problem: &ReachAvoidProblem) -> Self {
        let rhs = problem.dynamics.vector_field();
        // Divergence guard: once a step's sweep box is wider than a few
        // universe diagonals the enclosure carries no information; computed
        // with Interval arithmetic so the bound itself is directed.
        let diag = problem
            .universe
            .intervals()
            .iter()
            .map(|iv| Interval::point(iv.width()).sqr())
            .sum::<Interval>()
            .sqrt(); // dwv-lint: allow(float-hygiene) -- Interval::sqrt of the directed diagonal enclosure, not f64
        let max_width = (diag * 8.0 + Interval::point(1.0)).hi();
        Self::new(
            rhs,
            problem.x0.clone(),
            problem.delta,
            problem.horizon_steps,
            max_width,
        )
    }

    /// Builds the verifier from an explicit polynomial vector field.
    #[must_use]
    pub fn new(rhs: OdeRhs, x0: IntervalBox, delta: f64, steps: usize, max_width: f64) -> Self {
        let n = rhs.n_state();
        let nvars = n + rhs.n_input();
        let jac: Vec<Vec<Polynomial>> = rhs
            .field()
            .iter()
            .map(|f| (0..nvars).map(|v| f.partial_derivative(v)).collect())
            .collect();
        let second: Vec<Polynomial> = jac
            .iter()
            .map(|row| {
                row.iter().take(n).zip(rhs.field()).fold(
                    Polynomial::constant(nvars, 0.0),
                    |acc, (dij, fj)| {
                        acc + dij.clone() * fj.clone() // dwv-lint: allow(float-hygiene) -- Polynomial operator algebra building the remainder field at construction time
                    },
                )
            })
            .collect();
        Self {
            rhs,
            jac,
            second,
            x0,
            delta,
            steps,
            max_width,
        }
    }

    /// Replaces the initial set (the Algorithm 2 per-cell entry point).
    #[must_use]
    pub fn with_initial_set(mut self, x0: IntervalBox) -> Self {
        self.x0 = x0;
        self
    }

    /// Replaces the divergence-guard width.
    #[must_use]
    pub fn with_max_width(mut self, w: f64) -> Self {
        self.max_width = w;
        self
    }

    /// Computes the flowpipe from the configured initial set.
    ///
    /// # Errors
    ///
    /// [`ReachError::Diverged`] when a step's a-priori enclosure fails to
    /// validate or the sweep box exceeds the divergence-guard width;
    /// [`ReachError::Unsupported`] on dimension mismatches and for a
    /// controller with a NaN or infinite parameter.
    pub fn reach<C: ControlEnclosure + ?Sized>(
        &self,
        controller: &C,
    ) -> Result<Flowpipe, ReachError> {
        self.reach_from(&self.x0, controller)
    }

    /// Computes the flowpipe from an explicit initial cell.
    ///
    /// # Errors
    ///
    /// As for [`IntervalReach::reach`].
    pub fn reach_from<C: ControlEnclosure + ?Sized>(
        &self,
        x0: &IntervalBox,
        controller: &C,
    ) -> Result<Flowpipe, ReachError> {
        let n = self.rhs.n_state();
        let m = self.rhs.n_input();
        if x0.dim() != n || controller.n_state() != n || controller.n_input() != m {
            return Err(ReachError::Unsupported(format!(
                "interval backend: dimension mismatch (field {n}+{m}, x0 {}, controller {}->{})",
                x0.dim(),
                controller.n_state(),
                controller.n_input(),
            )));
        }
        crate::verifier::require_finite_params(controller)?;
        // Same entry-span name as every other backend, so trace analytics
        // (critical path, attribution) see one uniform `reach.run`.
        let _s = dwv_obs::span("reach.run");
        let mut steps = Vec::with_capacity(self.steps + 1);
        steps.push(StepEnclosure {
            t0: 0.0,
            t1: 0.0,
            enclosure: x0.clone(),
            end_box: x0.clone(),
            polygon: None,
        });
        let mut x = x0.clone();
        let mut t0 = 0.0f64;
        for k in 0..self.steps {
            let u = controller.control_enclosure(x.intervals());
            let diverged = |w: f64| ReachError::Diverged {
                step: k,
                source: FlowpipeError::Diverged { last_radius: w },
            };
            let (sweep, end) = self.flow_step(&x, &u, controller).map_err(diverged)?;
            let width = sweep
                .intervals()
                .iter()
                .map(Interval::width)
                .fold(0.0, f64::max);
            if !end.is_finite() || width > self.max_width {
                return Err(diverged(width));
            }
            let t1 = t0 + self.delta; // dwv-lint: allow(float-hygiene) -- step timestamps are display metadata, not enclosure arithmetic
            steps.push(StepEnclosure {
                t0,
                t1,
                enclosure: sweep,
                end_box: end.clone(),
                polygon: None,
            });
            x = end;
            t0 = t1;
        }
        if dwv_obs::enabled() {
            dwv_obs::counter("reach.interval_steps").add(self.steps as u64);
        }
        Ok(Flowpipe::new(steps))
    }

    /// One validated zero-order-hold step: returns `(sweep box, end box)`
    /// or the last candidate width when no a-priori enclosure validates.
    fn flow_step<C: ControlEnclosure + ?Sized>(
        &self,
        x: &IntervalBox,
        u: &[Interval],
        controller: &C,
    ) -> Result<(IntervalBox, IntervalBox), f64> {
        let dt = Interval::new(0.0, self.delta);
        let d = Interval::point(self.delta);
        let mut xu: Vec<Interval> = x.intervals().to_vec();
        xu.extend_from_slice(u);

        // Phase 1: a-priori enclosure by inflation and recheck. The
        // candidate starts from one coarse Euler sweep of the start box and
        // is widened until `X + [0,δ]·F(B,U) ⊆ B` holds. Only the final
        // containment matters for soundness; the inflation schedule is a
        // heuristic.
        let f_x = self.eval_field(&xu);
        let mut b: Vec<Interval> = x
            .intervals()
            .iter()
            .zip(&f_x)
            .map(|(xi, fi)| (*xi + dt * *fi).inflate(widen_pad(fi)))
            .collect();
        let mut validated: Option<(Vec<Interval>, Vec<Interval>)> = None;
        for _ in 0..MAX_APRIORI_ITERS {
            let mut bu = b.clone();
            bu.extend_from_slice(u);
            let f_b: Vec<Interval> = self
                .rhs
                .field()
                .iter()
                .map(|f| f.eval_interval(&bu))
                .collect();
            let cand: Vec<Interval> = x
                .intervals()
                .iter()
                .zip(&f_b)
                .map(|(xi, fi)| *xi + dt * *fi)
                .collect();
            if cand.iter().zip(&b).all(|(c, bi)| bi.contains(c)) {
                // `B` validates, and the recomputed sweep `X + [0,δ]·F(B,U)`
                // is the tighter trajectory enclosure over the step.
                validated = Some((b.clone(), cand));
                break;
            }
            b = cand
                .iter()
                .zip(&b)
                .map(|(c, bi)| c.hull(bi).inflate(widen_pad(c)))
                .collect();
        }
        let Some((b, sweep)) = validated else {
            return Err(b.iter().map(Interval::width).fold(0.0, f64::max));
        };

        // Phase 2: the instantaneous set at t = δ, as the intersection of
        // three independent sound enclosures.
        //
        // Per trajectory, `x(δ) = φ(x0) + (δ²/2)·ẍ(ξ)` with the one-step
        // map `φ(x) = x + δ·f(x, κ(x))` and `ẍ(ξ) = g(x(ξ), u0)` for some
        // `ξ ∈ [0, δ]`, `x(ξ) ∈ B`. The Lagrange remainder is therefore the
        // shared box term `rem = (δ²/2)·g(B, U)`.
        let mut bu: Vec<Interval> = b;
        bu.extend_from_slice(u);
        let half_d2 = d * d * 0.5;
        let rem: Vec<Interval> = self
            .second
            .iter()
            .map(|g| half_d2 * g.eval_interval(&bu))
            .collect();

        // (a) Decoupled Taylor end: `X + δ·F(X, U) + rem` with the
        // mixed-monotone tight field range. Cheap but treats the control
        // box as independent of the state.
        let taylor_end: Vec<Interval> = x
            .intervals()
            .iter()
            .zip(f_x.iter().zip(&rem))
            .map(|(xi, (fi, r))| *xi + d * *fi + *r)
            .collect();

        // (b) Mean-value end: `φ(c) + J_φ(X)·(X − c) + rem` with the
        // *closed-loop* Jacobian `J_φ = I + δ·(∂f/∂x + ∂f/∂u · ∂κ/∂x)`.
        // This is the enclosure that keeps the state–control correlation:
        // a stabilized loop has `ρ(|J_φ|) ≈ 1`, so widths stay bounded
        // where the decoupled form inflates at the open-loop rate. Sound by
        // the componentwise (Clarke, for ReLU kinks) mean-value theorem:
        // the interval Jacobians enclose every generalized derivative on
        // the segment from `c` to any `x ∈ X`.
        let c: Vec<Interval> = x
            .intervals()
            .iter()
            .map(|xi| Interval::point(xi.mid()))
            .collect();
        let u_c = controller.control_enclosure(&c);
        let mut cu = c.clone();
        cu.extend_from_slice(&u_c);
        let f_c: Vec<Interval> = self
            .rhs
            .field()
            .iter()
            .map(|f| f.eval_interval(&cu))
            .collect();
        let j_k = controller.control_jacobian(x.intervals());
        let dev: Vec<Interval> = x
            .intervals()
            .iter()
            .zip(&c)
            .map(|(xi, ci)| *xi - *ci)
            .collect();
        let n = x.dim();
        let mv_end: Vec<Interval> = (0..n)
            .map(|i| {
                let jac_row = self.jac.get(i);
                let fc = f_c.get(i).copied().unwrap_or(Interval::ENTIRE);
                let ci = c.get(i).copied().unwrap_or(Interval::ENTIRE);
                let ri = rem.get(i).copied().unwrap_or(Interval::ENTIRE);
                // `J_φ[i][k] = δ_ik + δ·J_cl[i][k]` must be formed *before*
                // multiplying by the deviation: a stabilizing feedback makes
                // |1 + δ·J_cl| < 1, which separate `dev + δ·J·dev` terms
                // (widths add, never cancel) would destroy.
                let spread = (0..n).fold(Interval::ZERO, |acc, kk| {
                    let dfx = jac_row
                        .and_then(|row| row.get(kk))
                        .map_or(Interval::ENTIRE, |p| p.eval_interval(&xu));
                    let dfu = j_k.iter().enumerate().fold(Interval::ZERO, |a, (l, jrow)| {
                        let dful = jac_row
                            .and_then(|row| row.get(n + l))
                            .map_or(Interval::ENTIRE, |p| p.eval_interval(&xu));
                        let dkl = jrow.get(kk).copied().unwrap_or(Interval::ENTIRE);
                        a + dful * dkl // dwv-lint: allow(float-hygiene) -- Interval operator arithmetic (outward-rounded)
                    });
                    let ident = if kk == i {
                        Interval::point(1.0)
                    } else {
                        Interval::ZERO
                    };
                    let devk = dev.get(kk).copied().unwrap_or(Interval::ENTIRE);
                    acc + (ident + d * (dfx + dfu)) * devk // dwv-lint: allow(float-hygiene) -- Interval operator arithmetic (outward-rounded)
                });
                ci + d * fc + spread + ri // dwv-lint: allow(float-hygiene) -- Interval operator arithmetic (outward-rounded)
            })
            .collect();

        // Intersect (a), (b), and the sweep — all three enclose the true
        // set, so their intersection does too (an empty pairwise
        // intersection is impossible for sound enclosures of a non-empty
        // set; `unwrap_or` keeps the wider box if rounding ever disagrees).
        let end: Vec<Interval> = taylor_end
            .iter()
            .zip(mv_end.iter().zip(&sweep))
            .map(|(te, (mv, si))| {
                let e = te.intersection(mv).unwrap_or(*te);
                e.intersection(si).unwrap_or(e)
            })
            .collect();
        Ok((IntervalBox::new(sweep), IntervalBox::new(end)))
    }

    /// The field's range over a joint `(x, u)` box, component by component:
    /// mixed-monotone corner evaluation where the interval Jacobian row has
    /// stable signs, plain interval extension otherwise.
    fn eval_field(&self, z: &[Interval]) -> Vec<Interval> {
        self.rhs
            .field()
            .iter()
            .zip(&self.jac)
            .map(|(f, jac_row)| tight_range(f, jac_row, z))
            .collect()
    }
}

/// Inflation pad for the a-priori iteration: a small absolute floor plus a
/// few percent of the candidate's width (heuristic only — soundness comes
/// from the containment recheck).
fn widen_pad(c: &Interval) -> f64 {
    (Interval::point(c.width()) * 0.04 + Interval::point(1e-12)).hi()
}

/// Range of one polynomial component over `z`: two corner evaluations when
/// every partial derivative has stable sign over `z` (the mixed-monotone
/// decomposition degenerates to coordinatewise monotonicity), else the
/// plain interval extension.
fn tight_range(f: &Polynomial, jac_row: &[Polynomial], z: &[Interval]) -> Interval {
    let mut lower = Vec::with_capacity(z.len());
    let mut upper = Vec::with_capacity(z.len());
    for (dk, zk) in jac_row.iter().zip(z) {
        if zk.is_point() {
            lower.push(*zk);
            upper.push(*zk);
            continue;
        }
        let s = dk.eval_interval(z);
        if s.lo() >= 0.0 {
            lower.push(Interval::point(zk.lo()));
            upper.push(Interval::point(zk.hi()));
        } else if s.hi() <= 0.0 {
            lower.push(Interval::point(zk.hi()));
            upper.push(Interval::point(zk.lo()));
        } else {
            return f.eval_interval(z);
        }
    }
    // The true extrema sit at the two selected corners; the outward-rounded
    // point evaluations bracket them. A NaN endpoint (overflowing field)
    // widens to the sound ENTIRE, which the divergence guard then rejects.
    let lo = f.eval_interval(&lower).lo();
    let hi = f.eval_interval(&upper).hi();
    Interval::try_new(lo, hi).unwrap_or(Interval::ENTIRE)
}

impl<C: ControlEnclosure + Sync> Verifier<C> for IntervalReach {
    fn name(&self) -> &'static str {
        "interval"
    }

    fn cost_class(&self) -> CostClass {
        CostClass::Interval
    }

    fn reach(&self, controller: &C) -> Result<Flowpipe, ReachError> {
        IntervalReach::reach(self, controller)
    }

    fn reach_from(&self, x0: &IntervalBox, controller: &C) -> Result<Flowpipe, ReachError> {
        IntervalReach::reach_from(self, x0, controller)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwv_dynamics::{acc, oscillator, Controller, LinearController, NnController};
    use dwv_nn::{Activation, Network};

    /// RK4 oracle points must land inside every step's sweep and end box.
    fn assert_flowpipe_contains_rollouts<C: Controller + ?Sized>(
        problem: &ReachAvoidProblem,
        fp: &Flowpipe,
        controller: &C,
    ) {
        let sim = dwv_dynamics::simulate::Simulator::with_substeps(
            std::sync::Arc::clone(&problem.dynamics),
            problem.delta,
            32,
        );
        for start in problem.x0.corners() {
            let traj = sim.rollout(&start, controller, problem.horizon_steps);
            for (k, state) in traj.states.iter().enumerate() {
                let step = &fp.steps()[k];
                assert!(
                    step.end_box.inflate(1e-6).contains_point(state),
                    "step {k}: state {state:?} escapes end box {:?}",
                    step.end_box
                );
            }
        }
    }

    #[test]
    fn acc_linear_enclosure_is_sound() {
        let problem = acc::reach_avoid_problem();
        let v = IntervalReach::for_problem(&problem);
        let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
        let fp = v.reach(&k).expect("stable loop encloses");
        assert_eq!(fp.len(), problem.horizon_steps + 1);
        assert_flowpipe_contains_rollouts(&problem, &fp, &k);
    }

    #[test]
    fn oscillator_nn_enclosure_is_sound_over_short_horizon() {
        let mut problem = oscillator::reach_avoid_problem();
        problem.horizon_steps = 5;
        let v = IntervalReach::for_problem(&problem);
        let ctrl = NnController::new(Network::new(
            &[2, 8, 1],
            Activation::ReLU,
            Activation::Tanh,
            3,
        ));
        match v.reach(&ctrl) {
            Ok(fp) => {
                assert_eq!(fp.len(), problem.horizon_steps + 1);
                assert_flowpipe_contains_rollouts(&problem, &fp, &ctrl);
            }
            // Refusing to enclose is sound for the cheap tier.
            Err(ReachError::Diverged { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn unstable_loop_reports_divergence() {
        let problem = acc::reach_avoid_problem();
        let v = IntervalReach::for_problem(&problem).with_max_width(10.0);
        // Positive feedback on both states: exponential blow-up.
        let k = LinearController::new(2, 1, vec![50.0, 50.0]);
        assert!(matches!(v.reach(&k), Err(ReachError::Diverged { .. })));
    }

    #[test]
    fn dimension_mismatch_is_unsupported() {
        let problem = acc::reach_avoid_problem();
        let v = IntervalReach::for_problem(&problem);
        let k = LinearController::new(3, 1, vec![0.0, 0.0, 0.0]);
        assert!(matches!(v.reach(&k), Err(ReachError::Unsupported(_))));
    }

    #[test]
    fn reach_from_cell_matches_reach_with_that_initial_set() {
        let problem = acc::reach_avoid_problem();
        let cell = problem.x0.scale_about_center(0.5);
        let v = IntervalReach::for_problem(&problem);
        let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
        let a = v.reach_from(&cell, &k).expect("encloses");
        let b = v
            .clone()
            .with_initial_set(cell)
            .reach(&k)
            .expect("encloses");
        assert_eq!(a, b, "reach_from must be bit-identical to with_initial_set");
    }

    #[test]
    fn mixed_monotone_is_no_looser_than_plain_extension() {
        // On the affine ACC field every Jacobian entry is constant, so the
        // corner evaluation applies to every component; its range must be
        // contained in the plain interval extension's.
        let problem = acc::reach_avoid_problem();
        let v = IntervalReach::for_problem(&problem);
        let mut z: Vec<Interval> = problem.x0.intervals().to_vec();
        z.push(Interval::new(-1.0, 2.0));
        for (f, row) in v.rhs.field().iter().zip(&v.jac) {
            let tight = tight_range(f, row, &z);
            let plain = f.eval_interval(&z);
            assert!(
                plain.contains(&tight),
                "corner range {tight} not within plain extension {plain}"
            );
        }
    }
}
