//! Dynamics and controller abstractions, and the reach-avoid problem tuple.

use crate::linalg::Matrix;
use crate::simulate::{Lanes, LANES};
use dwv_geom::Region;
use dwv_interval::IntervalBox;
use dwv_nn::Network;
use dwv_taylor::OdeRhs;
use std::fmt;
use std::sync::Arc;

/// A continuous control system `ẋ = f(x, u)` (Eq. 1 of the paper).
///
/// All benchmark systems have polynomial vector fields, which
/// [`Dynamics::vector_field`] exposes for the Taylor-model verifier; linear
/// (affine) systems additionally expose their `(A, B, c)` parts for the exact
/// linear verifier.
pub trait Dynamics: Send + Sync {
    /// A short human-readable name ("acc", "oscillator", …).
    fn name(&self) -> &str;

    /// State dimension `n`.
    fn n_state(&self) -> usize;

    /// Input dimension `m`.
    fn n_input(&self) -> usize;

    /// The derivative `f(x, u)`.
    fn deriv(&self, x: &[f64], u: &[f64]) -> Vec<f64>;

    /// Writes `f(x, u)` into a reused buffer (cleared first).
    ///
    /// The default delegates to [`Dynamics::deriv`]; benchmark systems
    /// override it to skip the per-call allocation, which dominates the
    /// Monte-Carlo rate estimation (500 rollouts × thousands of RK4 stages).
    /// Overrides must be bit-identical to `deriv`.
    fn deriv_into(&self, x: &[f64], u: &[f64], out: &mut Vec<f64>) {
        let d = self.deriv(x, u);
        out.clear();
        out.extend_from_slice(&d);
    }

    /// Writes `f(x, u)` for every lane of a lockstep batch (component
    /// major: `x[i][l]` is state component `i` of lane `l`; `out` has one
    /// entry per state component).
    ///
    /// The default gathers each lane and calls [`Dynamics::deriv_into`];
    /// benchmark systems override it with lane loops over the expressions
    /// of `deriv`, which is what lets [`crate::simulate::Simulator::rollout_lanes`]
    /// overlap the lanes' arithmetic. Overrides must be bit-identical to
    /// `deriv` in every lane.
    fn deriv_lanes(&self, x: &[Lanes], u: &[Lanes], out: &mut [Lanes]) {
        let mut xl = Vec::with_capacity(x.len());
        let mut ul = Vec::with_capacity(u.len());
        let mut d = Vec::with_capacity(out.len());
        for l in 0..LANES {
            xl.clear();
            xl.extend(x.iter().map(|c| c[l]));
            ul.clear();
            ul.extend(u.iter().map(|c| c[l]));
            self.deriv_into(&xl, &ul, &mut d);
            for (o, v) in out.iter_mut().zip(&d) {
                o[l] = *v;
            }
        }
    }

    /// The polynomial vector field in `(x, u)` variables.
    fn vector_field(&self) -> OdeRhs;

    /// For affine systems `ẋ = Ax + Bu + c`: the `(A, B, c)` triple.
    /// `None` for genuinely non-linear systems.
    fn linear_parts(&self) -> Option<(Matrix, Matrix, Vec<f64>)> {
        None
    }
}

/// A state-feedback controller `u = κ_θ(x)` with a flat parameter vector `θ`.
pub trait Controller {
    /// Expected state dimension.
    fn n_state(&self) -> usize;

    /// Produced input dimension.
    fn n_input(&self) -> usize;

    /// Computes the control input for a state.
    fn control(&self, x: &[f64]) -> Vec<f64>;

    /// Writes the control input into a reused buffer (cleared first).
    ///
    /// The default delegates to [`Controller::control`]; implementations may
    /// override it to avoid the per-call allocation. Overrides must be
    /// bit-identical to `control`.
    fn control_into(&self, x: &[f64], out: &mut Vec<f64>) {
        let u = self.control(x);
        out.clear();
        out.extend_from_slice(&u);
    }

    /// The flat parameter vector `θ`.
    fn params(&self) -> Vec<f64>;

    /// Overwrites `θ`.
    ///
    /// # Panics
    ///
    /// Panics if `theta.len()` differs from `params().len()`.
    fn set_params(&mut self, theta: &[f64]);
}

/// A linear state-feedback controller `u = Θ x` (`Θ ∈ R^{m×n}`, row-major).
///
/// # Example
///
/// ```
/// use dwv_dynamics::{Controller, LinearController};
///
/// let k = LinearController::new(2, 1, vec![0.5, -1.0]);
/// assert_eq!(k.control(&[2.0, 1.0]), vec![0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearController {
    n_state: usize,
    n_input: usize,
    gains: Vec<f64>,
}

impl LinearController {
    /// Creates a controller from row-major gains.
    ///
    /// # Panics
    ///
    /// Panics if `gains.len() != n_state * n_input`.
    #[must_use]
    pub fn new(n_state: usize, n_input: usize, gains: Vec<f64>) -> Self {
        assert_eq!(gains.len(), n_state * n_input, "gain matrix size mismatch");
        Self {
            n_state,
            n_input,
            gains,
        }
    }

    /// The zero controller.
    #[must_use]
    pub fn zeros(n_state: usize, n_input: usize) -> Self {
        Self::new(n_state, n_input, vec![0.0; n_state * n_input])
    }

    /// The gain matrix, row-major `[input][state]`.
    #[must_use]
    pub fn gains(&self) -> &[f64] {
        &self.gains
    }

    /// The gain from state `j` to input `i`.
    #[must_use]
    pub fn gain(&self, i: usize, j: usize) -> f64 {
        self.gains[i * self.n_state + j]
    }
}

impl Controller for LinearController {
    fn n_state(&self) -> usize {
        self.n_state
    }

    fn n_input(&self) -> usize {
        self.n_input
    }

    fn control(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_state, "state dimension mismatch");
        (0..self.n_input)
            .map(|i| (0..self.n_state).map(|j| self.gain(i, j) * x[j]).sum())
            .collect()
    }

    fn control_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.n_state, "state dimension mismatch");
        out.clear();
        out.extend((0..self.n_input).map(|i| {
            (0..self.n_state)
                .map(|j| self.gain(i, j) * x[j])
                .sum::<f64>()
        }));
    }

    fn params(&self) -> Vec<f64> {
        self.gains.clone()
    }

    fn set_params(&mut self, theta: &[f64]) {
        assert_eq!(theta.len(), self.gains.len(), "parameter count mismatch");
        self.gains.copy_from_slice(theta);
    }
}

/// A neural-network controller wrapping a [`Network`].
///
/// An optional output scale multiplies the (Tanh-bounded) network output so
/// controllers can produce inputs outside `[-1, 1]` — the ACC system, for
/// example, needs braking forces of magnitude ≈ 10.
#[derive(Debug, Clone, PartialEq)]
pub struct NnController {
    net: Network,
    output_scale: f64,
}

impl NnController {
    /// Wraps a network with unit output scale.
    #[must_use]
    pub fn new(net: Network) -> Self {
        Self {
            net,
            output_scale: 1.0,
        }
    }

    /// Wraps a network with an output scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0`.
    #[must_use]
    pub fn with_output_scale(net: Network, scale: f64) -> Self {
        assert!(scale > 0.0, "output scale must be positive");
        Self {
            net,
            output_scale: scale,
        }
    }

    /// The wrapped network.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the wrapped network (for baseline training).
    #[must_use]
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// The output scale.
    #[must_use]
    pub fn output_scale(&self) -> f64 {
        self.output_scale
    }
}

impl Controller for NnController {
    fn n_state(&self) -> usize {
        self.net.in_dim()
    }

    fn n_input(&self) -> usize {
        self.net.out_dim()
    }

    fn control(&self, x: &[f64]) -> Vec<f64> {
        self.net
            .forward(x)
            .into_iter()
            .map(|v| v * self.output_scale)
            .collect()
    }

    fn params(&self) -> Vec<f64> {
        self.net.params()
    }

    fn set_params(&mut self, theta: &[f64]) {
        self.net.set_params(theta);
    }
}

/// The reach-avoid control problem of Problem 1: the system tuple
/// `(X, U, f, κ_θ, X₀, δ)` plus the property sets `X_u`, `X_g` and horizon
/// `T = horizon_steps · δ`.
#[derive(Clone)]
pub struct ReachAvoidProblem {
    /// The continuous dynamics `f`.
    pub dynamics: Arc<dyn Dynamics>,
    /// The initial set `X₀`.
    pub x0: IntervalBox,
    /// The unsafe region `X_u`.
    pub unsafe_region: Region,
    /// The goal region `X_g`.
    pub goal_region: Region,
    /// The sampling (control) period `δ`.
    pub delta: f64,
    /// The number of control steps in the horizon (`T = horizon_steps · δ`).
    pub horizon_steps: usize,
    /// A bounding box of the relevant state space, used to clip unbounded
    /// regions before measuring intersections (see `dwv_geom::Region`).
    pub universe: IntervalBox,
}

impl ReachAvoidProblem {
    /// The state dimension.
    #[must_use]
    pub fn n_state(&self) -> usize {
        self.dynamics.n_state()
    }

    /// The input dimension.
    #[must_use]
    pub fn n_input(&self) -> usize {
        self.dynamics.n_input()
    }

    /// The continuous horizon `T`.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        self.delta * self.horizon_steps as f64
    }
}

impl fmt::Debug for ReachAvoidProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReachAvoidProblem")
            .field("dynamics", &self.dynamics.name())
            .field("x0", &self.x0)
            .field("delta", &self.delta)
            .field("horizon_steps", &self.horizon_steps)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwv_nn::Activation;

    #[test]
    fn linear_controller_control_law() {
        let k = LinearController::new(3, 2, vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.0]);
        let u = k.control(&[2.0, 4.0, 6.0]);
        assert_eq!(u, vec![2.0 - 6.0, 1.0 + 2.0]);
        assert_eq!(k.gain(1, 0), 0.5);
    }

    #[test]
    fn linear_controller_params_roundtrip() {
        let mut k = LinearController::zeros(2, 1);
        k.set_params(&[3.0, -4.0]);
        assert_eq!(k.params(), vec![3.0, -4.0]);
        assert_eq!(k.control(&[1.0, 1.0]), vec![-1.0]);
    }

    #[test]
    fn nn_controller_scale() {
        let net = Network::new(&[2, 4, 1], Activation::ReLU, Activation::Tanh, 1);
        let c = NnController::with_output_scale(net.clone(), 10.0);
        let raw = net.forward(&[0.3, 0.3])[0];
        assert!((c.control(&[0.3, 0.3])[0] - 10.0 * raw).abs() < 1e-12);
        assert_eq!(c.n_state(), 2);
        assert_eq!(c.n_input(), 1);
    }

    #[test]
    fn nn_controller_params_passthrough() {
        let net = Network::new(&[2, 3, 1], Activation::ReLU, Activation::Tanh, 5);
        let mut c = NnController::new(net);
        let mut p = c.params();
        p[0] += 1.0;
        c.set_params(&p);
        assert_eq!(c.params()[0], p[0]);
    }
}
