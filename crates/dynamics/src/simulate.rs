//! Closed-loop simulation with zero-order-hold control.

use crate::system::{Controller, Dynamics};
use std::sync::Arc;

/// Number of rollouts [`Simulator::rollout_lanes`] steps in lockstep.
///
/// Eight independent RK4 dependency chains are enough to keep the
/// floating-point pipelines busy, and one component of a batch fills a
/// 64-byte cache line.
pub const LANES: usize = 8;

/// One state (or input) component across the [`LANES`] rollouts of a
/// lockstep batch: `x[i][l]` is component `i` of rollout `l`.
pub type Lanes = [f64; LANES];

/// A simulated closed-loop trajectory.
///
/// `states[k]` is the state at control boundary `t = k·δ`;
/// `fine_states` additionally records every RK4 sub-step (used for safety
/// checks, which per Definition 1 must hold for *all* `t`, not only at
/// sampling instants). `inputs[k]` is the input held during `[kδ, (k+1)δ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// States at control boundaries (length = steps + 1).
    pub states: Vec<Vec<f64>>,
    /// Held inputs per control period (length = steps).
    pub inputs: Vec<Vec<f64>>,
    /// All integrator sub-step states, including the boundaries.
    pub fine_states: Vec<Vec<f64>>,
}

/// Scratch buffers for allocation-free RK4 stepping.
///
/// One set of buffers serves an entire rollout (and can be reused across
/// rollouts); [`Simulator::rk4_step_into`] fills the four stage slopes and
/// the intermediate stage state here instead of allocating five vectors per
/// sub-step.
#[derive(Debug, Clone, Default)]
pub struct Rk4Buffers {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    xt: Vec<f64>,
}

impl Rk4Buffers {
    /// Creates buffers sized for an `n`-dimensional state.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            k1: Vec::with_capacity(n),
            k2: Vec::with_capacity(n),
            k3: Vec::with_capacity(n),
            k4: Vec::with_capacity(n),
            xt: Vec::with_capacity(n),
        }
    }
}

/// RK4 closed-loop simulator with zero-order hold.
///
/// # Example
///
/// ```
/// use dwv_dynamics::{acc, LinearController, simulate::Simulator};
///
/// let p = acc::reach_avoid_problem();
/// let sim = Simulator::new(p.dynamics.clone(), p.delta);
/// let k = LinearController::new(2, 1, vec![0.1, -1.0]);
/// let traj = sim.rollout(&[123.0, 50.0], &k, 10);
/// assert_eq!(traj.states.len(), 11);
/// assert_eq!(traj.inputs.len(), 10);
/// ```
#[derive(Clone)]
pub struct Simulator {
    dynamics: Arc<dyn Dynamics>,
    delta: f64,
    substeps: usize,
}

impl Simulator {
    /// Creates a simulator with the default 10 RK4 sub-steps per control
    /// period.
    ///
    /// # Panics
    ///
    /// Panics if `delta <= 0`.
    #[must_use]
    pub fn new(dynamics: Arc<dyn Dynamics>, delta: f64) -> Self {
        Self::with_substeps(dynamics, delta, 10)
    }

    /// Creates a simulator with an explicit sub-step count.
    ///
    /// # Panics
    ///
    /// Panics if `delta <= 0` or `substeps == 0`.
    #[must_use]
    pub fn with_substeps(dynamics: Arc<dyn Dynamics>, delta: f64, substeps: usize) -> Self {
        assert!(delta > 0.0, "sampling period must be positive");
        assert!(substeps > 0, "need at least one sub-step");
        Self {
            dynamics,
            delta,
            substeps,
        }
    }

    /// The sampling period.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The integrator step `δ / substeps`; fine state `i` of a rollout is
    /// at time `i · fine_step()`.
    #[must_use]
    pub fn fine_step(&self) -> f64 {
        self.delta / self.substeps as f64
    }

    /// Simulates `steps` control periods from `x0` under `controller`.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len()` differs from the state dimension.
    #[must_use]
    pub fn rollout<C: Controller + ?Sized>(
        &self,
        x0: &[f64],
        controller: &C,
        steps: usize,
    ) -> Trajectory {
        assert_eq!(
            x0.len(),
            self.dynamics.n_state(),
            "initial state dimension mismatch"
        );
        let mut states = Vec::with_capacity(steps + 1);
        let mut inputs = Vec::with_capacity(steps);
        let mut fine = Vec::with_capacity(steps * self.substeps + 1);
        let mut x = x0.to_vec();
        let mut next = x0.to_vec();
        let mut buf = Rk4Buffers::new(x0.len());
        states.push(x.clone());
        fine.push(x.clone());
        let h = self.fine_step();
        for _ in 0..steps {
            let u = controller.control(&x);
            for _ in 0..self.substeps {
                self.rk4_step_into(&x, &u, h, &mut next, &mut buf);
                std::mem::swap(&mut x, &mut next);
                fine.push(x.clone());
            }
            states.push(x.clone());
            inputs.push(u);
        }
        Trajectory {
            states,
            inputs,
            fine_states: fine,
        }
    }

    /// One explicit RK4 step of length `h` with input held at `u`.
    #[must_use]
    pub fn rk4_step(&self, x: &[f64], u: &[f64], h: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(x.len());
        let mut buf = Rk4Buffers::new(x.len());
        self.rk4_step_into(x, u, h, &mut out, &mut buf);
        out
    }

    /// One explicit RK4 step written into `out` using scratch `buf`
    /// (bit-identical to [`Simulator::rk4_step`], zero allocations once the
    /// buffers are warm).
    pub fn rk4_step_into(
        &self,
        x: &[f64],
        u: &[f64],
        h: f64,
        out: &mut Vec<f64>,
        buf: &mut Rk4Buffers,
    ) {
        self.dynamics.deriv_into(x, u, &mut buf.k1);
        buf.xt.clear();
        buf.xt
            .extend(x.iter().zip(&buf.k1).map(|(a, k)| a + 0.5 * h * k));
        self.dynamics.deriv_into(&buf.xt, u, &mut buf.k2);
        buf.xt.clear();
        buf.xt
            .extend(x.iter().zip(&buf.k2).map(|(a, k)| a + 0.5 * h * k));
        self.dynamics.deriv_into(&buf.xt, u, &mut buf.k3);
        buf.xt.clear();
        buf.xt.extend(x.iter().zip(&buf.k3).map(|(a, k)| a + h * k));
        self.dynamics.deriv_into(&buf.xt, u, &mut buf.k4);
        out.clear();
        out.extend(x.iter().enumerate().map(|(i, a)| {
            a + h / 6.0 * (buf.k1[i] + 2.0 * buf.k2[i] + 2.0 * buf.k3[i] + buf.k4[i])
        }));
    }
}

/// Scratch state for [`Simulator::rollout_lanes`], reusable across batches.
///
/// Every buffer is component-major ([`Lanes`] per state or input
/// component), so one RK4 stage is a loop over components of fixed-width
/// lane loops.
#[derive(Debug, Clone, Default)]
pub struct LaneBuffers {
    x: Vec<Lanes>,
    next: Vec<Lanes>,
    u: Vec<Lanes>,
    k1: Vec<Lanes>,
    k2: Vec<Lanes>,
    k3: Vec<Lanes>,
    k4: Vec<Lanes>,
    xt: Vec<Lanes>,
    lane_x: Vec<f64>,
    lane_u: Vec<f64>,
}

impl LaneBuffers {
    /// The batch state: after [`Simulator::rollout_lanes`] returns, the
    /// final state of every lane.
    #[must_use]
    pub fn state(&self) -> &[Lanes] {
        &self.x
    }
}

/// `out = a + c·k`, lane by lane, with the expression shape of
/// [`Simulator::rk4_step_into`]'s stage states.
fn stage_lanes(a: &[Lanes], k: &[Lanes], c: f64, out: &mut [Lanes]) {
    for ((o, a), k) in out.iter_mut().zip(a).zip(k) {
        *o = std::array::from_fn(|l| a[l] + c * k[l]);
    }
}

impl Simulator {
    /// Simulates [`LANES`] rollouts from the initial states `x0` (component
    /// major: `x0[i][l]` is component `i` of lane `l`) in lockstep, calling
    /// `visit` with the batch state at the initial state and after every
    /// RK4 sub-step.
    ///
    /// The lanes share every stage of every sub-step, so their independent
    /// dependency chains overlap; each lane computes exactly the
    /// expressions of [`Simulator::rk4_step_into`] (the controller is
    /// queried lane by lane through [`Controller::control_into`], the
    /// field through [`Dynamics::deriv_lanes`]), so lane `l` visits the
    /// same bits as [`Simulator::rollout`]'s `fine_states` from its
    /// initial state. After the call, [`LaneBuffers::state`] holds the
    /// final states.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len()` differs from the state dimension.
    pub fn rollout_lanes<C, F>(
        &self,
        x0: &[Lanes],
        controller: &C,
        steps: usize,
        buf: &mut LaneBuffers,
        mut visit: F,
    ) where
        C: Controller + ?Sized,
        F: FnMut(&[Lanes]),
    {
        let n = self.dynamics.n_state();
        assert_eq!(x0.len(), n, "initial state dimension mismatch");
        for v in [
            &mut buf.next,
            &mut buf.k1,
            &mut buf.k2,
            &mut buf.k3,
            &mut buf.k4,
            &mut buf.xt,
        ] {
            v.clear();
            v.resize(n, [0.0; LANES]);
        }
        buf.x.clear();
        buf.x.extend_from_slice(x0);
        visit(&buf.x);
        let h = self.fine_step();
        for _ in 0..steps {
            self.control_lanes(controller, buf);
            for _ in 0..self.substeps {
                self.rk4_step_lanes(h, buf);
                std::mem::swap(&mut buf.x, &mut buf.next);
                visit(&buf.x);
            }
        }
    }

    /// Holds `κ(x)` for every lane in `buf.u` (zero-order hold).
    fn control_lanes<C: Controller + ?Sized>(&self, controller: &C, buf: &mut LaneBuffers) {
        for l in 0..LANES {
            buf.lane_x.clear();
            buf.lane_x.extend(buf.x.iter().map(|c| c[l]));
            controller.control_into(&buf.lane_x, &mut buf.lane_u);
            if l == 0 {
                buf.u.clear();
                buf.u.resize(buf.lane_u.len(), [0.0; LANES]);
            }
            for (c, v) in buf.u.iter_mut().zip(&buf.lane_u) {
                c[l] = *v;
            }
        }
    }

    /// One RK4 step of every lane from `buf.x` into `buf.next`.
    fn rk4_step_lanes(&self, h: f64, buf: &mut LaneBuffers) {
        let f = &self.dynamics;
        f.deriv_lanes(&buf.x, &buf.u, &mut buf.k1);
        stage_lanes(&buf.x, &buf.k1, 0.5 * h, &mut buf.xt);
        f.deriv_lanes(&buf.xt, &buf.u, &mut buf.k2);
        stage_lanes(&buf.x, &buf.k2, 0.5 * h, &mut buf.xt);
        f.deriv_lanes(&buf.xt, &buf.u, &mut buf.k3);
        stage_lanes(&buf.x, &buf.k3, h, &mut buf.xt);
        f.deriv_lanes(&buf.xt, &buf.u, &mut buf.k4);
        let c = h / 6.0;
        for (i, o) in buf.next.iter_mut().enumerate() {
            let (a, k1, k2, k3, k4) = (buf.x[i], buf.k1[i], buf.k2[i], buf.k3[i], buf.k4[i]);
            *o = std::array::from_fn(|l| a[l] + c * (k1[l] + 2.0 * k2[l] + 2.0 * k3[l] + k4[l]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::Acc;
    use crate::oscillator::Oscillator;
    use crate::system::LinearController;

    #[test]
    fn rk4_matches_exponential_decay() {
        // v̇ = -0.2 v with u = 0 and v_f contribution on s.
        let sim = Simulator::new(Arc::new(Acc), 0.1);
        let k = LinearController::zeros(2, 1);
        let traj = sim.rollout(&[123.0, 50.0], &k, 50);
        // v(t) = 50 e^{-0.2 t}; at t = 5: 50 e^{-1}.
        let v_end = traj.states[50][1];
        assert!((v_end - 50.0 * (-1.0f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn zero_order_hold_freezes_input() {
        // With a feedback controller, the input changes only at boundaries.
        let sim = Simulator::new(Arc::new(Oscillator), 0.1);
        let k = LinearController::new(2, 1, vec![1.0, 1.0]);
        let traj = sim.rollout(&[-0.5, 0.5], &k, 3);
        assert_eq!(traj.inputs.len(), 3);
        // Input at step 0 equals κ(x(0)).
        assert!((traj.inputs[0][0] - 0.0).abs() < 1e-12); // -0.5 + 0.5
                                                          // fine trajectory has substeps*steps + 1 points
        assert_eq!(traj.fine_states.len(), 31);
    }

    #[test]
    fn finer_substeps_converge() {
        let coarse = Simulator::with_substeps(Arc::new(Oscillator), 0.1, 2);
        let fine = Simulator::with_substeps(Arc::new(Oscillator), 0.1, 50);
        let k = LinearController::new(2, 1, vec![-0.5, -0.5]);
        let a = coarse.rollout(&[-0.5, 0.5], &k, 20);
        let b = fine.rollout(&[-0.5, 0.5], &k, 20);
        let d: f64 = a.states[20]
            .iter()
            .zip(&b.states[20])
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(d < 1e-6, "RK4 refinement changed the endpoint by {d}");
    }
}
