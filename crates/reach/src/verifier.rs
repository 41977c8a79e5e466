//! The first-class verifier abstraction: every reachability backend is a
//! [`Verifier`] — an object-safe `Ψ(f, X₀, κ_θ)` oracle with cost-class
//! metadata — so callers (the portfolio, Algorithm 1, the cell sweep) can
//! hold heterogeneous backends behind one interface.
//!
//! The companion [`ControlEnclosure`] trait is the controller-side
//! capability the box-propagation backends need: a directed-rounding
//! enclosure of the controller's image of a state box. Linear controllers
//! get it from outward-rounded interval matrix–vector products, neural
//! controllers from the plain interval forward pass of `dwv-nn`.

use crate::error::ReachError;
use crate::flowpipe::Flowpipe;
use dwv_dynamics::{Controller, LinearController, NnController};
use dwv_interval::{Interval, IntervalBox};

/// Rejects a controller with a NaN or infinite parameter: its image has no
/// interval enclosure (the interval constructors refuse NaN endpoints), so
/// every backend answers it with [`ReachError::Unsupported`] instead of a
/// flowpipe.
pub(crate) fn require_finite_params<C: Controller + ?Sized>(
    controller: &C,
) -> Result<(), ReachError> {
    if controller.params().iter().all(|p| p.is_finite()) {
        Ok(())
    } else {
        Err(ReachError::Unsupported(
            "controller has a non-finite parameter".into(),
        ))
    }
}

/// The asymptotic cost family of a verifier backend, ordered cheapest
/// first. The portfolio escalates along this order and treats the
/// most-expensive configured tier as the rigorous authority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostClass {
    /// Directed interval / mixed-monotone box propagation — one field
    /// evaluation per step, the cheapest sound enclosure available.
    Interval,
    /// Zonotope (template polytope) recursion — generator matrices per
    /// step, tighter than boxes under rotation.
    Zonotope,
    /// Exact vertex recursion for affine systems — exact up to f64
    /// rounding, exponential in dimension.
    Exact,
    /// Validated Taylor-model flowpipes — Picard iteration over polynomial
    /// models, the rigorous tier for nonlinear neural-network loops.
    TaylorModel,
}

impl std::fmt::Display for CostClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostClass::Interval => write!(f, "interval"),
            CostClass::Zonotope => write!(f, "zonotope"),
            CostClass::Exact => write!(f, "exact"),
            CostClass::TaylorModel => write!(f, "taylor-model"),
        }
    }
}

/// An object-safe reachability oracle over one controller family `C`.
///
/// Implementations must be *sound*: every returned [`Flowpipe`] encloses
/// all trajectories of the closed loop from the initial set, step by step.
/// Refusing to enclose (an error) is always acceptable; a wrong enclosure
/// never is.
///
/// # Example
///
/// ```
/// use dwv_reach::{LinearReach, Verifier};
/// use dwv_dynamics::{acc, LinearController};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let problem = acc::reach_avoid_problem();
/// let v: Box<dyn Verifier<LinearController>> =
///     Box::new(LinearReach::for_problem(&problem)?);
/// let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
/// let fp = v.reach(&k)?;
/// assert_eq!(fp.len(), problem.horizon_steps + 1);
/// # Ok(())
/// # }
/// ```
pub trait Verifier<C: ?Sized>: Sync {
    /// Short backend name for reports and counters.
    fn name(&self) -> &'static str;

    /// The backend's cost family (escalation order of the portfolio).
    fn cost_class(&self) -> CostClass;

    /// Computes the reachable-set enclosure from the verifier's configured
    /// initial set.
    ///
    /// # Errors
    ///
    /// [`ReachError::Diverged`] when the enclosure blows up;
    /// [`ReachError::Unsupported`] when the system/controller pairing is
    /// outside the backend's domain.
    fn reach(&self, controller: &C) -> Result<Flowpipe, ReachError>;

    /// Computes the reachable-set enclosure from an explicit initial cell
    /// (the Algorithm 2 per-cell query).
    ///
    /// # Errors
    ///
    /// As for [`Verifier::reach`].
    fn reach_from(&self, x0: &IntervalBox, controller: &C) -> Result<Flowpipe, ReachError>;
}

/// A controller that can bound its own output over a state box with
/// directed rounding — the capability the interval backend propagates
/// through.
pub trait ControlEnclosure: Controller {
    /// An outward-rounded enclosure of `{κ(x) : x ∈ box}`.
    fn control_enclosure(&self, x: &[Interval]) -> Vec<Interval>;

    /// An enclosure of the controller's input Jacobian over the box:
    /// `out[i][j] ⊇ {∂κ_i/∂x_j(x) : x ∈ box}` (the Clarke generalized
    /// Jacobian across ReLU kinks).
    ///
    /// Mean-value enclosures of the closed loop need this to keep the
    /// state–control correlation that plain interval evaluation discards —
    /// without it, box propagation of a stabilized loop still inflates at
    /// the open-loop rate.
    fn control_jacobian(&self, x: &[Interval]) -> Vec<Vec<Interval>>;
}

impl ControlEnclosure for LinearController {
    fn control_enclosure(&self, x: &[Interval]) -> Vec<Interval> {
        (0..self.n_input())
            .map(|i| {
                x.iter()
                    .enumerate()
                    .fold(Interval::ZERO, |acc, (j, xj)| acc + *xj * self.gain(i, j))
            })
            .collect()
    }

    fn control_jacobian(&self, x: &[Interval]) -> Vec<Vec<Interval>> {
        (0..self.n_input())
            .map(|i| {
                (0..x.len())
                    .map(|j| Interval::point(self.gain(i, j)))
                    .collect()
            })
            .collect()
    }
}

impl ControlEnclosure for NnController {
    fn control_enclosure(&self, x: &[Interval]) -> Vec<Interval> {
        let scale = self.output_scale();
        self.network()
            .forward_interval(x)
            .into_iter()
            .map(|y| y * scale)
            .collect()
    }

    fn control_jacobian(&self, x: &[Interval]) -> Vec<Vec<Interval>> {
        let scale = self.output_scale();
        self.network()
            .jacobian_interval(x)
            .into_iter()
            .map(|row| row.into_iter().map(|d| d * scale).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwv_nn::{Activation, Network};

    #[test]
    fn cost_classes_are_ordered_cheapest_first() {
        assert!(CostClass::Interval < CostClass::Zonotope);
        assert!(CostClass::Zonotope < CostClass::Exact);
        assert!(CostClass::Exact < CostClass::TaylorModel);
        assert_eq!(format!("{}", CostClass::Interval), "interval");
        assert_eq!(format!("{}", CostClass::TaylorModel), "taylor-model");
    }

    #[test]
    fn linear_control_enclosure_encloses_corner_controls() {
        let k = LinearController::new(2, 1, vec![0.6, -2.0]);
        let bx = IntervalBox::from_bounds(&[(100.0, 110.0), (30.0, 35.0)]);
        let enc = k.control_enclosure(bx.intervals());
        assert_eq!(enc.len(), 1);
        for corner in bx.corners() {
            let u = k.control(&corner);
            assert!(
                enc[0].contains_value(u[0]),
                "control {} at {corner:?} outside {}",
                u[0],
                enc[0]
            );
        }
    }

    #[test]
    fn nn_control_enclosure_encloses_sampled_controls() {
        let ctrl = NnController::with_output_scale(
            Network::new(&[2, 8, 1], Activation::ReLU, Activation::Tanh, 5),
            10.0,
        );
        let bx = IntervalBox::from_bounds(&[(-0.6, 0.2), (0.1, 0.9)]);
        let enc = ctrl.control_enclosure(bx.intervals());
        for p in bx.grid(5) {
            let u = ctrl.control(&p);
            assert!(
                enc[0].contains_value(u[0]),
                "control {} at {p:?} outside {}",
                u[0],
                enc[0]
            );
        }
    }
}
