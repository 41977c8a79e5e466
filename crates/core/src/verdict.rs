//! The verified-result column of Table 1.

use dwv_dynamics::{eval::try_for_each_sample, Controller, ReachAvoidProblem};
use dwv_metrics::GeometricMetric;
use dwv_reach::{Flowpipe, ReachError};
use std::fmt;
use std::ops::ControlFlow;

/// The outcome of formally verifying a controller (the "Verified result"
/// column of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The over-approximated flowpipe provably satisfies reach-avoid.
    ReachAvoid,
    /// A concrete counterexample trajectory violates safety or misses the
    /// goal: the controller is genuinely not reach-avoid.
    Unsafe,
    /// Verification is inconclusive: the over-approximation intersects the
    /// unsafe set (or misses the goal, or the flowpipe diverged) but no
    /// concrete counterexample was found — the paper's "Unknown (due to
    /// over-approximation of the reachable set computation)".
    Unknown,
}

impl Verdict {
    /// Whether the verdict is the formally-guaranteed `reach-avoid`.
    #[must_use]
    pub fn is_reach_avoid(&self) -> bool {
        matches!(self, Verdict::ReachAvoid)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::ReachAvoid => write!(f, "reach-avoid"),
            Verdict::Unsafe => write!(f, "Unsafe"),
            Verdict::Unknown => write!(f, "Unknown"),
        }
    }
}

/// Whether the verification attempt certifies reach-avoid on its own: the
/// flowpipe exists and the geometric metric finds it clear of `X_u` and
/// inside `X_g`.
pub(crate) fn flowpipe_certifies(
    problem: &ReachAvoidProblem,
    attempt: &Result<Flowpipe, ReachError>,
) -> bool {
    attempt.as_ref().is_ok_and(|fp| {
        GeometricMetric::for_problem(problem)
            .evaluate(fp)
            .is_reach_avoid()
    })
}

/// Judges a controller from its verification attempt, reproducing the
/// paper's three-way outcome:
///
/// 1. flowpipe verified reach-avoid → [`Verdict::ReachAvoid`];
/// 2. otherwise, simulate up to `counterexample_samples` random
///    trajectories: a concrete violation (unsafe entry, or goal never
///    reached) → [`Verdict::Unsafe`];
/// 3. otherwise → [`Verdict::Unknown`] (the over-approximation, not the
///    controller, is at fault); also the verdict of zero samples.
///
/// The simulation stops after the lockstep batch that holds the first
/// violation, so the verdict equals that of the full `counterexample_samples`
/// rollouts at a fraction of the cost. It runs in the `simulate.judge`
/// span.
#[must_use]
pub fn judge<C: Controller + ?Sized>(
    problem: &ReachAvoidProblem,
    controller: &C,
    attempt: &Result<Flowpipe, ReachError>,
    counterexample_samples: usize,
    seed: u64,
) -> Verdict {
    if flowpipe_certifies(problem, attempt) {
        return Verdict::ReachAvoid;
    }
    let _s = dwv_obs::span("simulate.judge");
    let violation = try_for_each_sample(problem, controller, counterexample_samples, seed, |s| {
        if s.violates() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    Verdict::from_simulation(violation.is_break())
}

impl Verdict {
    /// The verdict of an uncertified controller: [`Verdict::Unsafe`] when a
    /// sampled rollout violates reach-avoid, [`Verdict::Unknown`] otherwise.
    pub(crate) fn from_simulation(violated: bool) -> Self {
        if violated {
            Verdict::Unsafe
        } else {
            Verdict::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwv_dynamics::{acc, LinearController};
    use dwv_reach::LinearReach;

    #[test]
    fn good_linear_controller_is_reach_avoid() {
        let p = acc::reach_avoid_problem();
        let v = LinearReach::for_problem(&p).unwrap();
        let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
        let attempt = v.reach(&k);
        assert_eq!(judge(&p, &k, &attempt, 50, 1), Verdict::ReachAvoid);
    }

    #[test]
    fn uncontrolled_is_unsafe() {
        let p = acc::reach_avoid_problem();
        let v = LinearReach::for_problem(&p).unwrap();
        let k = LinearController::zeros(2, 1);
        let attempt = v.reach(&k);
        assert_eq!(judge(&p, &k, &attempt, 50, 1), Verdict::Unsafe);
    }

    #[test]
    fn diverged_flowpipe_with_safe_sim_is_unknown_or_unsafe() {
        // Force the "flowpipe failed" path with an artificial error; the
        // safe controller then yields Unknown.
        let p = acc::reach_avoid_problem();
        let k = LinearController::new(2, 1, vec![0.5867, -2.0]);
        let attempt = Err(ReachError::Unsupported("forced".into()));
        let verdict = judge(&p, &k, &attempt, 30, 1);
        assert_eq!(verdict, Verdict::Unknown);
    }

    #[test]
    fn display_matches_table1_labels() {
        assert_eq!(format!("{}", Verdict::ReachAvoid), "reach-avoid");
        assert_eq!(format!("{}", Verdict::Unsafe), "Unsafe");
        assert_eq!(format!("{}", Verdict::Unknown), "Unknown");
    }
}
