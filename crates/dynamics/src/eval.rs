//! Monte-Carlo estimation of the paper's SC / GR rates.
//!
//! Table 1 reports the *safe control rate* (SC) and *goal-reaching rate*
//! (GR): the fraction of trajectories, from initial states sampled uniformly
//! in `X₀`, that stay clear of `X_u` for the whole horizon and that visit
//! `X_g` within it (the paper uses 500 samples; so do we by default).
//!
//! Every sampled-rollout question in the workspace (these rates, the
//! `Unsafe`/`Unknown` judgement and the counterexample search in `dwv-core`)
//! is a fold over one engine, [`try_for_each_sample`]: it draws the initial
//! states from a seeded stream, simulates them [`LANES`] at a time in
//! lockstep and reports each rollout as a [`Sample`], stopping as soon as
//! the fold asks it to.

use crate::simulate::{LaneBuffers, Lanes, Simulator, LANES};
use crate::system::{Controller, ReachAvoidProblem};
use dwv_geom::Region;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;

/// SC / GR estimates from simulated rollouts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateReport {
    /// Fraction of trajectories that never enter the unsafe region.
    pub safe_rate: f64,
    /// Fraction of trajectories that reach the goal region within the
    /// horizon.
    pub goal_rate: f64,
    /// Fraction that do both (the empirical reach-avoid rate).
    pub reach_avoid_rate: f64,
    /// Number of sampled initial states.
    pub n_samples: usize,
}

impl RateReport {
    /// Whether both rates are 100%.
    #[must_use]
    pub fn is_perfect(&self) -> bool {
        self.safe_rate >= 1.0 && self.goal_rate >= 1.0
    }
}

/// The first fine state of a rollout inside the unsafe region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnsafeEntry<'a> {
    /// Index into the fine trajectory (0 is the initial state, then one per
    /// RK4 sub-step).
    pub step: usize,
    /// `step · δ / substeps`, the entry time.
    pub time: f64,
    /// The state at `step`.
    pub state: &'a [f64],
}

/// What one sampled rollout did.
///
/// Safety and goal-reaching are judged on every fine state (Definition 1
/// quantifies over all `t`): the initial state and every RK4 sub-step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample<'a> {
    /// Position of the sample in the seeded stream (0-based).
    pub index: usize,
    /// The sampled initial state.
    pub x0: &'a [f64],
    /// Whether any fine state lies in the goal region.
    pub reaches_goal: bool,
    /// The first fine state in the unsafe region, if any.
    pub first_unsafe: Option<UnsafeEntry<'a>>,
    /// The state at the end of the horizon.
    pub final_state: &'a [f64],
}

impl Sample<'_> {
    /// Whether the rollout never enters the unsafe region.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.first_unsafe.is_none()
    }

    /// Whether the rollout refutes reach-avoid: it enters the unsafe region
    /// or misses the goal.
    #[must_use]
    pub fn violates(&self) -> bool {
        !self.is_safe() || !self.reaches_goal
    }
}

/// What one lane of a lockstep batch has seen so far.
#[derive(Debug, Default)]
struct LaneRecord {
    x0: Vec<f64>,
    reached: bool,
    entered: Option<usize>,
    unsafe_state: Vec<f64>,
    final_state: Vec<f64>,
}

impl LaneRecord {
    fn sample(&self, index: usize, fine_step: f64) -> Sample<'_> {
        Sample {
            index,
            x0: &self.x0,
            reaches_goal: self.reached,
            first_unsafe: self.entered.map(|step| UnsafeEntry {
                step,
                time: step as f64 * fine_step,
                state: &self.unsafe_state,
            }),
            final_state: &self.final_state,
        }
    }
}

/// The per-lane records of one lockstep batch.
#[derive(Debug, Default)]
struct Batch {
    lanes: [LaneRecord; LANES],
}

impl Batch {
    /// Draws the initial states of the first `active` lanes into `x0`
    /// (component major), sample by sample and component by component (the
    /// stream order of a one-rollout-at-a-time loop), and pads the idle
    /// lanes with lane 0.
    fn draw(
        &mut self,
        problem: &ReachAvoidProblem,
        rng: &mut StdRng,
        active: usize,
        x0: &mut [Lanes],
    ) {
        for (l, rec) in self.lanes.iter_mut().enumerate() {
            rec.x0.clear();
            for (i, c) in x0.iter_mut().enumerate() {
                c[l] = if l < active {
                    let iv = problem.x0.interval(i);
                    rng.gen_range(iv.lo()..=iv.hi())
                } else {
                    c[0]
                };
                rec.x0.push(c[l]);
            }
            rec.reached = false;
            rec.entered = None;
        }
    }

    /// Folds fine state `step` of the batch into the first `active` lanes'
    /// records.
    fn observe(&mut self, problem: &ReachAvoidProblem, active: usize, step: usize, x: &[Lanes]) {
        let in_unsafe = contains_lanes(&problem.unsafe_region, x);
        let in_goal = contains_lanes(&problem.goal_region, x);
        for (l, rec) in self.lanes.iter_mut().enumerate().take(active) {
            if rec.entered.is_none() && in_unsafe[l] {
                rec.entered = Some(step);
                rec.unsafe_state.clear();
                rec.unsafe_state.extend(x.iter().map(|c| c[l]));
            }
            rec.reached |= in_goal[l];
        }
    }

    /// Records the final batch state.
    fn finish(&mut self, x: &[Lanes]) {
        for (l, rec) in self.lanes.iter_mut().enumerate() {
            rec.final_state.clear();
            rec.final_state.extend(x.iter().map(|c| c[l]));
        }
    }
}

/// [`Region::contains_point`] for every lane of a batch state: the same
/// comparisons on the same values, lane by lane.
fn contains_lanes(region: &Region, x: &[Lanes]) -> [bool; LANES] {
    match region {
        Region::Box(b) => {
            let mut inside = [b.dim() == x.len(); LANES];
            for (iv, c) in b.intervals().iter().zip(x) {
                let (lo, hi) = (iv.lo(), iv.hi());
                for (m, v) in inside.iter_mut().zip(c) {
                    *m &= lo <= *v && *v <= hi;
                }
            }
            inside
        }
        Region::HalfSpace(h) => {
            assert_eq!(h.dim(), x.len(), "dimension mismatch");
            // `HalfSpace::signed_slack` folds the same products in the same
            // order with `f64: Sum`; whichever signed zero that fold starts
            // from, the dot products can differ only in the sign of a zero,
            // which `slack >= 0` does not see.
            let mut dot = [-0.0; LANES];
            for (n, c) in h.normal().iter().zip(x) {
                for (d, v) in dot.iter_mut().zip(c) {
                    *d += n * v;
                }
            }
            dot.map(|d| h.offset() - d >= 0.0)
        }
    }
}

/// The Monte-Carlo rollout engine: simulates `n_samples` initial states
/// drawn uniformly from `X₀` (deterministic in `seed`) over the problem's
/// horizon and hands each outcome to `f`, in stream order, until `f`
/// breaks.
///
/// Rollouts run [`LANES`] at a time through
/// [`Simulator::rollout_lanes`], so each [`Sample`] is bit-identical to a
/// rollout of [`Simulator::rollout`] from the same initial state, and the
/// initial states are drawn in the order a one-at-a-time loop draws them.
/// When `f` breaks, the engine returns at once: at most the rest of the
/// current batch was simulated in vain, and no further state is drawn.
///
/// # Example
///
/// ```
/// use dwv_dynamics::{acc, eval::try_for_each_sample, LinearController};
/// use std::ops::ControlFlow;
///
/// let p = acc::reach_avoid_problem();
/// let bad = LinearController::zeros(2, 1);
/// let first = try_for_each_sample(&p, &bad, 500, 7, |s| {
///     if s.violates() { ControlFlow::Break(s.index) } else { ControlFlow::Continue(()) }
/// });
/// assert!(first.is_break());
/// ```
pub fn try_for_each_sample<C, B, F>(
    problem: &ReachAvoidProblem,
    controller: &C,
    n_samples: usize,
    seed: u64,
    mut f: F,
) -> ControlFlow<B>
where
    C: Controller + ?Sized,
    F: FnMut(&Sample<'_>) -> ControlFlow<B>,
{
    let sim = Simulator::new(problem.dynamics.clone(), problem.delta);
    let fine_step = sim.fine_step();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Batch::default();
    let mut buf = LaneBuffers::default();
    let mut x0 = vec![[0.0; LANES]; problem.x0.dim()];
    let mut start = 0;
    while start < n_samples {
        let active = (n_samples - start).min(LANES);
        batch.draw(problem, &mut rng, active, &mut x0);
        let mut step = 0;
        sim.rollout_lanes(&x0, controller, problem.horizon_steps, &mut buf, |x| {
            batch.observe(problem, active, step, x);
            step += 1;
        });
        batch.finish(buf.state());
        for (l, rec) in batch.lanes.iter().take(active).enumerate() {
            f(&rec.sample(start + l, fine_step))?;
        }
        start += active;
    }
    ControlFlow::Continue(())
}

/// [`try_for_each_sample`] without early exit: `f` sees all `n_samples`.
pub fn for_each_sample<C, F>(
    problem: &ReachAvoidProblem,
    controller: &C,
    n_samples: usize,
    seed: u64,
    mut f: F,
) where
    C: Controller + ?Sized,
    F: FnMut(&Sample<'_>),
{
    let _: ControlFlow<()> = try_for_each_sample(problem, controller, n_samples, seed, |s| {
        f(s);
        ControlFlow::Continue(())
    });
}

/// Running SC / GR counts, folded one [`Sample`] at a time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RateCounts {
    safe: usize,
    goal: usize,
    both: usize,
    samples: usize,
}

impl RateCounts {
    /// Counts one rollout.
    pub fn add(&mut self, s: &Sample<'_>) {
        self.safe += usize::from(s.is_safe());
        self.goal += usize::from(s.reaches_goal);
        self.both += usize::from(s.is_safe() && s.reaches_goal);
        self.samples += 1;
    }

    /// The rates over the rollouts counted so far.
    ///
    /// # Panics
    ///
    /// Panics if no rollout was counted.
    #[must_use]
    pub fn report(&self) -> RateReport {
        assert!(self.samples > 0, "need at least one sample");
        let n = self.samples as f64;
        RateReport {
            safe_rate: self.safe as f64 / n,
            goal_rate: self.goal as f64 / n,
            reach_avoid_rate: self.both as f64 / n,
            n_samples: self.samples,
        }
    }
}

/// Estimates SC and GR for `controller` on `problem` from `n_samples`
/// uniformly sampled initial states (deterministic in `seed`).
///
/// Safety is checked on every integrator sub-step (Definition 1 quantifies
/// over all `t`); goal-reaching is checked at sub-step resolution too.
///
/// # Panics
///
/// Panics if `n_samples == 0`.
///
/// # Example
///
/// ```
/// use dwv_dynamics::{acc, eval::rates, LinearController};
///
/// let p = acc::reach_avoid_problem();
/// let bad = LinearController::zeros(2, 1); // no braking: will go unsafe
/// let r = rates(&p, &bad, 100, 7);
/// assert!(r.safe_rate < 1.0);
/// ```
#[must_use]
pub fn rates<C: Controller + ?Sized>(
    problem: &ReachAvoidProblem,
    controller: &C,
    n_samples: usize,
    seed: u64,
) -> RateReport {
    assert!(n_samples > 0, "need at least one sample");
    let mut counts = RateCounts::default();
    for_each_sample(problem, controller, n_samples, seed, |s| counts.add(s));
    counts.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc;
    use crate::system::LinearController;
    use dwv_geom::HalfSpace;
    use dwv_interval::IntervalBox;

    #[test]
    fn contains_lanes_agrees_with_contains_point() {
        let regions = [
            Region::from_halfspace(HalfSpace::new(vec![1.0, 0.0], 120.0)),
            Region::from_halfspace(HalfSpace::new(vec![1.0, -1.0], 0.0)),
            Region::from_halfspace(HalfSpace::new(vec![-0.0, 2.5], -0.0)),
            Region::from_box(IntervalBox::from_bounds(&[(145.0, 155.0), (39.5, 40.5)])),
            Region::box_constraints(&[(-0.1, 0.2)], 2),
        ];
        let v = [
            120.0,
            119.999_999_999_999_99,
            0.0,
            -0.0,
            145.0,
            40.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.1,
            0.2,
            1e-300,
        ];
        // Every ordered pair of values, eight lanes at a time.
        let points: Vec<[f64; 2]> = v
            .iter()
            .flat_map(|&a| v.iter().map(move |&b| [a, b]))
            .collect();
        for region in &regions {
            for chunk in points.chunks(LANES) {
                let x: Vec<Lanes> = (0..2)
                    .map(|i| std::array::from_fn(|l| chunk[l % chunk.len()][i]))
                    .collect();
                let got = contains_lanes(region, &x);
                for (l, g) in got.iter().enumerate() {
                    let p = chunk[l % chunk.len()];
                    assert_eq!(*g, region.contains_point(&p), "{region:?} at {p:?}");
                }
            }
        }
        // A box of another dimension contains nothing.
        let three = Region::box_constraints(&[], 3);
        assert_eq!(contains_lanes(&three, &[[0.0; LANES]; 2]), [false; LANES]);
    }

    #[test]
    fn uncontrolled_acc_is_unsafe() {
        // v ≈ 50 > v_f: with no braking the gap closes below 120.
        let p = acc::reach_avoid_problem();
        let k = LinearController::zeros(2, 1);
        let r = rates(&p, &k, 50, 1);
        assert!(r.safe_rate < 0.5, "expected mostly unsafe, got {r:?}");
        assert!(!r.is_perfect());
    }

    #[test]
    fn deterministic_in_seed() {
        let p = acc::reach_avoid_problem();
        let k = LinearController::new(2, 1, vec![0.5, -2.0]);
        let a = rates(&p, &k, 30, 9);
        let b = rates(&p, &k, 30, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn rates_bounded() {
        let p = acc::reach_avoid_problem();
        let k = LinearController::new(2, 1, vec![0.2, -1.0]);
        let r = rates(&p, &k, 20, 3);
        assert!((0.0..=1.0).contains(&r.safe_rate));
        assert!((0.0..=1.0).contains(&r.goal_rate));
        assert!(r.reach_avoid_rate <= r.safe_rate.min(r.goal_rate));
    }
}
