//! The lockstep rollout engine against a naive reference.
//!
//! The reference is the one-rollout-at-a-time loop the engine replaced:
//! draw an initial state, materialise `Simulator::rollout`'s fine
//! trajectory, scan it. Every engine output must equal it bit for bit, for
//! every system, for well-behaved, borderline and non-finite controllers,
//! at sample counts on both sides of the lane width and at degenerate
//! horizons.

use dwv_dynamics::eval::{for_each_sample, rates, try_for_each_sample, RateReport, Sample};
use dwv_dynamics::simulate::{Simulator, LANES};
use dwv_dynamics::{
    acc, oscillator, three_dim, Controller, LinearController, NnController, ReachAvoidProblem,
};
use dwv_nn::{Activation, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;

const SEED: u64 = 0x0A55E55;
const COUNTS: [usize; 6] = [1, 7, 8, 9, 200, 500];

/// An owned copy of one rollout's outcome.
#[derive(Debug, Clone)]
struct Outcome {
    index: usize,
    x0: Vec<f64>,
    reaches_goal: bool,
    first_unsafe: Option<(usize, u64, Vec<f64>)>,
    final_state: Vec<f64>,
}

impl Outcome {
    fn of(s: &Sample<'_>) -> Self {
        Self {
            index: s.index,
            x0: s.x0.to_vec(),
            reaches_goal: s.reaches_goal,
            first_unsafe: s
                .first_unsafe
                .map(|e| (e.step, e.time.to_bits(), e.state.to_vec())),
            final_state: s.final_state.to_vec(),
        }
    }

    fn violates(&self) -> bool {
        self.first_unsafe.is_some() || !self.reaches_goal
    }

    /// Bit-level equality (NaN states compare equal to themselves).
    fn assert_bits_eq(&self, other: &Self, ctx: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(self.index, other.index, "{ctx}: index");
        assert_eq!(bits(&self.x0), bits(&other.x0), "{ctx}: x0");
        assert_eq!(self.reaches_goal, other.reaches_goal, "{ctx}: goal");
        assert_eq!(
            self.first_unsafe
                .as_ref()
                .map(|(s, t, x)| (*s, *t, bits(x))),
            other
                .first_unsafe
                .as_ref()
                .map(|(s, t, x)| (*s, *t, bits(x))),
            "{ctx}: unsafe entry"
        );
        assert_eq!(
            bits(&self.final_state),
            bits(&other.final_state),
            "{ctx}: final state"
        );
    }
}

/// The reference: one materialised rollout per sampled initial state.
fn reference(problem: &ReachAvoidProblem, controller: &dyn Controller, n: usize) -> Vec<Outcome> {
    let sim = Simulator::new(problem.dynamics.clone(), problem.delta);
    let fine_dt = problem.delta / 10.0;
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..n)
        .map(|index| {
            let x0: Vec<f64> = (0..problem.x0.dim())
                .map(|i| {
                    let iv = problem.x0.interval(i);
                    rng.gen_range(iv.lo()..=iv.hi())
                })
                .collect();
            let traj = sim.rollout(&x0, controller, problem.horizon_steps);
            let first_unsafe = traj
                .fine_states
                .iter()
                .position(|x| problem.unsafe_region.contains_point(x))
                .map(|i| {
                    let time = i as f64 * fine_dt;
                    (i, time.to_bits(), traj.fine_states[i].clone())
                });
            Outcome {
                index,
                x0,
                reaches_goal: traj
                    .fine_states
                    .iter()
                    .any(|x| problem.goal_region.contains_point(x)),
                first_unsafe,
                final_state: traj.fine_states.last().cloned().unwrap_or_default(),
            }
        })
        .collect()
}

fn reference_rates(outcomes: &[Outcome]) -> RateReport {
    let n = outcomes.len() as f64;
    let safe = outcomes.iter().filter(|o| o.first_unsafe.is_none()).count();
    let goal = outcomes.iter().filter(|o| o.reaches_goal).count();
    let both = outcomes
        .iter()
        .filter(|o| o.first_unsafe.is_none() && o.reaches_goal)
        .count();
    RateReport {
        safe_rate: safe as f64 / n,
        goal_rate: goal as f64 / n,
        reach_avoid_rate: both as f64 / n,
        n_samples: outcomes.len(),
    }
}

fn engine(problem: &ReachAvoidProblem, controller: &dyn Controller, n: usize) -> Vec<Outcome> {
    let mut out = Vec::new();
    for_each_sample(problem, controller, n, SEED, |s| out.push(Outcome::of(s)));
    out
}

fn with_horizon(mut p: ReachAvoidProblem, steps: usize) -> ReachAvoidProblem {
    p.horizon_steps = steps;
    p
}

/// The controllers every system is checked under: tuned, zero, borderline
/// (some rollouts violate, some do not), NaN and infinite gains, and a
/// seeded NN.
fn controllers(problem: &ReachAvoidProblem) -> Vec<(&'static str, Box<dyn Controller>)> {
    let n = problem.n_state();
    let (tuned, borderline): (Vec<f64>, Vec<f64>) = match n {
        2 if problem.dynamics.name() == "acc" => (vec![0.5867, -2.0], vec![0.25, -0.75]),
        2 => (vec![-0.5, -1.5], vec![0.0, -2.25]),
        _ => (vec![-1.0, -2.0, -3.0], vec![-3.0, 0.0, -1.0]),
    };
    let mut nan = tuned.clone();
    nan[0] = f64::NAN;
    let mut inf = tuned.clone();
    inf[n - 1] = f64::INFINITY;
    let net = Network::new(&[n, 8, 1], Activation::ReLU, Activation::Tanh, 0x5EED);
    vec![
        ("tuned", Box::new(LinearController::new(n, 1, tuned))),
        ("zero", Box::new(LinearController::zeros(n, 1))),
        (
            "borderline",
            Box::new(LinearController::new(n, 1, borderline)),
        ),
        ("nan", Box::new(LinearController::new(n, 1, nan))),
        ("inf", Box::new(LinearController::new(n, 1, inf))),
        ("nn", Box::new(NnController::new(net))),
    ]
}

fn problems() -> Vec<(&'static str, ReachAvoidProblem)> {
    vec![
        ("acc", acc::reach_avoid_problem()),
        ("vdp", oscillator::reach_avoid_problem()),
        ("3d", three_dim::reach_avoid_problem()),
    ]
}

fn check(problem: &ReachAvoidProblem, ctx: &str, counts: &[usize]) {
    for (name, ctrl) in controllers(problem) {
        let max = counts.iter().copied().max().unwrap_or(0);
        let want = reference(problem, ctrl.as_ref(), max);
        for &n in counts {
            let ctx = format!("{ctx}/{name}/n={n}");
            let got = engine(problem, ctrl.as_ref(), n);
            assert_eq!(got.len(), n, "{ctx}: sample count");
            for (g, w) in got.iter().zip(&want) {
                g.assert_bits_eq(w, &ctx);
            }
            let r = rates(problem, ctrl.as_ref(), n, SEED);
            assert_eq!(r, reference_rates(&want[..n]), "{ctx}: rates");
            for rate in [r.safe_rate, r.goal_rate, r.reach_avoid_rate] {
                assert!((0.0..=1.0).contains(&rate), "{ctx}: rate {rate}");
            }
        }
    }
}

#[test]
fn engine_matches_reference_at_full_horizon() {
    for (sys, p) in problems() {
        check(&p, sys, &COUNTS);
    }
}

#[test]
fn engine_matches_reference_at_horizons_zero_and_one() {
    for (sys, p) in problems() {
        for steps in [0, 1] {
            check(
                &with_horizon(p.clone(), steps),
                &format!("{sys}/T={steps}"),
                &COUNTS,
            );
        }
    }
}

#[test]
fn fixture_controllers_cover_both_outcomes() {
    // The borderline gains must make the engine decide both ways within one
    // sample set, or the tests above never exercise mixed batches.
    for (sys, p) in problems() {
        let (_, ctrl) = controllers(&p).swap_remove(2);
        let outcomes = reference(&p, ctrl.as_ref(), 200);
        let bad = outcomes.iter().filter(|o| o.violates()).count();
        assert!(
            bad > 0 && bad < 200,
            "{sys}: borderline gains violate in {bad}/200"
        );
    }
}

#[test]
fn early_exit_stops_at_the_first_violating_sample() {
    for (sys, p) in problems() {
        for (name, ctrl) in controllers(&p) {
            let want = reference(&p, ctrl.as_ref(), 500);
            let first = want.iter().position(Outcome::violates);
            let mut seen = 0;
            let flow = try_for_each_sample(&p, ctrl.as_ref(), 500, SEED, |s| {
                seen += 1;
                if s.violates() {
                    ControlFlow::Break(s.index)
                } else {
                    ControlFlow::Continue(())
                }
            });
            let ctx = format!("{sys}/{name}");
            match first {
                Some(i) => {
                    assert_eq!(flow, ControlFlow::Break(i), "{ctx}");
                    assert_eq!(seen, i + 1, "{ctx}: visited past the break");
                }
                None => {
                    assert_eq!(flow, ControlFlow::Continue(()), "{ctx}");
                    assert_eq!(seen, 500, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn zero_samples_visit_nothing() {
    let p = acc::reach_avoid_problem();
    let k = LinearController::zeros(2, 1);
    let mut seen = 0;
    for_each_sample(&p, &k, 0, SEED, |_| seen += 1);
    assert_eq!(seen, 0);
}

#[test]
fn lane_rollout_matches_rollout_fine_states() {
    // Lanes are independent: each lane of a lockstep batch visits exactly
    // `rollout`'s fine states from its own initial state.
    let p = oscillator::reach_avoid_problem();
    let k = LinearController::new(2, 1, vec![-0.5, -1.5]);
    let sim = Simulator::new(p.dynamics.clone(), p.delta);
    let starts: Vec<[f64; 2]> = (0..LANES)
        .map(|l| [-0.51 + 0.001 * l as f64, 0.49 + 0.002 * l as f64])
        .collect();
    let x0: Vec<[f64; LANES]> = (0..2)
        .map(|i| std::array::from_fn(|l| starts[l][i]))
        .collect();
    let mut visited: Vec<Vec<[f64; LANES]>> = Vec::new();
    let mut buf = Default::default();
    sim.rollout_lanes(&x0, &k, 7, &mut buf, |x| visited.push(x.to_vec()));
    for (l, s) in starts.iter().enumerate() {
        let traj = sim.rollout(s, &k, 7);
        assert_eq!(traj.fine_states.len(), visited.len());
        for (want, got) in traj.fine_states.iter().zip(&visited) {
            for (i, w) in want.iter().enumerate() {
                assert_eq!(w.to_bits(), got[i][l].to_bits(), "lane {l} component {i}");
            }
        }
    }
}
