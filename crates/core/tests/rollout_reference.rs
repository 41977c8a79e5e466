//! `judge`, `rates`, `find_counterexample` and `assess` against naive
//! references that materialise every rollout.
//!
//! The references are the one-rollout-at-a-time loops these functions were
//! built on before they became folds over the lockstep engine: `judge` ran
//! all its rollouts through the rate estimator, and `assess` simulated the
//! same seeded stream three times (judge 500, rates 500, counterexample
//! 200). Verdicts, rates, counterexamples and report bytes must not move.
//! The last tests feed NaN and infinite gains and NaN network weights
//! through the same entry points: no panic, `Unsafe` or `Unknown`, rates in
//! `[0, 1]`.

use dwv_core::{
    assess, find_counterexample, judge, Algorithm2, Counterexample, Verdict, VerificationReport,
    ViolationKind,
};
use dwv_dynamics::eval::{rates, RateReport};
use dwv_dynamics::simulate::Simulator;
use dwv_dynamics::{
    acc, oscillator, three_dim, Controller, LinearController, NnController, ReachAvoidProblem,
};
use dwv_interval::IntervalBox;
use dwv_metrics::GeometricMetric;
use dwv_nn::{Activation, Network};
use dwv_reach::{DependencyTracking, TaylorReachConfig};
use dwv_reach::{Flowpipe, LinearReach, ReachError, TaylorAbstraction, TaylorReach};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x0A55E55;
const COUNTS: [usize; 6] = [1, 7, 8, 9, 200, 500];

/// One reference rollout: the initial state and its materialised fine
/// trajectory.
type Rollout = (Vec<f64>, Vec<Vec<f64>>);

/// The first `n` rollouts of the seeded stream.
fn reference_rollouts(
    problem: &ReachAvoidProblem,
    controller: &dyn Controller,
    n: usize,
) -> Vec<Rollout> {
    let sim = Simulator::new(problem.dynamics.clone(), problem.delta);
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..n)
        .map(|_| {
            let x0: Vec<f64> = (0..problem.x0.dim())
                .map(|i| {
                    let iv = problem.x0.interval(i);
                    rng.gen_range(iv.lo()..=iv.hi())
                })
                .collect();
            let fine = sim
                .rollout(&x0, controller, problem.horizon_steps)
                .fine_states;
            (x0, fine)
        })
        .collect()
}

fn reference_rates(problem: &ReachAvoidProblem, rollouts: &[Rollout]) -> RateReport {
    let (mut safe, mut goal, mut both) = (0usize, 0usize, 0usize);
    for (_, fine) in rollouts {
        let is_safe = !fine.iter().any(|x| problem.unsafe_region.contains_point(x));
        let reaches = fine.iter().any(|x| problem.goal_region.contains_point(x));
        safe += usize::from(is_safe);
        goal += usize::from(reaches);
        both += usize::from(is_safe && reaches);
    }
    let n = rollouts.len();
    RateReport {
        safe_rate: safe as f64 / n as f64,
        goal_rate: goal as f64 / n as f64,
        reach_avoid_rate: both as f64 / n as f64,
        n_samples: n,
    }
}

fn reference_judge(
    problem: &ReachAvoidProblem,
    attempt: &Result<Flowpipe, ReachError>,
    rollouts: &[Rollout],
) -> Verdict {
    if let Ok(fp) = attempt {
        if GeometricMetric::for_problem(problem)
            .evaluate(fp)
            .is_reach_avoid()
        {
            return Verdict::ReachAvoid;
        }
    }
    let r = reference_rates(problem, rollouts);
    if r.safe_rate < 1.0 || r.goal_rate < 1.0 {
        Verdict::Unsafe
    } else {
        Verdict::Unknown
    }
}

fn reference_counterexample(
    problem: &ReachAvoidProblem,
    rollouts: &[Rollout],
) -> Option<Counterexample> {
    let fine_dt = problem.delta / 10.0;
    let mut best: Option<Counterexample> = None;
    for (x0, fine) in rollouts {
        let mut reached = false;
        let mut unsafe_hit = None;
        for (idx, x) in fine.iter().enumerate() {
            if problem.unsafe_region.contains_point(x) {
                unsafe_hit = Some((idx, x.clone()));
                break;
            }
            reached |= problem.goal_region.contains_point(x);
        }
        let candidate = match unsafe_hit {
            Some((idx, state)) => Counterexample {
                x0: x0.clone(),
                kind: ViolationKind::EntersUnsafe,
                time: idx as f64 * fine_dt,
                state,
            },
            None if !reached => Counterexample {
                x0: x0.clone(),
                kind: ViolationKind::MissesGoal,
                time: problem.horizon(),
                state: fine.last().cloned().unwrap_or_default(),
            },
            None => continue,
        };
        let rank = |c: &Counterexample| (u8::from(c.kind != ViolationKind::EntersUnsafe), c.time);
        if best.as_ref().is_none_or(|b| rank(&candidate) < rank(b)) {
            best = Some(candidate);
        }
    }
    best
}

/// The three-pass report `assess` used to assemble: judge and rates over
/// the first 500 rollouts, the counterexample over the first 200.
fn reference_assess(
    problem: &ReachAvoidProblem,
    controller: &dyn Controller,
    mut verify: impl FnMut(&IntervalBox) -> Result<Flowpipe, ReachError>,
) -> VerificationReport {
    let rollouts = reference_rollouts(problem, controller, 500);
    let attempt = verify(&problem.x0);
    let verdict = reference_judge(problem, &attempt, &rollouts);
    let initial_set = verdict.is_reach_avoid().then(|| {
        Algorithm2::new(problem)
            .with_max_rounds(4)
            .search(|cell| verify(cell))
    });
    let rates = reference_rates(problem, &rollouts);
    let counterexample = if rates.is_perfect() {
        None
    } else {
        reference_counterexample(problem, &rollouts[..200])
    };
    VerificationReport {
        verdict,
        initial_set,
        rates,
        counterexample,
        metrics: None,
        provenance: None,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_counterexample(
    got: Option<&Counterexample>,
    want: Option<&Counterexample>,
    ctx: &str,
) {
    let key = |c: &Counterexample| (bits(&c.x0), c.kind, c.time.to_bits(), bits(&c.state));
    assert_eq!(got.map(key), want.map(key), "{ctx}: counterexample");
}

/// Tuned, zero, borderline, NaN-gain and infinite-gain linear controllers
/// plus a seeded NN, per system.
fn controllers(problem: &ReachAvoidProblem) -> Vec<(&'static str, Box<dyn Controller>)> {
    let n = problem.n_state();
    let (tuned, borderline): (Vec<f64>, Vec<f64>) = match problem.dynamics.name() {
        "acc" => (vec![0.5867, -2.0], vec![0.25, -0.75]),
        "oscillator" => (vec![-0.5, -1.5], vec![0.0, -2.25]),
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

fn problems() -> Vec<(String, ReachAvoidProblem)> {
    let mut out = Vec::new();
    for (name, p) in [
        ("acc", acc::reach_avoid_problem()),
        ("vdp", oscillator::reach_avoid_problem()),
        ("3d", three_dim::reach_avoid_problem()),
    ] {
        for steps in [0, 1] {
            let mut short = p.clone();
            short.horizon_steps = steps;
            out.push((format!("{name}/T={steps}"), short));
        }
        out.push((name.to_string(), p));
    }
    out
}

#[test]
fn judge_rates_and_counterexample_match_reference() {
    let no_flowpipe: Result<Flowpipe, ReachError> = Err(ReachError::Unsupported("test".into()));
    for (sys, p) in problems() {
        for (name, ctrl) in controllers(&p) {
            let ctrl = ctrl.as_ref();
            let all = reference_rollouts(&p, ctrl, 500);
            for n in COUNTS {
                let ctx = format!("{sys}/{name}/n={n}");
                let want = &all[..n];
                assert_eq!(
                    rates(&p, ctrl, n, SEED),
                    reference_rates(&p, want),
                    "{ctx}: rates"
                );
                assert_eq!(
                    judge(&p, ctrl, &no_flowpipe, n, SEED),
                    reference_judge(&p, &no_flowpipe, want),
                    "{ctx}: verdict"
                );
                assert_same_counterexample(
                    find_counterexample(&p, ctrl, n, SEED).as_ref(),
                    reference_counterexample(&p, want).as_ref(),
                    &ctx,
                );
            }
        }
    }
}

fn acc_oracle(
    problem: &ReachAvoidProblem,
    k: &LinearController,
) -> impl FnMut(&IntervalBox) -> Result<Flowpipe, ReachError> {
    let (a, b, c) = problem.dynamics.linear_parts().expect("affine");
    let k = k.clone();
    let (delta, steps) = (problem.delta, problem.horizon_steps);
    move |cell: &IntervalBox| LinearReach::new(&a, &b, &c, cell.clone(), delta, steps).reach(&k)
}

#[test]
fn assess_csv_matches_three_pass_composition() {
    let p = acc::reach_avoid_problem();
    let gains = [
        vec![0.5867, -2.0],
        vec![0.0, 0.0],
        vec![0.25, -0.75],
        vec![0.0, -2.0],
        // Uncertified; its only violating rollout among the 500 is sample
        // 454, so the verdict is Unsafe but the 200-sample counterexample
        // search finds nothing.
        vec![0.6, -2.0],
        vec![f64::NAN, -2.0],
        vec![0.5867, f64::INFINITY],
    ];
    for g in gains {
        let k = LinearController::new(2, 1, g.clone());
        let got = assess(&p, &k, acc_oracle(&p, &k)).to_csv();
        let want = reference_assess(&p, &k, acc_oracle(&p, &k)).to_csv();
        assert_eq!(got, want, "gains {g:?}");
    }
    // Uncertified NN controllers on the non-linear systems: the verdict
    // comes from simulation alone.
    for p in [
        oscillator::reach_avoid_problem(),
        three_dim::reach_avoid_problem(),
    ] {
        for (name, ctrl) in controllers(&p) {
            let fail = |_: &IntervalBox| Err(ReachError::Unsupported("test".into()));
            let got = assess(&p, ctrl.as_ref(), fail).to_csv();
            let want = reference_assess(&p, ctrl.as_ref(), fail).to_csv();
            assert_eq!(got, want, "{}/{name}", p.dynamics.name());
        }
    }
}

fn assert_not_certified(report: &VerificationReport, ctx: &str) {
    assert!(
        matches!(report.verdict, Verdict::Unsafe | Verdict::Unknown),
        "{ctx}: verdict {}",
        report.verdict
    );
    assert!(report.initial_set.is_none(), "{ctx}: certified X_I");
    let r = report.rates;
    for rate in [r.safe_rate, r.goal_rate, r.reach_avoid_rate] {
        assert!((0.0..=1.0).contains(&rate), "{ctx}: rate {rate}");
    }
}

#[test]
fn non_finite_linear_gains_end_unsafe_or_unknown() {
    let p = acc::reach_avoid_problem();
    for g in [
        vec![f64::NAN, -2.0],
        vec![0.5867, f64::NAN],
        vec![f64::INFINITY, -2.0],
        vec![0.5867, f64::NEG_INFINITY],
        vec![f64::NAN, f64::INFINITY],
    ] {
        let k = LinearController::new(2, 1, g.clone());
        let ctx = format!("gains {g:?}");
        let attempt = acc_oracle(&p, &k)(&p.x0);
        let v = judge(&p, &k, &attempt, 500, SEED);
        assert!(
            matches!(v, Verdict::Unsafe | Verdict::Unknown),
            "{ctx}: {v}"
        );
        let r = rates(&p, &k, 500, SEED);
        assert!((0.0..=1.0).contains(&r.safe_rate) && (0.0..=1.0).contains(&r.goal_rate));
        if let Some(c) = find_counterexample(&p, &k, 200, SEED) {
            assert!(p.x0.contains_point(&c.x0), "{ctx}: {c}");
        }
        assert_not_certified(&assess(&p, &k, acc_oracle(&p, &k)), &ctx);
    }
}

#[test]
fn nan_network_weights_end_unsafe_or_unknown() {
    let p = oscillator::reach_avoid_problem();
    let mut net = Network::new(&[2, 8, 1], Activation::ReLU, Activation::Tanh, 0x5EED);
    let mut theta = net.params();
    theta[0] = f64::NAN;
    net.set_params(&theta);
    let k = NnController::new(net);
    let verifier = TaylorReach::new(
        &p,
        TaylorAbstraction::default(),
        TaylorReachConfig {
            dependency: DependencyTracking::BoxReinit,
            ..TaylorReachConfig::default()
        },
    );
    let attempt = verifier.reach(&k);
    let v = judge(&p, &k, &attempt, 500, SEED);
    assert!(matches!(v, Verdict::Unsafe | Verdict::Unknown), "{v}");
    let r = rates(&p, &k, 500, SEED);
    assert!((0.0..=1.0).contains(&r.safe_rate) && (0.0..=1.0).contains(&r.goal_rate));
    let _ = find_counterexample(&p, &k, 200, SEED);
    let report = assess(&p, &k, |cell: &IntervalBox| verifier.reach_from(cell, &k));
    assert_not_certified(&report, "NaN weights");
}
