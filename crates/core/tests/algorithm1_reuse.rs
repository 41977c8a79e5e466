//! Algorithm 1 asks its oracles about each parameter point at most once.
//!
//! The learner carries the verifier's answer for `θ` from one iteration to
//! the next, reuses the rigorous answer it already holds at acceptance, and
//! reuses the coordinate gradient at an unchanged `θ`. Those shortcuts must
//! change nothing but the number of oracle queries:
//!
//! * the golden table pins, bit for bit, the learned parameters, the
//!   iteration count, the verdict, every per-iteration metric and the final
//!   flowpipe of a spread of ACC, Van der Pol and 3-D runs — values recorded
//!   before the reuse existed, when every repeat still went to the oracle;
//! * a counting oracle proves an Off-mode run never queries the same
//!   parameter bits twice and that acceptance adds no query;
//! * a surrogate run that ends unconfirmed pays exactly one rigorous
//!   acceptance call.

use dwv_core::{
    AbstractionKind, Algorithm1, GradientEstimator, LearnConfig, LearnOutcome, MetricKind,
    PortfolioMode,
};
use dwv_dynamics::{acc, oscillator, three_dim, Controller, LinearController};
use dwv_reach::{DependencyTracking, Flowpipe, LinearReach, TaylorReachConfig};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::sync::Mutex;

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn flowpipe_words(fp: &Flowpipe) -> Vec<u64> {
    let mut words = Vec::new();
    for s in fp.steps() {
        words.push(s.t0.to_bits());
        words.push(s.t1.to_bits());
        for iv in s.enclosure.intervals().iter().chain(s.end_box.intervals()) {
            words.push(iv.lo().to_bits());
            words.push(iv.hi().to_bits());
        }
    }
    words
}

/// Everything a run must reproduce, verifier-call counts excepted:
/// `iterations|verdict|params|per-record metrics|final flowpipe`, the last
/// three as FNV-1a hashes of their IEEE bits.
fn signature<C: Controller>(o: &LearnOutcome<C>) -> String {
    let params = fnv(o.controller.params().iter().map(|p| p.to_bits()));
    let records = fnv(o.trace.records().iter().flat_map(|r| {
        [
            r.iteration as u64,
            r.unsafe_metric.to_bits(),
            r.goal_metric.to_bits(),
            u64::from(r.reach_avoid),
            r.remainder_width.to_bits(),
        ]
    }));
    let flowpipe = o.flowpipe.as_ref().map_or(0, |fp| fnv(flowpipe_words(fp)));
    format!(
        "{}|{}|{params:016x}|{records:016x}|{flowpipe:016x}",
        o.iterations, o.verified
    )
}

fn acc_config(seed: u64, estimator: GradientEstimator, surrogate: bool) -> LearnConfig {
    let mut b = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .max_updates(60)
        .perturbation(0.01)
        .estimator(estimator)
        .seed(seed);
    if surrogate {
        b = b.portfolio(PortfolioMode::Surrogate { confirm_every: 5 });
    }
    b.build()
}

fn nn_config(seed: u64, abstraction: AbstractionKind, scale: f64) -> LearnConfig {
    LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .max_updates(3)
        .perturbation(0.02)
        .estimator(GradientEstimator::Spsa { samples: 1 })
        .seed(seed)
        .nn_hidden(vec![8])
        .nn_output_scale(scale)
        .abstraction(abstraction)
        .verifier(TaylorReachConfig {
            dependency: DependencyTracking::BoxReinit,
            ..TaylorReachConfig::default()
        })
        .build()
}

/// Signatures recorded when every repeated query still ran the verifier.
const GOLDEN: &[(&str, &str)] = &[
    (
        "acc/off/coordinate/1",
        "25|reach-avoid|227a092a0a3eb55e|89dc39637b0e7e45|a303bb91bbb6ecc8",
    ),
    (
        "acc/off/coordinate/2",
        "60|Unsafe|b093fe55c261a36c|f64b865aa769f78e|6517df9ed9d8311c",
    ),
    (
        "acc/off/spsa1/1",
        "28|reach-avoid|7e236a39d623b011|bda6453d5476b8a5|59baac4aed961ae3",
    ),
    (
        "acc/off/spsa1/2",
        "60|Unsafe|ef988ad5ecf5f2e6|b2c3513fd46469e1|c1e1be0dd432bae1",
    ),
    (
        "acc/surrogate/coordinate/1",
        "25|reach-avoid|3341855306d6e455|c98654e0baecb7a5|ee66c97738f228fd",
    ),
    (
        "acc/surrogate/coordinate/2",
        "60|Unsafe|b7f5bb583741a40e|438ec15cdbef18cf|2e912ff5dd7833c6",
    ),
    (
        "acc/surrogate/spsa1/1",
        "60|Unsafe|3b3194cfbca3f78b|e02410caba7192b1|b3e8e0e3be7ac605",
    ),
    (
        "acc/surrogate/spsa1/2",
        "60|Unsafe|ef988ad5ecf5f2e6|01abfcf43a6a65f3|c1e1be0dd432bae1",
    ),
    (
        "vdp/polar/1",
        "3|Unsafe|54705577a37c1be0|0975523493a041da|e17b4a6a2c65f2ba",
    ),
    (
        "vdp/polar/2",
        "3|Unsafe|82f9bbd074b277c6|c34868a026b999e5|c42f6229eb3e4311",
    ),
    (
        "vdp/bernstein/1",
        "3|Unsafe|0ef166f1a66a0cd9|e05cf9a67d70fe25|0000000000000000",
    ),
    (
        "3d/polar/1",
        "3|Unsafe|4a812ce6decc8ec5|2b59d26abff1b347|e948b108d62d6703",
    ),
    (
        "3d/polar/3",
        "3|Unknown|61c367d4369b37cf|0f19bc58ae0faafd|01b7b92da0569979",
    ),
    (
        "3d/bernstein/3",
        "3|reach-avoid|b156173aac7210f3|e257a77c8d66617d|e727e93311c52842",
    ),
];

fn golden_cases() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let estimators = [
        ("coordinate", GradientEstimator::Coordinate),
        ("spsa1", GradientEstimator::Spsa { samples: 1 }),
    ];
    for surrogate in [false, true] {
        for (est_name, est) in estimators {
            for seed in [1u64, 2] {
                let mode = if surrogate { "surrogate" } else { "off" };
                let o =
                    Algorithm1::new(acc::reach_avoid_problem(), acc_config(seed, est, surrogate))
                        .learn_linear()
                        .expect("ACC is affine");
                out.push((format!("acc/{mode}/{est_name}/{seed}"), signature(&o)));
            }
        }
    }
    let polar = AbstractionKind::Polar { order: 2 };
    let bernstein = AbstractionKind::Bernstein { degree: 2 };
    let nn_cases = [
        ("vdp/polar/1", polar, 1u64),
        ("vdp/polar/2", polar, 2),
        ("vdp/bernstein/1", bernstein, 1),
        ("3d/polar/1", polar, 1),
        ("3d/polar/3", polar, 3),
        ("3d/bernstein/3", bernstein, 3),
    ];
    for (name, abstraction, seed) in nn_cases {
        let o = if name.starts_with("vdp") {
            Algorithm1::new(
                oscillator::reach_avoid_problem(),
                nn_config(seed, abstraction, 1.0),
            )
        } else {
            Algorithm1::new(
                three_dim::reach_avoid_problem(),
                nn_config(seed, abstraction, 2.0),
            )
        }
        .learn_nn();
        out.push((name.to_string(), signature(&o)));
    }
    out
}

#[test]
fn learning_matches_golden_bits() {
    let actual = golden_cases();
    let listing: String = actual
        .iter()
        .map(|(name, sig)| format!("    (\"{name}\", \"{sig}\"),\n"))
        .collect();
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "golden table out of date; actual:\n{listing}"
    );
    for ((name, sig), (g_name, g_sig)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, g_name, "case order changed; actual:\n{listing}");
        assert_eq!(sig, g_sig, "{name} drifted; actual:\n{listing}");
    }
}

fn fresh_linear(rng: &mut StdRng) -> LinearController {
    LinearController::new(2, 1, (0..2).map(|_| rng.gen_range(-2.0..2.0)).collect())
}

#[test]
fn off_mode_never_asks_twice_and_acceptance_adds_no_query() {
    for seed in [1u64, 2, 5] {
        let problem = acc::reach_avoid_problem();
        let reach = LinearReach::for_problem(&problem).expect("ACC is affine");
        let config = acc_config(seed, GradientEstimator::Coordinate, false);
        let alg = Algorithm1::new(problem, config);
        let asked: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
        let oracle = |c: &LinearController| {
            let bits = c.params().iter().map(|p| p.to_bits()).collect();
            asked.lock().expect("unpoisoned").push(bits);
            reach.reach(c)
        };
        let outcome = alg.learn_with_restarts(None, &oracle, &mut fresh_linear);
        let asked = asked.into_inner().expect("unpoisoned");
        let distinct: HashSet<&Vec<u64>> = asked.iter().collect();
        assert_eq!(
            distinct.len(),
            asked.len(),
            "seed {seed}: some parameter bits were verified twice"
        );
        // The trace bills every query the loop made; acceptance asks none.
        assert_eq!(
            asked.len(),
            outcome.trace.total_verifier_calls(),
            "seed {seed}"
        );
        // The public generic loop and the porcelain learn the same thing.
        let porcelain = alg.learn_linear().expect("ACC is affine");
        assert_eq!(signature(&outcome), signature(&porcelain), "seed {seed}");
    }
}

#[test]
fn unconfirmed_surrogate_run_pays_one_rigorous_acceptance_call() {
    // Three updates from a start the cheap tiers never call reach-avoid,
    // with no stop-check due: the loop never consults the rigorous tier,
    // so the acceptance has no rigorous answer to reuse and asks once.
    let config = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .max_updates(3)
        .perturbation(0.01)
        .estimator(GradientEstimator::Coordinate)
        .seed(1)
        .portfolio(PortfolioMode::Surrogate {
            confirm_every: 1000,
        })
        .build();
    let outcome = Algorithm1::new(acc::reach_avoid_problem(), config)
        .learn_linear_from(LinearController::new(2, 1, vec![0.2, -0.5]))
        .expect("ACC is affine");
    assert_eq!(outcome.iterations, 3, "the run must end unconfirmed");
    assert!(!outcome.verified.is_reach_avoid());
    let stats = outcome.portfolio.expect("surrogate mode reports stats");
    let in_loop: u64 = outcome
        .trace
        .records()
        .iter()
        .map(|r| r.tier_calls.last().copied().unwrap_or(0))
        .sum();
    assert_eq!(in_loop, 0, "no confirmation or stop-check ran");
    assert_eq!(stats.calls_by_tier.last().copied(), Some(1));
}
