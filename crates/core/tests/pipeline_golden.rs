//! The design porcelain's outputs, pinned bit for bit.
//!
//! Every `design_while_verify_*` call learns through and certifies through
//! a verifier portfolio: a one-tier portfolio (just the rigorous backend)
//! in `PortfolioMode::Off`, the cheap-tier stack in `Surrogate`. The golden
//! table pins, per case, FNV-1a hashes of everything a run reports — the
//! learned parameters, the report CSV, the certified `X_I` cell bits and
//! Algorithm 2's verifier bill, the learning trace CSV (wall-clock column
//! zeroed), both portfolio bills and the provenance CSV — as recorded when
//! `Off` still called hand-built backends directly.
//!
//! A served `AssessLinear` job is held to the report that `assess` builds
//! on a per-cell oracle re-discretising the dynamics for every cell.

use dwv_core::parallel::CancelToken;
use dwv_core::{
    assess, design_while_verify_linear, design_while_verify_nn, AbstractionKind, GradientEstimator,
    LearnConfig, LearningTrace, MetricKind, PipelineOutcome, PortfolioMode, WorkerPool,
};
use dwv_dynamics::{acc, oscillator, three_dim, Controller, LinearController};
use dwv_interval::IntervalBox;
use dwv_reach::{DependencyTracking, LinearReach, ReachCache, TaylorReachConfig};
use dwv_serve::{run_job, JobKind, JobSpec, ProblemId};
use std::time::Duration;

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv_str(s: &str) -> u64 {
    fnv(s.bytes())
}

fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv(words.into_iter().flat_map(u64::to_le_bytes))
}

fn cell_words(cells: &[IntervalBox]) -> Vec<u64> {
    cells
        .iter()
        .flat_map(|c| c.intervals().iter().flat_map(|iv| [iv.lo(), iv.hi()]))
        .map(f64::to_bits)
        .collect()
}

/// The learning trace CSV with the wall-clock column zeroed.
fn trace_csv(trace: &LearningTrace) -> String {
    let mut timeless = LearningTrace::new();
    for r in trace.records() {
        let mut r = r.clone();
        r.elapsed = Duration::ZERO;
        timeless.push(r);
    }
    timeless.to_csv()
}

/// `verdict|alg2 calls|params|report|X_I cells|trace|learn bill|sweep
/// bill|provenance`, the last seven as FNV-1a hashes.
fn signature<C: Controller>(o: &PipelineOutcome<C>) -> String {
    let params = fnv_words(o.learning.controller.params().iter().map(|p| p.to_bits()));
    let (alg2_calls, cells) = o.report.initial_set.as_ref().map_or((0, 0), |s| {
        (s.verifier_calls, fnv_words(cell_words(&s.cells)))
    });
    let report = fnv_str(&o.report.to_csv());
    let trace = fnv_str(&trace_csv(&o.learning.trace));
    let learn_bill = fnv_str(&format!("{:?}", o.learning.portfolio));
    let sweep_bill = fnv_str(&format!("{:?}", o.sweep_portfolio));
    let provenance = fnv_str(
        &o.report
            .provenance
            .as_ref()
            .map_or_else(String::new, |p| p.to_csv()),
    );
    format!(
        "{}|{alg2_calls}|{params:016x}|{report:016x}|{cells:016x}|{trace:016x}|\
         {learn_bill:016x}|{sweep_bill:016x}|{provenance:016x}",
        o.report.verdict
    )
}

fn acc_config(mode: PortfolioMode) -> LearnConfig {
    LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .max_updates(60)
        .perturbation(0.01)
        .estimator(GradientEstimator::Coordinate)
        .seed(1)
        .portfolio(mode)
        .build()
}

fn nn_config(
    seed: u64,
    abstraction: AbstractionKind,
    scale: f64,
    mode: PortfolioMode,
) -> LearnConfig {
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
        .portfolio(mode)
        .build()
}

const SURROGATE: PortfolioMode = PortfolioMode::Surrogate { confirm_every: 5 };

/// Signatures recorded when `PortfolioMode::Off` learned and certified on
/// hand-built backends.
const GOLDEN: &[(&str, &str)] = &[
    (
        "acc/off",
        "reach-avoid|1|227a092a0a3eb55e|19a444dd8e612207|b150bb60711ecc4e|17249d9ef8c2f89b|669b18c6d2d9c95b|669b18c6d2d9c95b|cbf29ce484222325",
    ),
    (
        "acc/surrogate5",
        "reach-avoid|1|3341855306d6e455|66fca6e098c7fbed|b150bb60711ecc4e|9b420fb5834dd01d|95734828009f6f70|0a2e3ab7a9bf540b|4f10d72558bbc6a2",
    ),
    (
        "vdp/polar/off",
        "Unsafe|0|54705577a37c1be0|3b607dc63afebf3e|0000000000000000|fb5ca56b0bf2a8e5|669b18c6d2d9c95b|669b18c6d2d9c95b|cbf29ce484222325",
    ),
    (
        "vdp/bernstein/off",
        "Unsafe|0|0ef166f1a66a0cd9|182c444d0c8065e5|0000000000000000|c94ecbe70d5e00eb|669b18c6d2d9c95b|669b18c6d2d9c95b|cbf29ce484222325",
    ),
    (
        "vdp/polar/surrogate5",
        "Unsafe|0|0ef166f1a66a0cd9|dfe6a9c661ce580f|0000000000000000|be0b86a28663c6f7|7a23fc2cf04dc6e6|4d1868b29300b7d6|4984d1b460c00cda",
    ),
    (
        "3d/polar/off",
        "Unsafe|0|4a812ce6decc8ec5|b2e62fb873e86744|0000000000000000|572c5f9dfd927025|669b18c6d2d9c95b|669b18c6d2d9c95b|cbf29ce484222325",
    ),
    (
        "3d/bernstein/off",
        "reach-avoid|31|b156173aac7210f3|888824ed2dcd1284|fa9ed494092674f3|e194fcfe291d030c|669b18c6d2d9c95b|669b18c6d2d9c95b|cbf29ce484222325",
    ),
];

fn golden_cases() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (name, mode) in [
        ("acc/off", PortfolioMode::Off),
        ("acc/surrogate5", SURROGATE),
    ] {
        let o = design_while_verify_linear(acc::reach_avoid_problem(), acc_config(mode))
            .expect("ACC is affine");
        out.push((name.to_string(), signature(&o)));
    }
    let polar = AbstractionKind::Polar { order: 2 };
    let bernstein = AbstractionKind::Bernstein { degree: 2 };
    let nn_cases = [
        ("vdp/polar/off", polar, 1u64, PortfolioMode::Off),
        ("vdp/bernstein/off", bernstein, 1, PortfolioMode::Off),
        ("vdp/polar/surrogate5", polar, 1, SURROGATE),
        ("3d/polar/off", polar, 1, PortfolioMode::Off),
        ("3d/bernstein/off", bernstein, 3, PortfolioMode::Off),
    ];
    for (name, abstraction, seed, mode) in nn_cases {
        let o = if name.starts_with("vdp") {
            design_while_verify_nn(
                oscillator::reach_avoid_problem(),
                nn_config(seed, abstraction, 1.0, mode),
            )
        } else {
            design_while_verify_nn(
                three_dim::reach_avoid_problem(),
                nn_config(seed, abstraction, 2.0, mode),
            )
        };
        out.push((name.to_string(), signature(&o)));
    }
    out
}

#[test]
fn pipeline_matches_golden_bits() {
    let actual = golden_cases();
    let listing: String = actual
        .iter()
        .map(|(name, sig)| format!("    (\n        \"{name}\",\n        \"{sig}\",\n    ),\n"))
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

/// `assess` on an oracle that builds a fresh `LinearReach` for every cell.
fn per_cell_report(gains: &[f64]) -> String {
    let problem = acc::reach_avoid_problem();
    let (a, b, c) = problem.dynamics.linear_parts().expect("ACC is affine");
    let (delta, steps) = (problem.delta, problem.horizon_steps);
    let k = LinearController::new(2, 1, gains.to_vec());
    assess(&problem, &k, |cell: &IntervalBox| {
        LinearReach::new(&a, &b, &c, cell.clone(), delta, steps).reach(&k)
    })
    .to_csv()
}

#[test]
fn served_assess_linear_matches_a_per_cell_oracle() {
    let pool = WorkerPool::new(2);
    let cache = ReachCache::new();
    let cancel = CancelToken::new();
    // A certifying controller (Algorithm 2 sweeps cells) and an unsafe one.
    for gains in [vec![0.5867, -2.0], vec![0.2, -0.5]] {
        let spec = JobSpec {
            problem: ProblemId::Acc,
            kind: JobKind::AssessLinear {
                gains: gains.clone(),
            },
        };
        // Twice: the second run is answered from the warm tenant cache.
        for _ in 0..2 {
            let out = run_job(&spec, 7, &pool, &cache, &cancel).expect("valid spec");
            let csv = String::from_utf8(out.report_csv.expect("AssessLinear reports"))
                .expect("CSV is UTF-8");
            assert_eq!(csv, per_cell_report(&gains), "gains {gains:?}");
        }
    }
    assert!(cache.hits() > 0, "the repeat must hit the tenant cache");
}
