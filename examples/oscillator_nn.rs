//! Learning a verified neural-network controller for Van der Pol's
//! oscillator (paper §4, Fig. 7).
//!
//! ```sh
//! cargo run --release --example oscillator_nn            # POLAR
//! cargo run --release --example oscillator_nn -- reachnn # ReachNN
//! ```
//!
//! Uses the POLAR-style Taylor-model abstraction inside the verifier, or the
//! ReachNN-style Bernstein fit with `reachnn`; the learned ReLU/Tanh network
//! is guaranteed to keep the (verified subset of the) initial set out of the
//! unsafe box while reaching the goal box. With `DWV_TRACE` set, each
//! flowpipe's `reach.run` span has one `reach.abstract` child per step, so
//! `dwv-trace` splits verification time into abstraction and flow steps.

use design_while_verify::core::{
    AbstractionKind, Algorithm1, Algorithm2, GradientEstimator, LearnConfig, MetricKind,
};
use design_while_verify::dynamics::{eval::rates, oscillator};
use design_while_verify::obs;
use design_while_verify::reach::{
    BernsteinAbstraction, DependencyTracking, TaylorAbstraction, TaylorReach, TaylorReachConfig,
};

fn main() {
    let tracing = obs::init_from_env();
    let reachnn = std::env::args().nth(1).as_deref() == Some("reachnn");
    let problem = oscillator::reach_avoid_problem();
    println!(
        "system: Van der Pol oscillator  (X0 = {}, unsafe = {}, goal = {})",
        problem.x0, problem.unsafe_region, problem.goal_region
    );

    let config = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .max_updates(300)
        .perturbation(0.02)
        .estimator(GradientEstimator::Spsa { samples: 2 })
        .seed(3)
        .nn_hidden(vec![8])
        .abstraction(if reachnn {
            AbstractionKind::Bernstein { degree: 2 }
        } else {
            AbstractionKind::Polar { order: 2 }
        })
        .verifier(verifier_config())
        .build();

    let outcome = Algorithm1::new(problem.clone(), config).learn_nn();
    println!(
        "verdict {} after {} iterations",
        outcome.verified, outcome.iterations
    );
    if !outcome.verified.is_reach_avoid() {
        println!("learning did not converge with this seed; try another");
        finish(tracing);
        return;
    }

    let r = rates(&problem, &outcome.controller, 500, 42);
    println!(
        "simulated: SC {:.1}%  GR {:.1}%",
        r.safe_rate * 100.0,
        r.goal_rate * 100.0
    );

    // Algorithm 2: which initial states are *formally* guaranteed?
    let controller = outcome.controller.clone();
    let search = Algorithm2::new(&problem).with_max_rounds(4).search(|cell| {
        if reachnn {
            TaylorReach::new(
                &problem,
                BernsteinAbstraction::with_degree(2),
                verifier_config(),
            )
            .with_initial_set(cell.clone())
            .reach(&controller)
        } else {
            TaylorReach::new(
                &problem,
                TaylorAbstraction::with_order(2),
                verifier_config(),
            )
            .with_initial_set(cell.clone())
            .reach(&controller)
        }
    });
    println!("{search}");
    if let Some(bb) = search.bounding_box() {
        println!("X_I bounding box: {bb}");
    }
    finish(tracing);
}

/// The flowpipe settings shared by learning and the initial-set search.
fn verifier_config() -> TaylorReachConfig {
    TaylorReachConfig {
        dependency: DependencyTracking::BoxReinit,
        ..TaylorReachConfig::default()
    }
}

/// Closes the trace stream (if any) and prints the metrics summary.
fn finish(tracing: bool) {
    if tracing {
        obs::emit_snapshot();
        obs::flush();
        println!("{}", obs::summary());
    }
}
