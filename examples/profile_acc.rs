//! Profiling a full design-while-verify run: learn an ACC controller with
//! the tiered verifier portfolio answering the probe queries, certify it
//! with the decisive sweep, and stream a JSONL trace.
//!
//! ```sh
//! DWV_TRACE=trace.jsonl cargo run --release --example profile_acc
//! cargo run --release -p dwv-trace -- trace.jsonl --check-bill BENCH_core.json
//! ```
//!
//! The run is the exact configuration behind `BENCH_core.json`'s
//! `verifier_calls_by_tier` section (geometric metric, 200 updates,
//! seed 7, surrogate portfolio confirming every 5th iteration), so the
//! per-tier call counters in the trace reconcile against the recorded
//! baseline. With `DWV_TRACE` unset the run is identical (bit-for-bit —
//! tracing is pure observation) but emits no trace.
//!
//! `DWV_FLIGHT=dump.jsonl` additionally arms the flight recorder's
//! panic-hook dump, and `DWV_FORCE_PANIC=1` panics mid-run inside an open
//! span — together they exercise the post-mortem path end to end:
//!
//! ```sh
//! DWV_FLIGHT=dump.jsonl DWV_FORCE_PANIC=1 cargo run --release --example profile_acc
//! cargo run --release -p dwv-trace -- --check-flight dump.jsonl
//! ```

use design_while_verify::core::{
    design_while_verify_linear, LearnConfig, MetricKind, PortfolioMode,
};
use design_while_verify::dynamics::acc;
use design_while_verify::obs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tracing = obs::init_from_env();
    if tracing {
        println!("tracing to {}", std::env::var("DWV_TRACE").unwrap());
    } else {
        println!("tracing off (set DWV_TRACE=path to stream a JSONL trace)");
    }

    // Mirrors bench_core's portfolio_bill() configuration exactly: the
    // trace's portfolio.tier*.calls counters must reconcile against the
    // learn + sweep calls recorded in BENCH_core.json.
    let problem = acc::reach_avoid_problem();
    let config = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .max_updates(200)
        .seed(7)
        .portfolio(PortfolioMode::Surrogate { confirm_every: 5 })
        .build();

    if std::env::var("DWV_FORCE_PANIC").is_ok_and(|v| v == "1") {
        let _doomed = obs::span("profile.doomed");
        panic!("DWV_FORCE_PANIC=1: exercising the flight-recorder dump path");
    }

    let outcome = design_while_verify_linear(problem, config)?;
    println!(
        "learned: {} after {} iterations ({} verifier calls)",
        outcome.learning.verified,
        outcome.learning.iterations,
        outcome.learning.trace.total_verifier_calls(),
    );
    if let Some(stats) = &outcome.learning.portfolio {
        println!("learn bill     : {:?} calls by tier", stats.calls_by_tier);
    }
    if let Some(stats) = &outcome.sweep_portfolio {
        println!("sweep bill     : {:?} calls by tier", stats.calls_by_tier);
    }

    // Per-iteration verifier calls, enclosure widths and per-tier
    // verifier calls ride in the trace CSV.
    let csv = outcome.learning.trace.to_csv();
    println!(
        "trace CSV: {} rows, header: {}",
        csv.lines().count() - 1,
        csv.lines().next().unwrap_or("")
    );

    println!("{}", outcome.report);

    if tracing {
        // Close the stream with a full metrics snapshot line.
        obs::emit_snapshot();
        obs::flush();
    }
    println!("{}", obs::summary());
    Ok(())
}
