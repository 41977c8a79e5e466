//! The repository's benchmark: end-to-end and per-layer timings of the
//! design-while-verify stack on three seeded workloads.
//!
//! ```text
//! perfbench --workload <design_acc|design_nn|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`). With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run times the
//! workload again inside benchmark-owned spans and adds the per-layer
//! timers. The line before it is the run record (host, toolchain, sample
//! counts, spreads, counts, span self times), also written to
//! `.perfbench_out/`.

mod calib;
mod design;
mod layers;
mod meta;
mod report;
mod rng;
mod serve;
mod spans;
mod stats;

use report::RunResult;
use stats::{json_str, Obj};
use std::path::Path;

const WORKLOADS: &[&str] = &["design_acc", "design_nn", "serve_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(".perfbench_out");
    let build = meta::build_id();
    let mut res: RunResult = match args.workload.as_str() {
        "design_acc" => design::run(false, args.seed, args.seconds, args.trace, out_dir, &build),
        "design_nn" => design::run(true, args.seed, args.seconds, args.trace, out_dir, &build),
        _ => serve::run(args.seed, args.seconds, args.trace, out_dir),
    };
    if args.trace {
        layers::run(&mut res);
    }
    if let Some(bad) = res.metrics.iter().find(|m| !m.value.is_finite()) {
        let msg = format!("metric {} is not finite", bad.name);
        res.attempted += 1;
        res.fail(msg);
    }

    let mut details = Obj::new();
    for (k, v) in &res.details {
        details.raw(k, v.clone());
    }
    let mut record = Obj::new();
    record
        .raw(
            "run",
            meta::collect(&args.workload, args.seed, args.seconds, args.trace, &build).render(),
        )
        .raw("metrics", res.metrics_table())
        .raw("details", details.render())
        .num(
            "failed_frac",
            res.failed as f64 / res.attempted.max(1) as f64,
        )
        .raw("failures", res.failures_json());
    let record = record.render();
    let _ = std::fs::create_dir_all(out_dir);
    let _ = std::fs::write(
        out_dir.join(format!(
            "run-{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        )),
        format!("{record}\n"),
    );
    for f in &res.failures {
        eprintln!("perfbench: FAILED: {f}");
    }

    let mut metrics = Obj::new();
    for m in &res.metrics {
        let mut e = Obj::new();
        e.num("value", m.value).raw("unit", json_str(m.unit));
        metrics.raw(&m.name, e.render());
    }
    let mut result = Obj::new();
    result
        .bool("correct", res.failed == 0)
        .int("attempted", res.attempted.max(1))
        .int("failed", res.failed)
        .raw("metrics", metrics.render());
    println!("{record}");
    println!("{}", result.render());
}
