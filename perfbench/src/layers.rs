//! Per-layer timers: each metric times one public call of one crate on a
//! fixed fixture, from the benchmark's own code. The fixtures do not
//! depend on the workload, so every traced run reports the same set.

use crate::design::{pairing_name, DesignJob, System, Tool};
use crate::meta::nproc;
use crate::report::{Metric, RunResult};
use crate::stats::median;
use dwv_core::{
    assess, find_counterexample, judge, Algorithm1, Algorithm2, InitialSetSearch, LearnConfig,
};
use dwv_dynamics::{eval::rates, Controller, LinearController, NnController, ReachAvoidProblem};
use dwv_interval::IntervalBox;
use dwv_metrics::GeometricMetric;
use dwv_nn::{Activation, Network};
use dwv_poly::bernstein::RangeCache;
use dwv_poly::{PolyWorkspace, Polynomial};
use dwv_reach::{
    BernsteinAbstraction, Flowpipe, IntervalReach, LinearReach, NnAbstraction, ReachCache,
    TaylorAbstraction, TaylorReach, TaylorReachConfig, ZonotopeReach,
};
use dwv_serve::{Client, Frame, JobKind, JobSpec, ProblemId, ServeConfig, Server};
use dwv_taylor::{unit_domain, TaylorModel, TmVector, TmWorkspace};
use std::hint::black_box;
use std::time::Instant;

/// Median seconds per call of `f`: one warm-up sample, then `samples`
/// samples of `iters` calls each.
fn timed<R>(name: &str, iters: usize, samples: usize, mut f: impl FnMut() -> R) -> Metric {
    let mut times = Vec::with_capacity(samples);
    for s in 0..=samples {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        if s > 0 {
            times.push(t.elapsed().as_secs_f64() / iters as f64);
        }
    }
    Metric::from_samples(name, "s", &times, median)
}

fn count(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric::single(name, unit, value, 1)
}

/// The tuned ACC gains (certified) and the zero controller (Unsafe).
fn acc_fixtures() -> (ReachAvoidProblem, LinearController, LinearController) {
    (
        dwv_dynamics::acc::reach_avoid_problem(),
        LinearController::new(2, 1, vec![0.5867, -2.0]),
        LinearController::zeros(2, 1),
    )
}

/// Learning seeds whose POLAR run certifies within a fraction of a second
/// (VdP seed 5, 3-D seed 1); the learned networks are the NN fixtures.
fn nn_fixture(system: System) -> (ReachAvoidProblem, NnController, LearnConfig) {
    let seed = if system == System::ThreeD { 1 } else { 5 };
    let job = DesignJob::new(0, system, Tool::Polar, false, seed);
    let ctrl = Algorithm1::new(job.problem.clone(), job.config.clone())
        .learn_nn()
        .controller;
    (job.problem, ctrl, job.config)
}

/// An untrained network with the fixture's architecture (Unsafe).
fn untrained(problem: &ReachAvoidProblem, scale: f64) -> NnController {
    NnController::with_output_scale(
        Network::new(
            &[problem.n_state(), 8, problem.n_input()],
            Activation::ReLU,
            Activation::Tanh,
            99,
        ),
        scale,
    )
}

fn nn_reach(
    problem: &ReachAvoidProblem,
    tool: Tool,
    cfg: &TaylorReachConfig,
    ctrl: &NnController,
    cell: &IntervalBox,
) -> Result<Flowpipe, dwv_reach::ReachError> {
    match tool {
        Tool::ReachNn => {
            TaylorReach::new(problem, BernsteinAbstraction::with_degree(2), cfg.clone())
                .reach_from(cell, ctrl)
        }
        _ => TaylorReach::new(problem, TaylorAbstraction::with_order(2), cfg.clone())
            .reach_from(cell, ctrl),
    }
}

fn poly_layer(out: &mut Vec<Metric>) {
    // Order-3 products in 2 and 3 variables: the Taylor-model sizes of the
    // VdP and 3-D verification loops (integrator order 3).
    let fixture = |n: usize| {
        let v: Vec<Polynomial> = (0..n).map(|i| Polynomial::var(n, i)).collect();
        let mut p = Polynomial::constant(n, 0.5);
        for (i, x) in v.iter().enumerate() {
            p = p + x.clone() * v[(i + 1) % n].clone() - x.clone().scale(0.25 * (i as f64 + 1.0));
        }
        let q = p.clone() * p.clone() + v[0].clone();
        (p, q, v)
    };
    let (p2, q2, v2) = fixture(2);
    let (p3, q3, v3) = fixture(3);
    let (d2, d3) = (unit_domain(2), unit_domain(3));
    let mut ws = PolyWorkspace::new();
    let mut o = Polynomial::zero(2);
    let mut o3 = Polynomial::zero(3);
    out.push(timed("dwv-poly.mul_truncated_s", 200, 9, || {
        let a = p2.mul_truncated_into(&q2, 3, &d2, &mut o, &mut ws);
        let b = p3.mul_truncated_into(&q3, 3, &d3, &mut o3, &mut ws);
        (a, b)
    }));
    let s2: Vec<Polynomial> = v2
        .iter()
        .map(|x| x.clone() * x.clone() + p2.clone())
        .collect();
    let s3: Vec<Polynomial> = v3
        .iter()
        .map(|x| x.clone() * x.clone() + p3.clone())
        .collect();
    out.push(timed("dwv-poly.compose_s", 20, 9, || {
        (p2.compose(&s2), p3.compose(&s3))
    }));
    let b2 = IntervalBox::from_bounds(&[(-0.5, 0.5), (0.25, 0.75)]);
    let b3 = IntervalBox::from_bounds(&[(-0.5, 0.5), (0.25, 0.75), (-1.0, 0.0)]);
    out.push(timed("dwv-poly.bernstein_range_s", 20, 9, || {
        let mut cache = RangeCache::new();
        (
            cache.range_enclosure(&q2, b2.intervals()),
            cache.range_enclosure(&q3, b3.intervals()),
        )
    }));
}

fn interval_layer(out: &mut Vec<Metric>) {
    let a = IntervalBox::from_bounds(&[(-1.0, 0.5), (0.0, 2.0), (-0.25, 0.25)]);
    let b = IntervalBox::from_bounds(&[(0.0, 1.0), (1.0, 3.0), (-0.5, 0.0)]);
    out.push(timed("dwv-interval.box_ops_s", 500, 9, || {
        let h = a.hull(&b);
        let i = a.intersection(&b);
        let (l, r) = h.bisect(0);
        let parts = h.partition(&[2, 2, 2]);
        (
            i,
            l.inflate(1e-3).contains(&r),
            parts.len(),
            a.distance(&b),
            h.volume(),
        )
    }));
}

fn taylor_layer(out: &mut Vec<Metric>) {
    let integ = TaylorReachConfig::default().integrator;
    for system in [System::Vdp, System::ThreeD] {
        let p = system.problem();
        let rhs = p.dynamics.vector_field();
        let n = p.n_state();
        let x0 = TmVector::from_box(&p.x0);
        let u = TmVector::new(vec![TaylorModel::constant(n, 0.1); p.n_input()]);
        let dom = unit_domain(n);
        let mut ws = TmWorkspace::new();
        out.push(timed(
            &format!("dwv-taylor.flow_step_s.{}", system.name()),
            10,
            9,
            || integ.flow_step_ws(&x0, &u, &rhs, p.delta, &dom, &mut ws),
        ));
    }
}

/// Sums the portfolio bill of one surrogate ACC design job (learning plus
/// certification sweep).
fn portfolio_counts(res: &mut RunResult) {
    let job = DesignJob::new(0, System::Acc, Tool::Linear, true, 7);
    let tiers = dwv_serve::job::linear_portfolio(&job.problem)
        .map(|p| p.tier_names())
        .unwrap_or_default();
    let o = match dwv_core::design_while_verify_linear(job.problem, job.config) {
        Ok(o) => o,
        Err(e) => {
            res.attempted += 1;
            res.fail(format!("portfolio fixture: {e}"));
            return;
        }
    };
    let out = &mut res.metrics;
    let mut calls = vec![0u64; tiers.len()];
    let (mut esc, mut cheap) = (0, 0);
    for s in [o.learning.portfolio.as_ref(), o.sweep_portfolio.as_ref()]
        .into_iter()
        .flatten()
    {
        for (a, b) in calls.iter_mut().zip(&s.calls_by_tier) {
            *a += b;
        }
        esc += s.escalations;
        cheap += s.decided_cheap;
    }
    for (name, c) in tiers.iter().zip(&calls) {
        out.push(count(
            format!("dwv-reach.portfolio.calls.{name}"),
            *c as f64,
            "count",
        ));
    }
    out.push(count(
        "dwv-reach.portfolio.escalations",
        esc as f64,
        "count",
    ));
    let rigorous = calls.last().copied().unwrap_or(0);
    out.push(count(
        "dwv-reach.portfolio.decided_cheap_frac",
        cheap as f64 / (cheap + rigorous).max(1) as f64,
        "ratio",
    ));
}

#[allow(clippy::too_many_lines)]
fn reach_metrics_dynamics_layers(out: &mut Vec<Metric>) {
    let (acc, k_ok, k_bad) = acc_fixtures();
    let vdp = nn_fixture(System::Vdp);
    let three = nn_fixture(System::ThreeD);
    let nn = [(System::Vdp, &vdp), (System::ThreeD, &three)];

    // dwv-reach: NN abstractions over X₀ of VdP with the learned network.
    let state = TmVector::from_box(&vdp.0.x0);
    let dom = unit_domain(vdp.0.n_state());
    let mut ws = TmWorkspace::new();
    out.push(timed("dwv-reach.abstract_s.polar", 20, 9, || {
        TaylorAbstraction::with_order(2).abstract_network_ws(&vdp.1, &state, &dom, &mut ws)
    }));
    out.push(timed("dwv-reach.abstract_s.bernstein", 5, 9, || {
        BernsteinAbstraction::with_degree(2).abstract_network_ws(&vdp.1, &state, &dom, &mut ws)
    }));

    // dwv-reach: one whole-X₀ flowpipe per backend.
    let linear = LinearReach::for_problem(&acc).expect("ACC is affine");
    let interval = IntervalReach::for_problem(&acc);
    let zonotope = ZonotopeReach::for_problem(&acc).expect("ACC is affine");
    out.push(timed("dwv-reach.flowpipe_s.linear.acc", 50, 9, || {
        linear.reach(&k_ok)
    }));
    out.push(timed("dwv-reach.flowpipe_s.interval.acc", 50, 9, || {
        interval.reach(&k_ok)
    }));
    out.push(timed("dwv-reach.flowpipe_s.zonotope.acc", 50, 9, || {
        zonotope.reach(&k_ok)
    }));
    for (system, (p, ctrl, cfg)) in nn {
        for tool in [Tool::Polar, Tool::ReachNn] {
            let name = if tool == Tool::Polar {
                "polar"
            } else {
                "bernstein"
            };
            out.push(timed(
                &format!("dwv-reach.flowpipe_s.{name}.{}", system.name()),
                1,
                5,
                || nn_reach(p, tool, &cfg.verifier, ctrl, &p.x0),
            ));
        }
    }

    // dwv-reach: the reach cache, on a hit and on a miss (the miss stores a
    // precomputed flowpipe, so it times lookup, insert and clone only).
    let fp = linear.reach(&k_ok).expect("tuned gains verify");
    let cache = ReachCache::new();
    let _ = cache.get_or_compute(1, 1, || Ok(fp.clone()));
    out.push(timed("dwv-reach.cache_hit_s", 200, 9, || {
        cache.get_or_compute(1, 1, || Ok(fp.clone()))
    }));
    let mut key = 1u64;
    out.push(timed("dwv-reach.cache_miss_s", 200, 9, || {
        key += 1;
        cache.get_or_compute(key, 1, || Ok(fp.clone()))
    }));

    // dwv-metrics: the geometric metric on each system's flowpipe.
    let fps = [
        ("acc", GeometricMetric::for_problem(&acc), Ok(fp.clone())),
        (
            "vdp",
            GeometricMetric::for_problem(&vdp.0),
            nn_reach(&vdp.0, Tool::Polar, &vdp.2.verifier, &vdp.1, &vdp.0.x0),
        ),
        (
            "3d",
            GeometricMetric::for_problem(&three.0),
            nn_reach(
                &three.0,
                Tool::Polar,
                &three.2.verifier,
                &three.1,
                &three.0.x0,
            ),
        ),
    ];
    for (name, metric, fp) in &fps {
        if let Ok(fp) = fp {
            out.push(timed(
                &format!("dwv-metrics.geometric_s.{name}"),
                200,
                9,
                || metric.evaluate(fp),
            ));
        }
    }

    // dwv-dynamics: 500-rollout rates, certified and Unsafe controllers.
    out.push(timed("dwv-dynamics.rates_s.acc.certified", 1, 5, || {
        rates(&acc, &k_ok, 500, 11)
    }));
    out.push(timed("dwv-dynamics.rates_s.acc.unsafe", 1, 5, || {
        rates(&acc, &k_bad, 500, 11)
    }));
    for (system, (p, ctrl, _)) in nn {
        let bad = untrained(p, if system == System::ThreeD { 2.0 } else { 1.0 });
        out.push(timed(
            &format!("dwv-dynamics.rates_s.{}.certified", system.name()),
            1,
            5,
            || rates(p, ctrl, 500, 11),
        ));
        out.push(timed(
            &format!("dwv-dynamics.rates_s.{}.unsafe", system.name()),
            1,
            5,
            || rates(p, &bad, 500, 11),
        ));
    }
}

/// Algorithm 1 iterations per pairing: a capped learning run from a seed
/// that does not certify early, timed and divided by its iterations.
fn algorithm1_layer(out: &mut Vec<Metric>) {
    let pairings = [
        (System::Acc, Tool::Linear, false, 20),
        (System::Acc, Tool::Linear, true, 20),
        (System::Vdp, Tool::Polar, false, 6),
        (System::Vdp, Tool::Polar, true, 6),
        (System::Vdp, Tool::ReachNn, false, 4),
        (System::ThreeD, Tool::Polar, false, 6),
        (System::ThreeD, Tool::Polar, true, 6),
        (System::ThreeD, Tool::ReachNn, false, 4),
    ];
    for (system, tool, surrogate, cap) in pairings {
        let job = DesignJob::new(0, system, tool, surrogate, 3);
        let mut cfg = job.config;
        cfg.max_updates = cap;
        let alg = Algorithm1::new(job.problem, cfg);
        let mut per_iter = Vec::new();
        let mut calls = 0.0;
        for _ in 0..3 {
            let t = Instant::now();
            let (iters, c) = if tool == Tool::Linear {
                alg.learn_linear()
                    .map(|o| (o.iterations, o.trace.total_verifier_calls()))
                    .unwrap_or((0, 0))
            } else {
                let o = alg.learn_nn();
                (o.iterations, o.trace.total_verifier_calls())
            };
            per_iter.push(t.elapsed().as_secs_f64() / iters.max(1) as f64);
            calls = c as f64 / iters.max(1) as f64;
        }
        let pairing = pairing_name(system, tool, surrogate);
        out.push(Metric::from_samples(
            format!("dwv-core.algorithm1.iteration_s.{pairing}"),
            "s",
            &per_iter,
            median,
        ));
        out.push(count(
            format!("dwv-core.algorithm1.calls_per_iteration.{pairing}"),
            calls,
            "count",
        ));
    }
}

fn core_layer(res: &mut RunResult) {
    let out = &mut res.metrics;
    let (acc, k_ok, k_bad) = acc_fixtures();
    let linear = LinearReach::for_problem(&acc).expect("ACC is affine");
    let ok_attempt = linear.reach(&k_ok);
    let bad_attempt = linear.reach(&k_bad);
    out.push(timed("dwv-core.judge_s.reach_avoid", 50, 9, || {
        judge(&acc, &k_ok, &ok_attempt, 500, 0x0A55E55)
    }));
    out.push(timed("dwv-core.judge_s.unsafe", 1, 9, || {
        judge(&acc, &k_bad, &bad_attempt, 500, 0x0A55E55)
    }));
    let (a, b, c) = acc.dynamics.linear_parts().expect("ACC is affine");
    let acc_oracle = |cell: &IntervalBox| {
        LinearReach::new(&a, &b, &c, cell.clone(), acc.delta, acc.horizon_steps).reach(&k_ok)
    };
    out.push(timed("dwv-core.assess_s", 1, 5, || {
        assess(&acc, &k_ok, acc_oracle)
    }));
    out.push(timed("dwv-core.counterexample_s", 1, 9, || {
        find_counterexample(&acc, &k_bad, 200, 0x0A55E55)
    }));

    // Algorithm 2 sweeps on certified controllers.
    let vdp = nn_fixture(System::Vdp);
    let three = nn_fixture(System::ThreeD);
    let mut accepted = 0usize;
    let mut verified = 0usize;
    let mut tally = |s: &InitialSetSearch| {
        accepted += s.cells.len();
        verified += s.verifier_calls;
    };
    let alg2 = |p: &ReachAvoidProblem| Algorithm2::new(p).with_max_rounds(4);
    tally(&alg2(&acc).search(acc_oracle));
    out.push(timed(
        "dwv-core.algorithm2.sweep_s.acc-linear",
        1,
        5,
        || alg2(&acc).search(acc_oracle),
    ));
    for (system, (p, ctrl, cfg)) in [(System::Vdp, &vdp), (System::ThreeD, &three)] {
        for tool in [Tool::Polar, Tool::ReachNn] {
            let oracle = |cell: &IntervalBox| nn_reach(p, tool, &cfg.verifier, ctrl, cell);
            tally(&alg2(p).search(oracle));
            out.push(timed(
                &format!(
                    "dwv-core.algorithm2.sweep_s.{}",
                    pairing_name(system, tool, false)
                ),
                1,
                3,
                || alg2(p).search(oracle),
            ));
        }
    }
    out.push(count(
        "dwv-core.algorithm2.accepted_frac",
        accepted as f64 / verified.max(1) as f64,
        "ratio",
    ));

    // The worker pool over a fixed 64-cell ACC batch and a 16-cell VdP
    // POLAR batch, at width 1 and at nproc.
    let acc_cells = dwv_serve::job::uniform_grid(&acc.x0, 8);
    let vdp_cells = dwv_serve::job::uniform_grid(&vdp.0.x0, 4);
    let batch = |pool: &dwv_core::WorkerPool| {
        let a = pool.map(&acc_cells, |cell| {
            acc_oracle(cell).ok().map(|f| f.steps().len())
        });
        let v = pool.map(&vdp_cells, |cell| {
            nn_reach(&vdp.0, Tool::Polar, &vdp.2.verifier, &vdp.1, cell)
                .ok()
                .map(|f| f.steps().len())
        });
        (a, v)
    };
    let w1 = dwv_core::WorkerPool::new(1);
    let wn = dwv_core::WorkerPool::new(nproc());
    let m1 = timed("dwv-core.parallel.map_s.w1", 1, 5, || batch(&w1));
    let mn = timed("dwv-core.parallel.map_s.wN", 1, 5, || batch(&wn));
    let speedup = m1.value / mn.value;
    let parity = batch(&w1) == batch(&wn);
    out.push(m1);
    out.push(mn);
    out.push(count("dwv-core.parallel.speedup", speedup, "ratio"));
    if !parity {
        res.attempted += 1;
        res.fail("WorkerPool::map results differ between widths".to_string());
    }
}

/// A short serving session on its own tenant: cold, warm and NN jobs, and
/// a warm grid-1 job whose cost is mostly the protocol.
fn serve_layer(res: &mut RunResult) {
    let Ok(server) = Server::start(ServeConfig::default()) else {
        res.attempted += 1;
        res.fail("layer serve session: server start failed".to_string());
        return;
    };
    let mut submitted = 0u64;
    let mut rejected = 0u64;
    let mut lat: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    if let Ok(mut client) = Client::connect(server.addr()) {
        let mut job_id = 0u64;
        let mut serve = |kind: &'static str, spec: &JobSpec, record: bool| {
            job_id += 1;
            submitted += 1;
            let t = Instant::now();
            match client.submit(77, job_id, 0, spec.clone()) {
                Ok(Frame::Accepted { .. }) => {}
                _ => {
                    rejected += 1;
                    return;
                }
            }
            if client.stream_result(77, job_id).is_ok() && record {
                lat.entry(kind).or_default().push(t.elapsed().as_secs_f64());
            }
        };
        let verify = |gains: Vec<f64>, grid: u32| JobSpec {
            problem: ProblemId::Acc,
            kind: JobKind::VerifyLinear {
                gains,
                grid,
                samples: 500,
            },
        };
        let cold: Vec<JobSpec> = (0..12)
            .map(|i| {
                verify(
                    vec![0.45 + 0.02 * f64::from(i), -2.0 + 0.05 * f64::from(i)],
                    8,
                )
            })
            .collect();
        for s in &cold {
            serve("cold", s, true);
        }
        for s in &cold {
            serve("warm", s, true);
        }
        let p = dwv_dynamics::oscillator::reach_avoid_problem();
        let nn = JobSpec {
            problem: ProblemId::VanDerPol,
            kind: JobKind::AssessNn {
                hidden: vec![8],
                output_scale: 1.0,
                order: 2,
                params: untrained(&p, 1.0).params(),
            },
        };
        for _ in 0..5 {
            serve("nn", &nn, true);
        }
        let grid1 = verify(vec![0.5867, -2.0], 1);
        serve("protocol", &grid1, false);
        for _ in 0..25 {
            serve("protocol", &grid1, true);
        }
    }
    server.shutdown();
    for (kind, name) in [
        ("cold", "dwv-serve.job_s.cold"),
        ("warm", "dwv-serve.job_s.warm"),
        ("nn", "dwv-serve.job_s.nn"),
        ("protocol", "dwv-serve.protocol_s"),
    ] {
        let v = lat.remove(kind).unwrap_or_default();
        if v.is_empty() {
            res.attempted += 1;
            res.fail(format!("layer serve session: no {kind} job completed"));
            continue;
        }
        res.metrics
            .push(Metric::from_samples(name, "s", &v, median));
    }
    res.metrics.push(count(
        "dwv-serve.rejected_frac",
        rejected as f64 / submitted.max(1) as f64,
        "ratio",
    ));
}

/// Runs every layer timer and appends its metrics to `res`.
pub fn run(res: &mut RunResult) {
    let t = Instant::now();
    poly_layer(&mut res.metrics);
    interval_layer(&mut res.metrics);
    taylor_layer(&mut res.metrics);
    reach_metrics_dynamics_layers(&mut res.metrics);
    portfolio_counts(res);
    algorithm1_layer(&mut res.metrics);
    core_layer(res);
    serve_layer(res);
    res.detail(
        "layer_timers_s",
        crate::stats::json_num(t.elapsed().as_secs_f64()),
    );
}
