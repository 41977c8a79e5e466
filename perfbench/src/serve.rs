//! The `serve_mix` workload: a closed loop of blocking clients against a
//! loopback `dwv-serve` server with the default configuration.

use crate::calib;
use crate::meta::nproc;
use crate::report::{Metric, RunResult};
use crate::rng::SplitMix;
use crate::spans::{self, Tracer};
use crate::stats::{beyond, json_list, json_num, median, quantile, Obj};
use dwv_core::parallel::{CancelToken, WorkerPool};
use dwv_dynamics::ReachAvoidProblem;
use dwv_nn::{Activation, Network};
use dwv_reach::ReachCache;
use dwv_serve::{
    run_job, Client, Frame, JobKind, JobOutput, JobSpec, ProblemId, ServeConfig, Server,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The three kinds of job in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `VerifyLinear` ACC job with gains the tenant has not sent before.
    Cold,
    /// A repeat of a spec the same tenant already ran.
    Warm,
    /// `AssessNn` on VdP or 3-D with the weights fixed during set-up.
    Nn,
}

impl Kind {
    /// Name used in span and metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Warm => "warm",
            Kind::Nn => "nn",
        }
    }
}

/// One job of a client's list.
#[derive(Debug, Clone)]
pub struct ServeJob {
    /// Kind in the mix.
    pub kind: Kind,
    /// Index of the spec in the tenant's spec table (repeats share it).
    pub spec: usize,
}

/// One client's tenant, specs and job list.
#[derive(Debug, Clone)]
pub struct ClientPlan {
    /// Tenant id (one per client).
    pub tenant: u64,
    /// Distinct specs, in first-use order.
    pub specs: Vec<JobSpec>,
    /// The jobs, in submission order.
    pub jobs: Vec<ServeJob>,
}

/// The mix, dealt from a shuffled deck per block of `DECK.len()` jobs so
/// every block has the same proportions: 40% cold, 45% warm, 15% NN.
const DECK: [Kind; 20] = {
    let mut d = [Kind::Warm; 20];
    let mut i = 0;
    while i < 8 {
        d[i] = Kind::Cold;
        i += 1;
    }
    d[17] = Kind::Nn;
    d[18] = Kind::Nn;
    d[19] = Kind::Nn;
    d
};
/// Cold gains: the tuned ACC controller `[0.5867, -2.0]` plus a
/// perturbation in this box, where about a fifth of the gains verify
/// reach-avoid and the rest are Unsafe. Each tenant sends its own fixed run
/// of Halton points over the box; the workload seed sets the order. A
/// job's cost and verdict depend on its gains, so drawing them from the
/// seed made every timing and `certified_frac` vary from seed to seed by
/// more than the bounds.
const GAIN_CENTER: [f64; 2] = [0.5867, -2.0];
const GAIN_SPREAD: [f64; 2] = [0.1, 0.5];
const GRID: u32 = 8;
const SAMPLES: u32 = 500;
/// Weight sets per NN system, initialised from the fixed seeds
/// `1..=NN_WEIGHT_SETS` for the same reason.
const NN_WEIGHT_SETS: u64 = 4;
/// Reference-host seconds per job and client, to size lists from
/// `--seconds`.
const JOB_COST_S: f64 = 0.057;

fn hidden() -> Vec<usize> {
    vec![8]
}

/// NN weights for one system: the default architecture with a seeded
/// initialisation.
fn nn_spec(problem: &ReachAvoidProblem, id: ProblemId, scale: f64, seed: u64) -> JobSpec {
    let mut sizes = vec![problem.n_state()];
    sizes.extend(hidden());
    sizes.push(problem.n_input());
    let net = Network::new(&sizes, Activation::ReLU, Activation::Tanh, seed);
    JobSpec {
        problem: id,
        kind: JobKind::AssessNn {
            hidden: hidden().into_iter().map(|h| h as u32).collect(),
            output_scale: scale,
            order: 2,
            params: net.params(),
        },
    }
}

/// The radical inverse of `i` in `base`: the `i`-th point of a van der
/// Corput sequence in `[0, 1)`.
fn radical_inverse(mut i: u64, base: u64) -> f64 {
    let (mut x, mut scale) = (0.0, 1.0);
    while i > 0 {
        scale /= base as f64;
        x += (i % base) as f64 * scale;
        i /= base;
    }
    x
}

/// Cold gain vector `index` (from 1): the `index`-th Halton point (bases 2
/// and 3) mapped into the cold-gain box, so any run of consecutive indices
/// covers the box evenly.
fn cold_gains(index: u64) -> Vec<f64> {
    [2, 3]
        .iter()
        .enumerate()
        .map(|(i, &base)| {
            let u = radical_inverse(index, base);
            GAIN_CENTER[i] + GAIN_SPREAD[i] * (2.0 * u - 1.0)
        })
        .collect()
}

/// Builds every client's plan from the workload seed.
#[must_use]
pub fn plans(seed: u64, seconds: f64, clients: usize) -> Vec<ClientPlan> {
    let vdp = dwv_dynamics::oscillator::reach_avoid_problem();
    let three = dwv_dynamics::three_dim::reach_avoid_problem();
    let nn_specs: Vec<JobSpec> = (0..NN_WEIGHT_SETS)
        .flat_map(|i| {
            let w = SplitMix::new(i + 1, 0xA1).next_u64();
            [
                nn_spec(&vdp, ProblemId::VanDerPol, 1.0, w),
                nn_spec(&three, ProblemId::ThreeDim, 2.0, w ^ 1),
            ]
        })
        .collect();
    let decks = ((seconds / JOB_COST_S / DECK.len() as f64).round() as usize).max(1);
    let per_client = decks * DECK.len();
    let cold_jobs = (decks * DECK.iter().filter(|k| **k == Kind::Cold).count()) as u64;
    (0..clients)
        .map(|c| {
            let tenant = c as u64 + 1;
            let mut rng = SplitMix::new(seed, 0x5E7E + tenant);
            // The tenant's own run of Halton indices, in a seeded order.
            let order = rng.sample_distinct(cold_jobs, cold_jobs as usize);
            let mut specs: Vec<JobSpec> = nn_specs.clone();
            let mut cold: Vec<usize> = Vec::new();
            let mut warm_cursor = 0;
            let mut nn_cursor = 0;
            let mut jobs = Vec::with_capacity(per_client);
            let mut deck = DECK;
            while jobs.len() < per_client {
                for i in 0..deck.len() {
                    let j = i + rng.below(deck.len() - i);
                    deck.swap(i, j);
                }
                // The first job of a tenant is cold: a warm job needs a
                // spec to repeat.
                if cold.is_empty() {
                    let first_cold = deck.iter().position(|k| *k == Kind::Cold).unwrap_or(0);
                    deck.swap(0, first_cold);
                }
                for &kind in &deck {
                    let spec = match kind {
                        Kind::Cold => {
                            let index = c as u64 * cold_jobs + order[cold.len() % order.len()];
                            specs.push(JobSpec {
                                problem: ProblemId::Acc,
                                kind: JobKind::VerifyLinear {
                                    gains: cold_gains(index),
                                    grid: GRID,
                                    samples: SAMPLES,
                                },
                            });
                            cold.push(specs.len() - 1);
                            specs.len() - 1
                        }
                        // Warm jobs repeat cold specs in the order they were
                        // sent, wrapping when they catch up.
                        Kind::Warm => {
                            if warm_cursor >= cold.len() {
                                warm_cursor = 0;
                            }
                            warm_cursor += 1;
                            cold[warm_cursor - 1]
                        }
                        Kind::Nn => {
                            nn_cursor += 1;
                            (nn_cursor - 1) % nn_specs.len()
                        }
                    };
                    jobs.push(ServeJob { kind, spec });
                }
            }
            ClientPlan {
                tenant,
                specs,
                jobs,
            }
        })
        .collect()
}

/// A started server, one connected client per plan, and the plans.
pub struct Session {
    server: Server,
    clients: Vec<Client>,
    plans: Vec<ClientPlan>,
}

/// The rest of set-up once the plans are made: server start, one
/// connection per plan.
///
/// # Errors
///
/// Bind or connect failures.
pub fn start(plans: Vec<ClientPlan>) -> std::io::Result<Session> {
    let n = plans.len();
    let server = Server::start(ServeConfig::default())?;
    // Connect concurrently, as independent clients would: the server polls
    // for new connections every 10 ms, so sequential connects would make
    // the set-up time depend on where each connect falls in that cycle.
    let addr = server.addr();
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| scope.spawn(move || Client::connect(addr)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connect thread panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })?;
    Ok(Session {
        server,
        clients,
        plans,
    })
}

impl Session {
    /// Closes the connections and stops the server, joining its threads.
    pub fn close(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// One served job's outcome.
struct Served {
    tenant: u64,
    kind: Kind,
    spec: usize,
    latency_s: f64,
    output: Result<JobOutput, String>,
}

/// Submits one job and waits for its terminal event.
fn serve_one(
    client: &mut Client,
    tenant: u64,
    job_id: u64,
    spec: &JobSpec,
) -> Result<JobOutput, String> {
    match client.submit(tenant, job_id, 0, spec.clone()) {
        Ok(Frame::Accepted { .. }) => {}
        Ok(other) => return Err(format!("job {tenant}/{job_id} not accepted: {other:?}")),
        Err(e) => return Err(format!("job {tenant}/{job_id} submit failed: {e}")),
    }
    client
        .stream_result(tenant, job_id)
        .map_err(|e| format!("job {tenant}/{job_id} failed: {e}"))
}

/// Runs every client's list in a closed loop, one thread per client.
fn closed_loop(session: &mut Session, tracer: Option<&Tracer>) -> (f64, Vec<Vec<Served>>) {
    let wall = Instant::now();
    let out = std::thread::scope(|scope| {
        let handles: Vec<_> = session
            .clients
            .iter_mut()
            .zip(&session.plans)
            .map(|(client, plan)| {
                scope.spawn(move || {
                    let tenant = plan.tenant;
                    let mut served = Vec::with_capacity(plan.jobs.len());
                    for (i, job) in plan.jobs.iter().enumerate() {
                        let job_id = i as u64 + 1;
                        let spec = &plan.specs[job.spec];
                        let t = Instant::now();
                        let output = match tracer {
                            Some(tr) => {
                                tr.span(span_name(job.kind), tenant << 32 | job_id, 0, |_| {
                                    serve_one(client, tenant, job_id, spec)
                                })
                            }
                            None => serve_one(client, tenant, job_id, spec),
                        };
                        served.push(Served {
                            tenant,
                            kind: job.kind,
                            spec: job.spec,
                            latency_s: t.elapsed().as_secs_f64(),
                            output,
                        });
                    }
                    served
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (wall.elapsed().as_secs_f64(), out)
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Cold => "serve.job.cold",
        Kind::Warm => "serve.job.warm",
        Kind::Nn => "serve.job.nn",
    }
}

/// Byte identity of two outputs (floats compared by their bits).
#[must_use]
pub fn same_bits(a: &JobOutput, b: &JobOutput) -> bool {
    a.verdict == b.verdict
        && a.report_csv == b.report_csv
        && a.segments.len() == b.segments.len()
        && a.segments.iter().zip(&b.segments).all(|(x, y)| {
            x.index == y.index
                && x.t0.to_bits() == y.t0.to_bits()
                && x.t1.to_bits() == y.t1.to_bits()
                && x.bounds.len() == y.bounds.len()
                && x.bounds
                    .iter()
                    .zip(&y.bounds)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Whether an output certifies, and its verified share of `X₀`.
fn quality(out: &JobOutput) -> (bool, f64) {
    if let Some(csv) = &out.report_csv {
        let text = String::from_utf8_lossy(csv);
        let field = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .map(str::to_string)
        };
        let certified = field("report,certified,").is_some_and(|v| v == "true");
        let coverage = field("initial_set,coverage,")
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0);
        return (certified, coverage);
    }
    // VerifyLinear: "<verdict> [cells k/n]".
    let certified = out.verdict.starts_with("reach-avoid");
    let coverage = out
        .verdict
        .rsplit_once("[cells ")
        .and_then(|(_, r)| r.trim_end_matches(']').split_once('/'))
        .and_then(|(k, n)| Some(k.parse::<f64>().ok()? / n.parse::<f64>().ok()?))
        .unwrap_or(0.0);
    (certified, coverage)
}

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 9;

/// Untraced runs serve the lists this many times, each on a server of its
/// own.
const PASSES: usize = 5;

/// Kernel calls behind each set-up speed reading, on every core.
const PROBE: usize = 20;

/// How often the sampler takes a reading while a pass runs: about 200
/// readings in a pass, at 2% of one core.
const SAMPLE_EVERY: Duration = Duration::from_millis(25);

/// Runs `serve_mix`: the lists are served [`PASSES`] times (untraced) or
/// once untraced and once traced, and each timing is the median over the
/// passes.
#[must_use]
pub fn run(seed: u64, seconds: u64, trace: bool, out_dir: &Path) -> RunResult {
    let mut res = RunResult::default();
    // Set-up is the plans (computation, restated at the reference speed)
    // and the server start and connections (mostly the accept loop's
    // 10 ms poll, a timer, kept as measured).
    let (mut plan_s, mut start_s, mut setup_speed) = (Vec::new(), Vec::new(), Vec::new());
    let pass_seconds = seconds as f64 / PASSES as f64;
    let mut plans_made = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        plans_made = plans(seed, pass_seconds, nproc());
        plan_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        match start(plans_made.clone()) {
            Ok(s) => {
                start_s.push(t.elapsed().as_secs_f64());
                s.close();
                setup_speed.push(calib::probe_all(nproc(), PROBE));
            }
            Err(e) => {
                res.attempted += 1;
                res.fail(format!("set-up failed: {e}"));
                return res;
            }
        }
    }
    let plans = plans_made;
    let tracer = Tracer::new();
    let mut walls = Vec::new();
    let mut passes: Vec<Vec<Vec<Served>>> = Vec::new();
    // A sampling thread takes the readings while each pass runs, and the
    // pass is restated with their median. Readings taken between passes,
    // with the server down, missed the host's swings within a pass: pass
    // walls restated with them varied by 8.3% (coefficient of variation
    // over 30 passes on the tuning host), with the sampler by 4.7%.
    let mut pass_k = Vec::new();
    let mut speed = Vec::new();
    // Each pass runs on a server of its own, started before the pass's
    // clock and stopped after it, so every pass begins from empty caches
    // and the same process state.
    for pass in 0..if trace { 2 } else { PASSES } {
        let mut session = match start(plans.clone()) {
            Ok(s) => s,
            Err(e) => {
                res.attempted += 1;
                res.fail(format!("pass {pass}: server start failed: {e}"));
                return res;
            }
        };
        let tr = (trace && pass == 1).then_some(&tracer);
        let sampler = calib::Sampler::start(SAMPLE_EVERY, false);
        let (wall, served) = closed_loop(&mut session, tr);
        let readings: Vec<f64> = sampler.finish().iter().map(|r| r.1).collect();
        pass_k.push(median(&readings));
        speed.extend(readings);
        session.close();
        walls.push(wall);
        passes.push(served);
    }

    // Serve parity, outside the timed region: each distinct spec once,
    // through a fresh in-process `run_job` for the client's tenant, against
    // every served output of every pass.
    let mut parity_jobs: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(c, plan)| plan.jobs.iter().map(move |j| (c, j.spec)))
        .collect();
    parity_jobs.sort_unstable();
    parity_jobs.dedup();
    let fresh = parity_outputs(&plans, &parity_jobs);
    let (mut p50s, mut p90s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut certified, mut coverage, mut done) = (0usize, 0.0, 0usize);
    let mut judged = std::collections::BTreeSet::new();
    let mut kinds = Obj::new();
    let mut beyond_p90 = Vec::new();
    for (pass, per_client) in passes.iter().enumerate() {
        let mut all = Vec::new();
        let mut by_kind: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
        for (c, list) in per_client.iter().enumerate() {
            for s in list {
                res.attempted += 1;
                let out = match &s.output {
                    Ok(o) => o,
                    Err(e) => {
                        res.fail(e.clone());
                        continue;
                    }
                };
                match fresh.get(&(c, s.spec)) {
                    Some(Ok(f)) if same_bits(f, out) => {}
                    Some(Ok(_)) => res.fail(format!(
                        "tenant {} spec {}: served output differs from in-process run_job",
                        s.tenant, s.spec
                    )),
                    Some(Err(e)) => res.fail(format!(
                        "tenant {} spec {}: run_job failed: {e}",
                        s.tenant, s.spec
                    )),
                    None => res.fail(format!(
                        "tenant {} spec {}: no parity reference",
                        s.tenant, s.spec
                    )),
                }
                all.push(s.latency_s);
                by_kind.entry(s.kind).or_default().push(s.latency_s);
                // Quality counts each distinct spec once: warm repeats
                // share their spec's verdict, and which specs a seed's
                // order repeats would otherwise move the share.
                if pass == 0 && judged.insert((c, s.spec)) {
                    let (cert, cov) = quality(out);
                    certified += usize::from(cert);
                    coverage += cov;
                    done += 1;
                }
            }
        }
        let k = pass_k[pass];
        p50s.push(calib::at_ref(median(&all), k));
        p90s.push(calib::at_ref(quantile(&all, 0.9), k));
        rates.push(all.len() as f64 / calib::at_ref(walls[pass], k));
        beyond_p90.push(beyond(&all, 0.9).to_string());
        if pass == 0 {
            for (k, v) in &by_kind {
                let mut e = Obj::new();
                e.int("jobs", v.len() as u64)
                    .num("p50_s", median(v))
                    .num("p90_s", quantile(v, 0.9));
                kinds.raw(k.name(), e.render());
            }
        }
    }
    res.detail("latency_by_kind_first_pass", kinds.render());
    res.detail("samples_beyond_p90_per_pass", json_list(&beyond_p90));
    res.detail(
        "pass_walls_s",
        json_list(&walls.iter().map(|w| json_num(*w)).collect::<Vec<_>>()),
    );
    res.detail("clients", plans.len().to_string());
    res.detail("distinct_specs", parity_jobs.len().to_string());
    if trace {
        let spans = tracer.spans();
        res.detail("span_self_time", spans::totals_json(&spans));
        let path = out_dir.join(format!("spans-serve_mix-seed{seed}.jsonl"));
        let _ = std::fs::create_dir_all(out_dir);
        let _ = std::fs::write(&path, spans::to_jsonl(&spans));
        // Both passes at the reference speed, so host drift between them
        // does not read as overhead.
        let untraced = calib::at_ref(walls[0], pass_k[0]);
        let traced = calib::at_ref(walls[1], pass_k[1]);
        res.metrics.push(Metric::single(
            "dwv-obs.tracing_overhead_frac",
            "ratio",
            (traced - untraced) / untraced,
            done,
        ));
    } else {
        let n = done.max(1) as f64;
        let setup_k = median(&setup_speed);
        let setup: Vec<f64> = plan_s
            .iter()
            .zip(&start_s)
            .map(|(&p, &s)| calib::at_ref(p, setup_k) + s)
            .collect();
        let ref_walls: Vec<f64> = walls
            .iter()
            .zip(&pass_k)
            .map(|(&w, &k)| calib::at_ref(w, k))
            .collect();
        res.detail(
            "pass_walls_at_ref_s",
            json_list(&ref_walls.iter().map(|w| json_num(*w)).collect::<Vec<_>>()),
        );
        res.detail("setup_plans_measured_s", json_num(median(&plan_s)));
        res.detail("setup_start_measured_s", json_num(median(&start_s)));
        res.detail("kernel_s", calib::readings_json(setup_k, &speed));
        res.metrics
            .push(Metric::from_samples("setup_s", "s", &setup, median));
        res.metrics.push(Metric::from_samples(
            "design_wall_s",
            "s",
            &ref_walls,
            median,
        ));
        res.metrics
            .push(Metric::from_samples("jobs_per_s", "1/s", &rates, median));
        res.metrics
            .push(Metric::from_samples("job_p50_s", "s", &p50s, median));
        res.metrics
            .push(Metric::from_samples("job_p90_s", "s", &p90s, median));
        res.metrics.push(Metric::single(
            "certified_frac",
            "ratio",
            certified as f64 / n,
            done,
        ));
        res.metrics.push(Metric::single(
            "xi_coverage_mean",
            "ratio",
            coverage / n,
            done,
        ));
    }
    res
}

/// Fresh in-process results for `(client, spec)` pairs, for the client's
/// tenant, computed on `nproc` threads with a one-thread pool
/// and an empty cache each.
fn parity_outputs(
    plans: &[ClientPlan],
    keys: &[(usize, usize)],
) -> BTreeMap<(usize, usize), Result<JobOutput, String>> {
    let threads = nproc().max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let pool = WorkerPool::new(1);
                    keys.iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|&(c, s)| {
                            let out = run_job(
                                &plans[c].specs[s],
                                plans[c].tenant,
                                &pool,
                                &ReachCache::new(),
                                &CancelToken::new(),
                            )
                            .map_err(|e| e.to_string());
                            ((c, s), out)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parity thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_gains_are_distinct_points_of_the_box() {
        let pts: Vec<Vec<f64>> = (1..=64).map(cold_gains).collect();
        for p in &pts {
            for i in 0..2 {
                assert!((p[i] - GAIN_CENTER[i]).abs() <= GAIN_SPREAD[i]);
            }
        }
        for (i, a) in pts.iter().enumerate() {
            assert!(pts[i + 1..].iter().all(|b| b != a));
        }
        assert_eq!(radical_inverse(6, 2), 0.375);
    }

    #[test]
    fn plans_keep_the_input_set_and_change_only_the_order() {
        let spec_set = |seed| {
            let mut v: Vec<String> = plans(seed, 5.0, 2)
                .iter()
                .flat_map(|p| p.specs.iter().map(|s| format!("{s:?}")))
                .collect();
            v.sort();
            v
        };
        assert_eq!(spec_set(1), spec_set(2));
        let kinds =
            |seed| -> Vec<Kind> { plans(seed, 5.0, 2)[0].jobs.iter().map(|j| j.kind).collect() };
        assert_ne!(kinds(1), kinds(2));
        assert_eq!(kinds(1)[0], Kind::Cold);
    }
}
