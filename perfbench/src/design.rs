//! The `design_acc` and `design_nn` workloads: seeded sets of one-call
//! design jobs (`design_while_verify_{linear,nn}`), each one learn,
//! certify and report.

use crate::calib;
use crate::meta::fnv1a;
use crate::report::{Metric, RunResult};
use crate::rng::SplitMix;
use crate::spans::{self, Tracer};
use crate::stats::{json_list, median, quantile, Obj};
use dwv_bench::experiments::{default_linear_config, default_nn_config, NnSetup};
use dwv_core::{
    design_while_verify_linear, design_while_verify_nn, find_counterexample, judge,
    AbstractionKind, Algorithm1, Algorithm2, LearnConfig, MetricKind, PortfolioMode,
    ProvenanceSummary, VerificationReport,
};
use dwv_dynamics::{eval::rates, Controller, LinearController, NnController, ReachAvoidProblem};
use dwv_interval::IntervalBox;
use dwv_metrics::GeometricMetric;
use dwv_reach::{
    BernsteinAbstraction, Flowpipe, LinearReach, PortfolioStats, PortfolioVerifier, ReachError,
    TaylorAbstraction, TaylorReach,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// The surrogate portfolio mode every `Surrogate` job uses.
const SURROGATE: PortfolioMode = PortfolioMode::Surrogate { confirm_every: 5 };

/// Which paper system a job designs for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Adaptive cruise control (affine).
    Acc,
    /// Van der Pol oscillator.
    Vdp,
    /// The 3-D polynomial system.
    ThreeD,
}

impl System {
    /// Short name used in metric and pairing names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            System::Acc => "acc",
            System::Vdp => "vdp",
            System::ThreeD => "3d",
        }
    }

    /// The system's reach-avoid problem.
    #[must_use]
    pub fn problem(self) -> ReachAvoidProblem {
        match self {
            System::Acc => dwv_dynamics::acc::reach_avoid_problem(),
            System::Vdp => NnSetup::Oscillator.problem(),
            System::ThreeD => NnSetup::ThreeDim.problem(),
        }
    }

    fn nn_setup(self) -> NnSetup {
        match self {
            System::ThreeD => NnSetup::ThreeDim,
            _ => NnSetup::Oscillator,
        }
    }
}

/// The verifier a job learns against (Table 2's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// The exact linear flowpipe (Flow\* stand-in for ACC).
    Linear,
    /// POLAR: Taylor-model abstraction, order 2.
    Polar,
    /// ReachNN: Bernstein abstraction, degree 2.
    ReachNn,
}

impl Tool {
    fn name(self) -> &'static str {
        match self {
            Tool::Linear => "linear",
            Tool::Polar => "polar",
            Tool::ReachNn => "reachnn",
        }
    }

    fn abstraction(self) -> AbstractionKind {
        match self {
            Tool::ReachNn => AbstractionKind::Bernstein { degree: 2 },
            _ => AbstractionKind::Polar { order: 2 },
        }
    }
}

/// One design job: a pairing and a learning seed.
#[derive(Debug, Clone)]
pub struct DesignJob {
    /// Position in the workload's job list.
    pub id: u64,
    /// The system.
    pub system: System,
    /// The verifier.
    pub tool: Tool,
    /// Whether Algorithm 1 and the sweep run on the tiered portfolio.
    pub surrogate: bool,
    /// Algorithm 1's seed.
    pub learn_seed: u64,
    /// The problem (built during set-up).
    pub problem: ReachAvoidProblem,
    /// The tuned configuration (built during set-up).
    pub config: LearnConfig,
}

impl DesignJob {
    /// A job with the tuned configuration of its pairing.
    #[must_use]
    pub fn new(id: u64, system: System, tool: Tool, surrogate: bool, learn_seed: u64) -> Self {
        let mut config = match tool {
            Tool::Linear => default_linear_config(MetricKind::Geometric, learn_seed),
            _ => default_nn_config(
                system.nn_setup(),
                MetricKind::Geometric,
                tool.abstraction(),
                learn_seed,
            ),
        };
        if surrogate {
            config.portfolio = SURROGATE;
        }
        Self {
            id,
            system,
            tool,
            surrogate,
            learn_seed,
            problem: system.problem(),
            config,
        }
    }

    /// The pairing name, e.g. `vdp-polar-surrogate`.
    #[must_use]
    pub fn pairing(&self) -> String {
        pairing_name(self.system, self.tool, self.surrogate)
    }
}

/// `<system>-<tool>[-surrogate]`.
#[must_use]
pub fn pairing_name(system: System, tool: Tool, surrogate: bool) -> String {
    let base = format!("{}-{}", system.name(), tool.name());
    if surrogate {
        base + "-surrogate"
    } else {
        base
    }
}

/// One pairing of a design workload. A round holds one job of each
/// pairing, except that `every` > 1 puts the pairing in only every
/// `every`-th round. Pairings with the same `stream` draw the same learning
/// seeds, so a surrogate job repeats its rigorous twin's seed.
struct Pairing {
    system: System,
    tool: Tool,
    surrogate: bool,
    every: u64,
    stream: u64,
}

const ACC_PAIRINGS: &[Pairing] = &[
    Pairing {
        system: System::Acc,
        tool: Tool::Linear,
        surrogate: false,
        every: 1,
        stream: 0,
    },
    Pairing {
        system: System::Acc,
        tool: Tool::Linear,
        surrogate: true,
        every: 1,
        stream: 0,
    },
];

/// VdP ReachNN runs most seeds to the full 300 updates (≈6.5 s), so it
/// appears every third round to keep it under half of the wall time.
const NN_PAIRINGS: &[Pairing] = &[
    Pairing {
        system: System::Vdp,
        tool: Tool::Polar,
        surrogate: false,
        every: 1,
        stream: 0,
    },
    Pairing {
        system: System::Vdp,
        tool: Tool::Polar,
        surrogate: true,
        every: 1,
        stream: 0,
    },
    Pairing {
        system: System::ThreeD,
        tool: Tool::Polar,
        surrogate: false,
        every: 1,
        stream: 1,
    },
    Pairing {
        system: System::ThreeD,
        tool: Tool::Polar,
        surrogate: true,
        every: 1,
        stream: 1,
    },
    Pairing {
        system: System::ThreeD,
        tool: Tool::ReachNn,
        surrogate: false,
        every: 1,
        stream: 2,
    },
    Pairing {
        system: System::Vdp,
        tool: Tool::ReachNn,
        surrogate: false,
        every: 3,
        stream: 3,
    },
];

/// Reference-host seconds of one round, used only to size the job list
/// from `--seconds` (ACC: both modes of one seed; NN: one job per pairing,
/// VdP ReachNN every third round).
fn round_cost_s(nn: bool) -> f64 {
    if nn {
        4.3
    } else {
        0.32
    }
}

/// Builds a design workload's job list from the workload seed.
///
/// Each pairing runs the learning seeds `1..=n` for its `n` rounds, and the
/// workload seed shuffles which round each one lands in. The set itself is
/// fixed: drawing the learning seeds at random made the run-to-run spread
/// of the wall time and job quantiles larger than the bounds at this run
/// length (a job's cost depends on how many updates its seed needs).
#[must_use]
pub fn job_list(nn: bool, seed: u64, seconds: f64) -> Vec<DesignJob> {
    let pairings = if nn { NN_PAIRINGS } else { ACC_PAIRINGS };
    let rounds = ((seconds / round_cost_s(nn)).round() as u64).max(1);
    let mut jobs = Vec::new();
    for (p_idx, p) in pairings.iter().enumerate() {
        let n = rounds.div_ceil(p.every);
        let mut rng = SplitMix::new(seed, 0x1EA2 + p.stream);
        for (r, s) in rng.sample_distinct(n, n as usize).into_iter().enumerate() {
            jobs.push((r as u64 * p.every, p_idx, s));
        }
    }
    // Round-major order, pairings in table order within a round.
    jobs.sort_by_key(|&(round, p_idx, _)| (round, p_idx));
    jobs.into_iter()
        .enumerate()
        .map(|(id, (_, p_idx, s))| {
            let p = &pairings[p_idx];
            DesignJob::new(id as u64, p.system, p.tool, p.surrogate, s)
        })
        .collect()
}

/// A learned controller of either kind.
#[derive(Debug, Clone)]
pub enum Ctrl {
    /// Linear state feedback.
    Linear(LinearController),
    /// Neural network.
    Nn(NnController),
}

impl Ctrl {
    fn as_dyn(&self) -> &dyn Controller {
        match self {
            Ctrl::Linear(k) => k,
            Ctrl::Nn(k) => k,
        }
    }
}

/// Everything the benchmark keeps from one design job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Wall seconds of the call.
    pub latency_s: f64,
    /// The learned controller.
    pub controller: Ctrl,
    /// Algorithm 1 iterations.
    pub iterations: usize,
    /// Verifier calls Algorithm 1 made.
    pub verifier_calls: usize,
    /// Algorithm 1's portfolio bill (surrogate jobs).
    pub learn_portfolio: Option<PortfolioStats>,
    /// The certification sweep's portfolio bill (surrogate jobs).
    pub sweep_portfolio: Option<PortfolioStats>,
    /// The final report.
    pub report: VerificationReport,
}

impl JobResult {
    /// Whether the job certified a controller.
    #[must_use]
    pub fn certified(&self) -> bool {
        self.report.is_certified()
    }

    /// Algorithm 2 coverage, 0 when the search did not run.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.report.initial_set.as_ref().map_or(0.0, |s| s.coverage)
    }

    /// Verdict, iterations, coverage, controller bits, report bytes and
    /// every count (verifier calls, portfolio bills), hashed: equal across
    /// runs of one build and seed.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut s = format!(
            "{}|{}|{:016x}|{}|{:?}|{:?}|",
            self.report.verdict,
            self.iterations,
            self.coverage().to_bits(),
            self.verifier_calls,
            self.learn_portfolio,
            self.sweep_portfolio
        );
        for p in self.controller.as_dyn().params() {
            s.push_str(&format!("{:016x},", p.to_bits()));
        }
        s.push('|');
        s.push_str(&self.report.to_csv());
        fnv1a(s.as_bytes())
    }
}

/// Runs one job through the porcelain.
fn run_porcelain(job: &DesignJob) -> Result<JobResult, String> {
    let problem = job.problem.clone();
    let config = job.config.clone();
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| match job.tool {
        Tool::Linear => design_while_verify_linear(problem, config).map(|o| {
            (
                Ctrl::Linear(o.learning.controller.clone()),
                o.learning.iterations,
                o.learning.trace.total_verifier_calls(),
                o.learning.portfolio,
                o.sweep_portfolio,
                o.report,
            )
        }),
        _ => {
            let o = design_while_verify_nn(problem, config);
            Ok((
                Ctrl::Nn(o.learning.controller.clone()),
                o.learning.iterations,
                o.learning.trace.total_verifier_calls(),
                o.learning.portfolio,
                o.sweep_portfolio,
                o.report,
            ))
        }
    }));
    let latency_s = start.elapsed().as_secs_f64();
    match out {
        Ok(Ok((
            controller,
            iterations,
            verifier_calls,
            learn_portfolio,
            sweep_portfolio,
            report,
        ))) => Ok(JobResult {
            latency_s,
            controller,
            iterations,
            verifier_calls,
            learn_portfolio,
            sweep_portfolio,
            report,
        }),
        Ok(Err(e)) => Err(format!("job {}: error: {e}", job.id)),
        Err(_) => Err(format!("job {}: panicked", job.id)),
    }
}

/// Rollout budget and seed of the assessment (`dwv_core::assess` uses the
/// same constants; the traced decomposition must match them bit for bit).
const SIM_SAMPLES: usize = 500;
const CEX_SAMPLES: usize = 200;
const SIM_SEED: u64 = 0x0A55E55;
const ALG2_ROUNDS: usize = 4;

/// `dwv_core::assess`, one public call per span: the whole-`X₀` reach,
/// `judge`, `Algorithm2::search` with a span per cell, `rates` and
/// `find_counterexample`.
fn assess_traced<C: Controller + ?Sized>(
    tr: &Tracer,
    job: u64,
    root: u64,
    problem: &ReachAvoidProblem,
    controller: &C,
    verify: &mut dyn FnMut(&IntervalBox) -> Result<Flowpipe, ReachError>,
) -> VerificationReport {
    let attempt = tr.span("reach_x0", job, root, |_| verify(&problem.x0));
    let verdict = tr.span("judge", job, root, |_| {
        judge(problem, controller, &attempt, SIM_SAMPLES, SIM_SEED)
    });
    let initial_set = verdict.is_reach_avoid().then(|| {
        tr.span("algorithm2", job, root, |a2| {
            Algorithm2::new(problem)
                .with_max_rounds(ALG2_ROUNDS)
                .search(|cell| tr.span("algorithm2.cell", job, a2, |_| verify(cell)))
        })
    });
    let rates = tr.span("rates", job, root, |_| {
        rates(problem, controller, SIM_SAMPLES, SIM_SEED)
    });
    let counterexample = if rates.is_perfect() {
        None
    } else {
        tr.span("counterexample", job, root, |_| {
            find_counterexample(problem, controller, CEX_SAMPLES, SIM_SEED)
        })
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

/// The porcelain's portfolio sweep: every query decisive, provenance kept.
fn assess_portfolio_traced<C: Controller + Sync>(
    tr: &Tracer,
    job: u64,
    root: u64,
    problem: &ReachAvoidProblem,
    controller: &C,
    portfolio: &PortfolioVerifier<C>,
) -> VerificationReport {
    let h = dwv_reach::hash_params(&controller.params());
    let metric = GeometricMetric::for_problem(problem);
    let margin = move |fp: &Flowpipe| {
        let d = metric.evaluate(fp);
        if d.is_reach_avoid() {
            d.d_unsafe
        } else {
            f64::NEG_INFINITY
        }
    };
    let mut queries = Vec::new();
    let mut report = assess_traced(tr, job, root, problem, controller, &mut |cell| {
        let (result, prov) = portfolio.reach_decisive_from_prov(cell, controller, h, &margin);
        queries.push(prov);
        result
    });
    report.provenance = Some(ProvenanceSummary::from_queries(
        portfolio
            .tier_names()
            .into_iter()
            .map(str::to_string)
            .collect(),
        queries,
    ));
    report
}

/// Runs one job as its public calls, each in a span: Algorithm 1, then the
/// assessment. Must reproduce the porcelain's result exactly.
fn run_decomposed(job: &DesignJob, tr: &Tracer) -> Result<JobResult, String> {
    let problem = &job.problem;
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        tr.span("job", job.id, 0, |root| -> Result<_, String> {
            let alg = Algorithm1::new(problem.clone(), job.config.clone());
            if job.tool == Tool::Linear {
                let learning = tr
                    .span("learn", job.id, root, |_| alg.learn_linear())
                    .map_err(|e| e.to_string())?;
                let k = learning.controller.clone();
                let (report, sweep) = if job.surrogate {
                    let portfolio = alg.linear_portfolio().map_err(|e| e.to_string())?;
                    let r = assess_portfolio_traced(tr, job.id, root, problem, &k, &portfolio);
                    (r, Some(portfolio.stats()))
                } else {
                    let (a, b, c) = problem
                        .dynamics
                        .linear_parts()
                        .ok_or_else(|| "ACC dynamics are not affine".to_string())?;
                    let (delta, steps) = (problem.delta, problem.horizon_steps);
                    let mut oracle = |cell: &IntervalBox| {
                        LinearReach::new(&a, &b, &c, cell.clone(), delta, steps).reach(&k)
                    };
                    (
                        assess_traced(tr, job.id, root, problem, &k, &mut oracle),
                        None,
                    )
                };
                Ok((
                    Ctrl::Linear(k),
                    learning.iterations,
                    learning.trace.total_verifier_calls(),
                    learning.portfolio,
                    sweep,
                    report,
                ))
            } else {
                let learning = tr.span("learn", job.id, root, |_| alg.learn_nn());
                let k = learning.controller.clone();
                let (report, sweep) = if job.surrogate {
                    let portfolio = alg.nn_portfolio();
                    let r = assess_portfolio_traced(tr, job.id, root, problem, &k, &portfolio);
                    (r, Some(portfolio.stats()))
                } else {
                    let cfg = job.config.verifier.clone();
                    let report = match job.config.abstraction {
                        AbstractionKind::Polar { order } => {
                            let v = TaylorReach::new(
                                problem,
                                TaylorAbstraction::with_order(order),
                                cfg,
                            );
                            assess_traced(tr, job.id, root, problem, &k, &mut |cell| {
                                v.reach_from(cell, &k)
                            })
                        }
                        AbstractionKind::Bernstein { degree } => {
                            let v = TaylorReach::new(
                                problem,
                                BernsteinAbstraction::with_degree(degree),
                                cfg,
                            );
                            assess_traced(tr, job.id, root, problem, &k, &mut |cell| {
                                v.reach_from(cell, &k)
                            })
                        }
                    };
                    (report, None)
                };
                Ok((
                    Ctrl::Nn(k),
                    learning.iterations,
                    learning.trace.total_verifier_calls(),
                    learning.portfolio,
                    sweep,
                    report,
                ))
            }
        })
    }));
    let latency_s = start.elapsed().as_secs_f64();
    match out {
        Ok(Ok((
            controller,
            iterations,
            verifier_calls,
            learn_portfolio,
            sweep_portfolio,
            report,
        ))) => Ok(JobResult {
            latency_s,
            controller,
            iterations,
            verifier_calls,
            learn_portfolio,
            sweep_portfolio,
            report,
        }),
        Ok(Err(e)) => Err(format!("job {} (traced): error: {e}", job.id)),
        Err(_) => Err(format!("job {} (traced): panicked", job.id)),
    }
}

/// Soundness: rollouts from inside every certified `X_I` cell stay safe and
/// reach the goal. About this many rollouts per job, at least 4 per cell.
const SOUND_ROLLOUTS: usize = 128;

fn check_soundness(job: &DesignJob, r: &JobResult) -> Result<(), String> {
    let Some(set) = r.report.initial_set.as_ref().filter(|_| r.certified()) else {
        return Ok(());
    };
    let per_cell = (SOUND_ROLLOUTS / set.cells.len().max(1)).max(4);
    for (i, cell) in set.cells.iter().enumerate() {
        let mut p = job.problem.clone();
        p.x0 = cell.clone();
        let rr = rates(
            &p,
            r.controller.as_dyn(),
            per_cell,
            job.learn_seed ^ (i as u64) << 32,
        );
        if !rr.is_perfect() {
            return Err(format!(
                "job {} ({} seed {}): certified cell {i} has rollouts with SC {} GR {}",
                job.id,
                job.pairing(),
                job.learn_seed,
                rr.safe_rate,
                rr.goal_rate
            ));
        }
    }
    Ok(())
}

/// Fingerprints of earlier runs of this build, workload, seed and size, to
/// check determinism across processes. Written by the first untraced run.
fn fingerprint_file(
    out_dir: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    build: &str,
) -> std::path::PathBuf {
    out_dir
        .join("fingerprints")
        .join(format!("{workload}-seed{seed}-s{seconds}-{build}.txt"))
}

fn load_fingerprints(path: &Path) -> Option<std::collections::BTreeMap<u64, u64>> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(
        text.lines()
            .filter_map(|l| {
                let mut it = l.split_whitespace();
                let id = it.next()?.parse().ok()?;
                let fp = u64::from_str_radix(it.last()?, 16).ok()?;
                Some((id, fp))
            })
            .collect(),
    )
}

/// Per-pairing counts from the jobs' public outputs.
#[derive(Default)]
struct PairingCounts {
    jobs: u64,
    certified: u64,
    iterations: u64,
    verifier_calls: u64,
    learn_calls_by_tier: Vec<u64>,
    learn_escalations: u64,
    learn_decided_cheap: u64,
    sweep_calls_by_tier: Vec<u64>,
    sweep_escalations: u64,
    sweep_decided_cheap: u64,
    alg2_accepted: u64,
    alg2_verified: u64,
    seconds: f64,
}

fn add_stats(into: &mut Vec<u64>, esc: &mut u64, cheap: &mut u64, s: Option<&PortfolioStats>) {
    if let Some(s) = s {
        if into.len() < s.calls_by_tier.len() {
            into.resize(s.calls_by_tier.len(), 0);
        }
        for (a, b) in into.iter_mut().zip(&s.calls_by_tier) {
            *a += b;
        }
        *esc += s.escalations;
        *cheap += s.decided_cheap;
    }
}

fn ints(v: &[u64]) -> String {
    json_list(&v.iter().map(u64::to_string).collect::<Vec<_>>())
}

fn counts_json(jobs: &[DesignJob], results: &[Option<JobResult>]) -> String {
    let mut by: std::collections::BTreeMap<String, PairingCounts> = Default::default();
    for (job, r) in jobs.iter().zip(results) {
        let Some(r) = r else { continue };
        let c = by.entry(job.pairing()).or_default();
        c.jobs += 1;
        c.certified += u64::from(r.certified());
        c.iterations += r.iterations as u64;
        c.verifier_calls += r.verifier_calls as u64;
        add_stats(
            &mut c.learn_calls_by_tier,
            &mut c.learn_escalations,
            &mut c.learn_decided_cheap,
            r.learn_portfolio.as_ref(),
        );
        add_stats(
            &mut c.sweep_calls_by_tier,
            &mut c.sweep_escalations,
            &mut c.sweep_decided_cheap,
            r.sweep_portfolio.as_ref(),
        );
        if let Some(s) = &r.report.initial_set {
            c.alg2_accepted += s.cells.len() as u64;
            c.alg2_verified += s.verifier_calls as u64;
        }
        c.seconds += r.latency_s;
    }
    let mut o = Obj::new();
    for (name, c) in &by {
        let mut e = Obj::new();
        e.int("jobs", c.jobs)
            .int("certified", c.certified)
            .int("iterations", c.iterations)
            .int("verifier_calls", c.verifier_calls)
            .num(
                "calls_per_iteration",
                c.verifier_calls as f64 / c.iterations.max(1) as f64,
            )
            .raw("learn_calls_by_tier", ints(&c.learn_calls_by_tier))
            .int("learn_escalations", c.learn_escalations)
            .int("learn_decided_cheap", c.learn_decided_cheap)
            .raw("sweep_calls_by_tier", ints(&c.sweep_calls_by_tier))
            .int("sweep_escalations", c.sweep_escalations)
            .int("sweep_decided_cheap", c.sweep_decided_cheap)
            .int("alg2_accepted_cells", c.alg2_accepted)
            .int("alg2_cells_verified", c.alg2_verified)
            .num("seconds", c.seconds);
        o.raw(name, e.render());
    }
    o.render()
}

/// Untraced runs measure the job set at least this many times (the job
/// set is sized so that this many passes take `--seconds` on the
/// reference host); each end-to-end timing is the median over the passes,
/// so a burst of load from elsewhere on the host that spans less than a
/// pass does not move it.
pub const PASSES: usize = 3;

/// How often the sampler takes a reading while a pass runs (2% of the
/// pass's CPU).
const SAMPLE_EVERY: std::time::Duration = std::time::Duration::from_millis(25);

fn nums(v: &[f64]) -> String {
    json_list(
        &v.iter()
            .map(|w| crate::stats::json_num(*w))
            .collect::<Vec<_>>(),
    )
}

/// Set-up repetitions; `setup_s` is their median. Building a job list
/// takes microseconds, so many repetitions steady the median.
const SETUPS: usize = 1001;

/// Runs `design_acc` (`nn == false`) or `design_nn`.
#[must_use]
pub fn run(
    nn: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &Path,
    build: &str,
) -> RunResult {
    let workload = if nn { "design_nn" } else { "design_acc" };
    let pass_seconds = seconds as f64 / PASSES as f64;
    let mut res = RunResult::default();
    let mut setup_samples = Vec::with_capacity(SETUPS);
    let mut setup_speed = Vec::with_capacity(SETUPS);
    let mut jobs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        jobs = std::hint::black_box(job_list(nn, seed, pass_seconds));
        setup_samples.push(t.elapsed().as_secs_f64());
        setup_speed.push(calib::sample());
    }
    let setup_k = median(&setup_speed);
    let fp_path = fingerprint_file(out_dir, workload, seed, seconds, build);
    let earlier = load_fingerprints(&fp_path);
    let tracer = Tracer::new();
    // The first failure of each job, so a job counts once in `failed`.
    let mut failures: std::collections::BTreeMap<u64, String> = Default::default();
    let mut fail = |id: u64, msg: String| {
        failures.entry(id).or_insert(msg);
    };

    // passes[p][j]: job j's result in pass p.
    let mut passes: Vec<Vec<Option<JobResult>>> = Vec::new();
    let mut pass_walls = Vec::new();
    // ref_s[p][j]: job j's porcelain time in pass p at the reference speed.
    let mut ref_s: Vec<Vec<Option<f64>>> = Vec::new();
    let mut speed = Vec::new();
    let mut traced_s = 0.0;
    // Design passes continue while another one fits in `--seconds`.
    let run_start = Instant::now();
    let more = |walls: &[f64]| {
        let n = walls.len();
        if trace {
            n < 1
        } else {
            n < PASSES || run_start.elapsed().as_secs_f64() + median(walls) <= seconds as f64
        }
    };
    while more(&pass_walls) {
        let mut results = Vec::with_capacity(jobs.len());
        // Readings come from a sampling thread that follows this thread's
        // CPU, taken while each job runs: the host's two CPUs drift apart
        // (their speeds correlate at about 0.25), and readings taken between
        // jobs missed the swings inside a long one. This thread is not
        // pinned: the program probes its CPU count once and caches it.
        let sampler = calib::Sampler::start(SAMPLE_EVERY, true);
        let mut windows = Vec::with_capacity(jobs.len());
        let wall = Instant::now();
        for job in &jobs {
            let from = sampler.elapsed();
            let r = run_porcelain(job).map_err(|e| fail(job.id, e)).ok();
            windows.push((from, sampler.elapsed()));
            if let (true, Some(porcelain)) = (trace, &r) {
                match run_decomposed(job, &tracer) {
                    Ok(d) => {
                        traced_s += d.latency_s;
                        if d.fingerprint() != porcelain.fingerprint() {
                            fail(
                                job.id,
                                format!(
                                    "job {} ({}): traced decomposition differs from the porcelain",
                                    job.id,
                                    job.pairing()
                                ),
                            );
                        }
                    }
                    Err(e) => fail(job.id, e),
                }
            }
            results.push(r);
        }
        pass_walls.push(wall.elapsed().as_secs_f64());
        let readings = sampler.finish();
        ref_s.push(
            results
                .iter()
                .zip(&windows)
                .map(|(r, &(from, to))| {
                    r.as_ref()
                        .map(|r| calib::at_ref(r.latency_s, calib::during(&readings, from, to)))
                })
                .collect(),
        );
        speed.extend(readings.iter().map(|r| r.1));
        passes.push(results);
    }
    res.attempted = jobs.len() as u64;

    // Correctness checks, outside the timed region: soundness on the first
    // pass, the same bits in every pass and in earlier runs of this build.
    let first = &passes[0];
    for (j, job) in jobs.iter().enumerate() {
        let Some(r) = &first[j] else { continue };
        if let Err(e) = check_soundness(job, r) {
            fail(job.id, e);
        }
        let fp = r.fingerprint();
        if passes[1..]
            .iter()
            .any(|p| p[j].as_ref().is_some_and(|o| o.fingerprint() != fp))
        {
            fail(
                job.id,
                format!("job {} ({}): passes disagree", job.id, job.pairing()),
            );
        }
        if earlier
            .as_ref()
            .and_then(|m| m.get(&job.id))
            .is_some_and(|e| *e != fp)
        {
            fail(
                job.id,
                format!(
                    "job {} ({} seed {}): result differs from an earlier run of this build",
                    job.id,
                    job.pairing(),
                    job.learn_seed
                ),
            );
        }
    }
    if !trace && earlier.is_none() && failures.is_empty() {
        let lines: String = jobs
            .iter()
            .zip(first)
            .filter_map(|(j, r)| {
                r.as_ref().map(|r| {
                    format!(
                        "{} {} {} {:016x}\n",
                        j.id,
                        j.pairing(),
                        j.learn_seed,
                        r.fingerprint()
                    )
                })
            })
            .collect();
        if let Some(dir) = fp_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(&fp_path, lines);
    }
    for msg in failures.into_values() {
        res.fail(msg);
    }

    let done: Vec<&JobResult> = first.iter().flatten().collect();
    if trace {
        let spans = tracer.spans();
        let phase_s: f64 = spans
            .iter()
            .filter(|s| s.parent != 0 && s.name != "algorithm2.cell")
            .map(spans::Span::secs)
            .sum();
        let porcelain_s: f64 = done.iter().map(|r| r.latency_s).sum();
        res.detail("span_self_time", spans::totals_json(&spans));
        let recon = phase_s / traced_s.max(1e-12);
        let ratio = traced_s / porcelain_s.max(1e-12);
        res.detail("phase_sum_over_traced_wall", crate::stats::json_num(recon));
        res.detail(
            "traced_wall_over_porcelain_wall",
            crate::stats::json_num(ratio),
        );
        // The phases must account for the traced jobs' time, and the traced
        // jobs for the porcelain's (loose limits: these are timings).
        res.attempted += 1;
        if !(0.9..=1.0 + 1e-9).contains(&recon) || !(0.5..=2.0).contains(&ratio) {
            res.fail(format!(
                "phase sum {phase_s:.3} s, traced {traced_s:.3} s and porcelain {porcelain_s:.3} s do not reconcile"
            ));
        }
        let path = out_dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        let _ = std::fs::create_dir_all(out_dir);
        let _ = std::fs::write(&path, spans::to_jsonl(&spans));
        res.detail(
            "spans_file",
            crate::stats::json_str(&path.display().to_string()),
        );
        res.metrics.push(Metric::single(
            "dwv-obs.tracing_overhead_frac",
            "ratio",
            ratio - 1.0,
            done.len(),
        ));
    } else {
        // Each job's latency is its median over the passes, and a pass's
        // wall the sum of its jobs' times, all at the reference speed.
        let lat: Vec<f64> = (0..jobs.len())
            .filter_map(|j| {
                let v: Vec<f64> = ref_s.iter().filter_map(|p| p[j]).collect();
                (!v.is_empty()).then(|| median(&v))
            })
            .collect();
        let walls: Vec<f64> = ref_s.iter().map(|p| p.iter().flatten().sum()).collect();
        let setup: Vec<f64> = setup_samples
            .iter()
            .map(|&t| calib::at_ref(t, setup_k))
            .collect();
        let n = done.len().max(1) as f64;
        res.metrics
            .push(Metric::from_samples("setup_s", "s", &setup, median));
        res.metrics
            .push(Metric::from_samples("design_wall_s", "s", &walls, median));
        let rates: Vec<f64> = walls.iter().map(|w| done.len() as f64 / w).collect();
        res.metrics
            .push(Metric::from_samples("jobs_per_s", "1/s", &rates, median));
        res.metrics
            .push(Metric::from_samples("job_p50_s", "s", &lat, median));
        res.metrics
            .push(Metric::from_samples("job_p90_s", "s", &lat, |v| {
                quantile(v, 0.9)
            }));
        res.metrics.push(Metric::single(
            "certified_frac",
            "ratio",
            done.iter().filter(|r| r.certified()).count() as f64 / n,
            done.len(),
        ));
        res.metrics.push(Metric::single(
            "xi_coverage_mean",
            "ratio",
            done.iter().map(|r| r.coverage()).sum::<f64>() / n,
            done.len(),
        ));
        res.detail("pass_walls_s", nums(&pass_walls));
        res.detail("pass_walls_at_ref_s", nums(&walls));
        res.detail(
            "setup_measured_s",
            crate::stats::json_num(median(&setup_samples)),
        );
        res.detail("kernel_s", calib::readings_json(setup_k, &speed));
    }
    res.detail("jobs", jobs.len().to_string());
    res.detail("counts_by_pairing", counts_json(&jobs, first));
    res.detail(
        "determinism_reference",
        crate::stats::json_str(if earlier.is_some() {
            "earlier run of this build"
        } else {
            "none yet (this run wrote it)"
        }),
    );
    res
}
