//! Server lifecycle integration tests: admission control, duplicate
//! detection, cancellation, tenant isolation, and drain semantics — all
//! over real loopback TCP.

use dwv_core::parallel::{CancelToken, WorkerPool};
use dwv_reach::ReachCache;
use dwv_serve::{
    run_job, Client, Frame, JobError, JobKind, JobSpec, JobState, ProblemId, RejectCode,
    ServeConfig, Server,
};
use std::sync::Arc;
use std::time::Duration;

fn acc_verify_spec() -> JobSpec {
    JobSpec {
        problem: ProblemId::Acc,
        kind: JobKind::VerifyLinear {
            gains: vec![0.5867, -2.0],
            grid: 2,
            samples: 100,
        },
    }
}

fn start(cfg: ServeConfig) -> Server {
    Server::start(cfg).expect("bind loopback")
}

#[test]
fn served_job_matches_in_process_run() {
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let spec = acc_verify_spec();
    let reply = client.submit(7, 1, 0, spec.clone()).expect("submit");
    assert!(matches!(reply, Frame::Accepted { job_id: 1 }));
    let served = client.stream_result(7, 1).expect("result");

    let pool = WorkerPool::new(2);
    let cache = Arc::new(ReachCache::new());
    let batch = run_job(&spec, 7, &pool, &cache, &CancelToken::new()).expect("batch run");
    assert_eq!(served.verdict, batch.verdict);
    assert_eq!(served.segments, batch.segments);
    assert_eq!(served.report_csv, batch.report_csv);

    // Poll after completion reports Done.
    assert_eq!(client.poll(7, 1).expect("poll"), JobState::Done);
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_retry_hint_instead_of_buffering() {
    // Zero workers: nothing drains the queue, so capacity is exact.
    let server = start(ServeConfig {
        workers: 0,
        queue_capacity: 2,
        retry_after_ms: 40,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    for job_id in 1..=2 {
        let reply = client
            .submit(1, job_id, 0, acc_verify_spec())
            .expect("submit");
        assert!(
            matches!(reply, Frame::Accepted { .. }),
            "job {job_id}: {reply:?}"
        );
    }
    let reply = client.submit(1, 3, 0, acc_verify_spec()).expect("submit");
    match reply {
        Frame::Rejected {
            job_id,
            code,
            retry_after_ms,
        } => {
            assert_eq!(job_id, 3);
            assert_eq!(code, RejectCode::Overloaded);
            assert_eq!(retry_after_ms, 40, "retry hint must come from config");
        }
        other => panic!("expected Rejected{{Overloaded}}, got {other:?}"),
    }
    // The rejected job must leave no residue: the same id is usable after
    // the queue clears.
    assert_eq!(client.poll(1, 3).expect("poll"), JobState::Unknown);
    server.shutdown();
}

#[test]
fn duplicate_job_ids_are_rejected_per_tenant() {
    let server = start(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let first = client.submit(5, 42, 0, acc_verify_spec()).expect("submit");
    assert!(matches!(first, Frame::Accepted { .. }));
    let dup = client.submit(5, 42, 0, acc_verify_spec()).expect("submit");
    assert!(
        matches!(
            dup,
            Frame::Rejected {
                code: RejectCode::DuplicateJob,
                ..
            }
        ),
        "{dup:?}"
    );
    // Same job id under a different tenant is a different job.
    let other_tenant = client.submit(6, 42, 0, acc_verify_spec()).expect("submit");
    assert!(
        matches!(other_tenant, Frame::Accepted { .. }),
        "{other_tenant:?}"
    );
    server.shutdown();
}

#[test]
fn invalid_specs_are_rejected_at_admission() {
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let bad_specs = vec![
        // Wrong gain count for ACC (needs n_input × n_state = 2).
        JobSpec {
            problem: ProblemId::Acc,
            kind: JobKind::AssessLinear {
                gains: vec![1.0, 2.0, 3.0],
            },
        },
        // VerifyLinear on a non-affine problem.
        JobSpec {
            problem: ProblemId::VanDerPol,
            kind: JobKind::VerifyLinear {
                gains: vec![1.0, 2.0],
                grid: 2,
                samples: 10,
            },
        },
        // NN params not matching the architecture.
        JobSpec {
            problem: ProblemId::VanDerPol,
            kind: JobKind::AssessNn {
                hidden: vec![8],
                output_scale: 1.0,
                order: 2,
                params: vec![0.0; 3],
            },
        },
        // Non-finite output scale.
        JobSpec {
            problem: ProblemId::VanDerPol,
            kind: JobKind::AssessNn {
                hidden: vec![8],
                output_scale: f64::NAN,
                order: 2,
                params: vec![0.0; 33],
            },
        },
    ];
    for (i, spec) in bad_specs.into_iter().enumerate() {
        let reply = client.submit(1, 100 + i as u64, 0, spec).expect("submit");
        assert!(
            matches!(
                reply,
                Frame::Rejected {
                    code: RejectCode::BadSpec,
                    retry_after_ms: 0,
                    ..
                }
            ),
            "spec {i}: {reply:?}"
        );
    }
    server.shutdown();
}

#[test]
fn out_of_range_judge_samples_are_rejected_and_the_server_lives_on() {
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    // An Unsafe controller (no braking), so a zero-sample judgement would
    // have to simulate; u32::MAX rollouts would pin the worker for hours.
    for (i, samples) in [0, 100_001, u32::MAX].into_iter().enumerate() {
        let spec = JobSpec {
            problem: ProblemId::Acc,
            kind: JobKind::VerifyLinear {
                gains: vec![0.0, 0.0],
                grid: 1,
                samples,
            },
        };
        assert!(
            matches!(dwv_serve::validate(&spec), Err(JobError::Invalid(_))),
            "samples {samples}"
        );
        let reply = client.submit(4, 200 + i as u64, 0, spec).expect("submit");
        assert!(
            matches!(
                reply,
                Frame::Rejected {
                    code: RejectCode::BadSpec,
                    retry_after_ms: 0,
                    ..
                }
            ),
            "samples {samples}: {reply:?}"
        );
    }
    // The bounds themselves are accepted, and the worker still serves.
    for (i, samples) in [1, 100_000].into_iter().enumerate() {
        let spec = JobSpec {
            problem: ProblemId::Acc,
            kind: JobKind::VerifyLinear {
                gains: vec![0.0, 0.0],
                grid: 1,
                samples,
            },
        };
        let job_id = 300 + i as u64;
        let reply = client.submit(4, job_id, 0, spec).expect("submit");
        assert!(matches!(reply, Frame::Accepted { .. }), "{reply:?}");
        let out = client.stream_result(4, job_id).expect("served");
        assert!(out.verdict.starts_with("Unsafe"), "{}", out.verdict);
    }
    server.shutdown();
}

#[test]
fn non_finite_gains_end_in_a_verdict_not_a_dead_worker() {
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    for (i, gains) in [vec![f64::NAN, -2.0], vec![0.5867, f64::INFINITY]]
        .into_iter()
        .enumerate()
    {
        let spec = JobSpec {
            problem: ProblemId::Acc,
            kind: JobKind::VerifyLinear {
                gains,
                grid: 2,
                samples: 100,
            },
        };
        let job_id = 400 + i as u64;
        let reply = client.submit(5, job_id, 0, spec).expect("submit");
        assert!(matches!(reply, Frame::Accepted { .. }), "{reply:?}");
        let out = client.stream_result(5, job_id).expect("served");
        assert!(
            out.verdict.starts_with("Unsafe") || out.verdict.starts_with("Unknown"),
            "{}",
            out.verdict
        );
    }
    server.shutdown();
}

/// Van der Pol `[2, 8, 1]` `AssessNn` specs whose enclosures overflow `f64`:
/// an infinite or huge output scale, huge weights, and both.
fn overflowing_nn_specs() -> Vec<(&'static str, JobSpec)> {
    let params = dwv_nn::Network::new(
        &[2, 8, 1],
        dwv_nn::Activation::ReLU,
        dwv_nn::Activation::Tanh,
        3,
    )
    .params();
    let huge: Vec<f64> = params.iter().map(|w| w * 1e300).collect();
    let spec = |output_scale: f64, params: &[f64]| JobSpec {
        problem: ProblemId::VanDerPol,
        kind: JobKind::AssessNn {
            hidden: vec![8],
            output_scale,
            order: 2,
            params: params.to_vec(),
        },
    };
    vec![
        ("scale +inf", spec(f64::INFINITY, &params)),
        ("scale 1e300", spec(1e300, &params)),
        ("weights x1e300", spec(1.0, &huge)),
        ("weights x1e300, scale 1e300", spec(1e300, &huge)),
    ]
}

#[test]
fn overflowing_nn_controllers_end_in_a_typed_error_or_a_verdict() {
    // Each of these used to panic the worker on a NaN interval endpoint.
    let pool = WorkerPool::new(1);
    let cache = ReachCache::new();
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    for (i, (name, spec)) in overflowing_nn_specs().into_iter().enumerate() {
        let direct = run_job(&spec, 8, &pool, &cache, &CancelToken::new());
        let job_id = 500 + i as u64;
        let reply = client.submit(8, job_id, 0, spec.clone()).expect("submit");
        if name == "scale +inf" {
            assert!(
                matches!(direct, Err(JobError::Invalid(_))),
                "{name}: {direct:?}"
            );
            assert!(
                matches!(
                    reply,
                    Frame::Rejected {
                        code: RejectCode::BadSpec,
                        ..
                    }
                ),
                "{name}: {reply:?}"
            );
            continue;
        }
        let direct = direct.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(matches!(reply, Frame::Accepted { .. }), "{name}: {reply:?}");
        let served = client.stream_result(8, job_id).expect("served");
        assert!(
            served.verdict.starts_with("Unsafe") || served.verdict.starts_with("Unknown"),
            "{name}: {}",
            served.verdict
        );
        assert_eq!(served.verdict, direct.verdict, "{name}");
        assert_eq!(served.report_csv, direct.report_csv, "{name}");
    }
    // The worker survived every job and still serves.
    client.submit(8, 600, 0, acc_verify_spec()).expect("submit");
    let out = client.stream_result(8, 600).expect("served");
    assert!(out.verdict.starts_with("reach-avoid"), "{}", out.verdict);
    server.shutdown();
}

#[test]
fn queued_jobs_can_be_cancelled() {
    let server = start(ServeConfig {
        workers: 0, // never executes, stays Queued
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    client.submit(2, 9, 0, acc_verify_spec()).expect("submit");
    assert_eq!(client.poll(2, 9).expect("poll"), JobState::Queued);
    assert_eq!(client.cancel(2, 9).expect("cancel"), JobState::Cancelled);
    // Cancellation is terminal and streamable.
    let events = client.stream_events(2, 9).expect("stream");
    assert_eq!(events.len(), 1);
    assert!(events[0].is_terminal());
    // Cancel of an unknown job reports Unknown, not an error.
    assert_eq!(client.cancel(2, 777).expect("cancel"), JobState::Unknown);
    server.shutdown();
}

#[test]
fn deadline_expiry_cancels_queued_jobs() {
    let server = start(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    client.submit(3, 1, 30, acc_verify_spec()).expect("submit");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let state = client.poll(3, 1).expect("poll");
        if state == JobState::Cancelled {
            break;
        }
        assert_eq!(state, JobState::Queued);
        assert!(
            std::time::Instant::now() < deadline,
            "deadline never enforced"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn tenants_share_results_but_not_caches() {
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let spec = acc_verify_spec();
    client.submit(10, 1, 0, spec.clone()).expect("submit");
    client.submit(11, 1, 0, spec).expect("submit");
    let a = client.stream_result(10, 1).expect("tenant 10");
    let b = client.stream_result(11, 1).expect("tenant 11");
    // Identical specs give identical bytes regardless of tenant: caches are
    // isolated (correctness), results are deterministic (parity).
    assert_eq!(a.verdict, b.verdict);
    assert_eq!(a.segments, b.segments);
    server.shutdown();
}

#[test]
fn drain_rejects_new_work_and_reports_backlog() {
    let server = start(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    client.submit(4, 1, 0, acc_verify_spec()).expect("submit");
    let (queued, running) = client.drain().expect("drain");
    assert_eq!((queued, running), (1, 0));
    assert!(server.is_draining());
    let reply = client.submit(4, 2, 0, acc_verify_spec()).expect("submit");
    assert!(
        matches!(
            reply,
            Frame::Rejected {
                code: RejectCode::Draining,
                ..
            }
        ),
        "{reply:?}"
    );
    // Forced drain cancels the stuck queued job and reports it.
    let forced = server.drain(Duration::from_millis(50));
    assert_eq!(forced, 1);
    assert_eq!(client.poll(4, 1).expect("poll"), JobState::Cancelled);
    server.shutdown();
}

#[test]
fn concurrent_clients_all_complete() {
    let server = start(ServeConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .submit(20 + t, 1, 0, acc_verify_spec())
                    .expect("submit");
                client.stream_result(20 + t, 1).expect("result").verdict
            })
        })
        .collect();
    let verdicts: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect();
    assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{verdicts:?}");
    server.shutdown();
}
