//! End-to-end service tests: queue → worker pool → cache → metrics,
//! deadline degradation, priorities, cancellation, and the JSONL batch
//! driver.

use olsq2_arch::{grid, line};
use olsq2_circuit::generators::qaoa_circuit;
use olsq2_circuit::{Circuit, Gate, GateKind};
use olsq2_layout::verify;
use olsq2_service::{
    manifest, JobStatus, Objective, Priority, ServiceConfig, SubmitError, SynthesisRequest,
    SynthesisService,
};
use std::time::Duration;

fn cx_chain(pairs: &[(u16, u16)], n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for &(a, b) in pairs {
        c.push(Gate::two(GateKind::Cx, a, b));
    }
    c
}

fn small_request(name: &str, circuit: Circuit) -> SynthesisRequest {
    let mut req = SynthesisRequest::new(name, circuit, line(3), Objective::Depth);
    req.config.swap_duration = 1;
    req
}

#[test]
fn queue_pool_cache_metrics_end_to_end() {
    let mut service = SynthesisService::start(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 32,
        ..ServiceConfig::default()
    });

    // Three structurally distinct circuits...
    let originals = [
        cx_chain(&[(0, 1), (1, 2)], 3),
        cx_chain(&[(0, 1), (1, 2), (0, 2)], 3),
        cx_chain(&[(0, 1)], 3),
    ];
    // ...and a qubit relabeling of each (σ: 0→2, 1→0, 2→1).
    let relabeled: Vec<Circuit> = originals
        .iter()
        .map(|c| c.permute_qubits(&[2, 0, 1]))
        .collect();

    // Phase 1: solve the originals (all misses).
    let first: Vec<_> = originals
        .iter()
        .enumerate()
        .map(|(i, c)| {
            service
                .submit(small_request(&format!("orig-{i}"), c.clone()))
                .expect("queue has room")
        })
        .collect();
    for (i, handle) in first.iter().enumerate() {
        match handle.wait() {
            JobStatus::Done(out) => {
                assert!(!out.cache_hit, "first solve of orig-{i} cannot hit");
                assert!(out.proven_optimal);
                assert!(!out.degraded);
                assert_eq!(verify(&originals[i], &line(3), &out.result), Ok(()));
            }
            other => panic!("orig-{i}: expected Done, got {other:?}"),
        }
    }

    // Phase 2: the relabeled twins must all be served from the cache, and
    // the translated results must be valid for the *relabeled* circuits.
    let second: Vec<_> = relabeled
        .iter()
        .enumerate()
        .map(|(i, c)| {
            service
                .submit(small_request(&format!("twin-{i}"), c.clone()))
                .expect("queue has room")
        })
        .collect();
    for (i, handle) in second.iter().enumerate() {
        match handle.wait() {
            JobStatus::Done(out) => {
                assert!(out.cache_hit, "twin-{i} must be served from cache");
                assert!(out.proven_optimal);
                assert!(out.solver_stats.is_none(), "cache hits skip the solver");
                assert_eq!(
                    verify(&relabeled[i], &line(3), &out.result),
                    Ok(()),
                    "translated hit must be valid for the relabeled circuit"
                );
            }
            other => panic!("twin-{i}: expected Done, got {other:?}"),
        }
    }

    let m = service.metrics();
    assert_eq!(m.submitted, 6);
    assert_eq!(m.done, 6);
    assert_eq!(m.failed, 0);
    assert_eq!(m.cancelled, 0);
    assert_eq!(m.queued, 0);
    assert_eq!(m.running, 0);
    assert_eq!(m.cache.hits, 3);
    assert_eq!(m.cache.misses, 3);
    assert!(m.p95_latency >= m.p50_latency);
    assert!(m.p50_latency > Duration::ZERO);
    assert!(m.solver.propagations > 0, "real solves ran");
    service.shutdown();
}

#[test]
fn deadline_degrades_to_best_so_far() {
    // On this instance the depth phase finds a first solution in well
    // under a second (debug build), but the full SWAP Pareto descent
    // takes tens of seconds — the 5s deadline cuts it mid-descent, and
    // the service must hand back the incumbent tagged non-optimal.
    let mut service = SynthesisService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 8,
        ..ServiceConfig::default()
    });
    let circuit = qaoa_circuit(8, 4);
    let mut req = SynthesisRequest::new("qaoa", circuit.clone(), grid(3, 3), Objective::Swaps);
    req.config.swap_duration = 1;
    req.deadline = Some(Duration::from_secs(5));
    let handle = service.submit(req).expect("queue has room");
    match handle.wait() {
        JobStatus::Done(out) => {
            assert!(out.degraded, "deadline must degrade, not complete");
            assert!(!out.proven_optimal);
            assert!(!out.cache_hit);
            assert_eq!(verify(&circuit, &grid(3, 3), &out.result), Ok(()));
        }
        other => panic!("expected degraded Done, got {other:?}"),
    }
    let m = service.metrics();
    assert_eq!(m.degraded, 1);
    assert_eq!(m.done, 1);
    // Degraded results must NOT be cached: a resubmission is a miss.
    let mut req2 = SynthesisRequest::new("qaoa-again", circuit, grid(3, 3), Objective::Swaps);
    req2.config.swap_duration = 1;
    req2.deadline = Some(Duration::from_millis(1500));
    let _ = service.submit(req2).expect("queue has room").wait();
    assert_eq!(service.metrics().cache.hits, 0);
    service.shutdown();
}

#[test]
fn priorities_cancellation_and_backpressure() {
    let mut service = SynthesisService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        cache_capacity: 8,
        ..ServiceConfig::default()
    });
    // Occupy the single worker with a job that runs for a while.
    let mut blocker =
        SynthesisRequest::new("blocker", qaoa_circuit(8, 4), grid(3, 3), Objective::Swaps);
    blocker.config.swap_duration = 1;
    blocker.deadline = Some(Duration::from_secs(4));
    let blocker_handle = service.submit(blocker).expect("queue has room");
    // Give the worker a moment to pick it up, so the queue is empty.
    while matches!(blocker_handle.poll(), JobStatus::Queued) {
        std::thread::yield_now();
    }

    // Queue a low- and then a high-priority job; the high one must be
    // dequeued first once the blocker finishes.
    let mut low = small_request("low", cx_chain(&[(0, 1), (1, 2)], 3));
    low.priority = Priority::Low;
    let mut high = small_request("high", cx_chain(&[(0, 1), (1, 2), (0, 2)], 3));
    high.priority = Priority::High;
    let low_handle = service.submit(low).expect("slot 1");
    let high_handle = service.submit(high).expect("slot 2");
    // Queue is now at capacity (2) while the worker is busy.
    let extra = small_request("extra", cx_chain(&[(0, 2)], 3));
    assert_eq!(service.submit(extra).unwrap_err(), SubmitError::QueueFull);

    let (JobStatus::Done(high_out), JobStatus::Done(low_out)) =
        (high_handle.wait(), low_handle.wait())
    else {
        panic!("both queued jobs complete")
    };
    assert!(
        high_out.wait < low_out.wait,
        "high priority must leave the queue first (waits: high {:?}, low {:?})",
        high_out.wait,
        low_out.wait
    );
    assert!(blocker_handle.wait().is_terminal());

    // Cancelling a queued job drops it before it runs.
    let mut blocker2 =
        SynthesisRequest::new("blocker2", qaoa_circuit(8, 4), grid(3, 3), Objective::Swaps);
    blocker2.config.swap_duration = 1;
    blocker2.deadline = Some(Duration::from_secs(4));
    let b2 = service.submit(blocker2).expect("queue has room");
    while matches!(b2.poll(), JobStatus::Queued) {
        std::thread::yield_now();
    }
    let doomed = service
        .submit(small_request("doomed", cx_chain(&[(0, 1)], 3)))
        .expect("room");
    doomed.cancel();
    match doomed.wait() {
        JobStatus::Cancelled => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(service.metrics().cancelled >= 1);
    service.shutdown();
    // After shutdown, submissions are rejected.
    assert_eq!(
        service
            .submit(small_request("late", cx_chain(&[(0, 1)], 3)))
            .unwrap_err(),
        SubmitError::ShuttingDown
    );
}

#[test]
fn manifest_batch_with_relabeled_duplicates_hits_cache() {
    // twin-a is a qubit relabeling of job-a (0→2, 1→0, 2→1): the batch
    // must show at least one cache hit.
    let text = r#"
# three jobs, one a relabeled duplicate
{"name":"job-a","device":"line3","objective":"depth","swap_duration":1,"circuit":{"num_qubits":3,"gates":[["cx",0,1],["cx",1,2]]}}
{"name":"twin-a","device":"line3","objective":"depth","swap_duration":1,"circuit":{"num_qubits":3,"gates":[["cx",2,0],["cx",0,1]]}}
{"name":"job-b","device":"line3","objective":"swaps","swap_duration":1,"priority":"high","circuit":{"num_qubits":3,"gates":[["cx",0,1],["cx",1,2],["cx",0,2]]}}
"#;
    let requests = manifest::parse_manifest(text).expect("manifest parses");
    assert_eq!(requests.len(), 3);
    assert_eq!(requests[2].priority, Priority::High);
    let (statuses, metrics) = manifest::run_batch(
        requests,
        ServiceConfig {
            workers: 1, // serialize so the twin always lands after job-a
            queue_capacity: 8,
            cache_capacity: 8,
            ..ServiceConfig::default()
        },
    );
    assert_eq!(statuses.len(), 3);
    for (name, _, status) in &statuses {
        assert!(
            matches!(status, JobStatus::Done(_)),
            "{name} should be done, got {status:?}"
        );
    }
    assert!(metrics.cache.hits > 0, "relabeled duplicate must hit");
    assert_eq!(metrics.done, 3);

    // The JSONL emission round-trips through the in-crate parser.
    for (name, tenant, status) in &statuses {
        let line = manifest::status_to_json(name, tenant, status).to_string();
        let parsed = olsq2_service::json::parse(&line).expect("result line is valid JSON");
        assert_eq!(parsed.get("name").unwrap().as_str(), Some(name.as_str()));
        assert_eq!(parsed.get("tenant").unwrap().as_str(), Some("default"));
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("done"));
    }
    let summary = manifest::metrics_to_json(&metrics).to_string();
    let parsed = olsq2_service::json::parse(&summary).expect("summary is valid JSON");
    assert_eq!(
        parsed
            .get("metrics")
            .and_then(|m| m.get("jobs"))
            .and_then(|j| j.get("done"))
            .and_then(|d| d.as_u64()),
        Some(3)
    );
}

#[test]
fn manifest_rejects_malformed_lines() {
    assert!(manifest::parse_manifest("{\"name\":\"x\"}").is_err()); // no device
    let bad_device =
        r#"{"name":"x","device":"nope","circuit":{"num_qubits":2,"gates":[["cx",0,1]]}}"#;
    assert!(manifest::parse_manifest(bad_device).is_err());
    let too_big =
        r#"{"name":"x","device":"line2","circuit":{"num_qubits":5,"gates":[["cx",0,1]]}}"#;
    assert!(manifest::parse_manifest(too_big).is_err());
    let bad_gate =
        r#"{"name":"x","device":"line3","circuit":{"num_qubits":3,"gates":[["cx",0,0]]}}"#;
    assert!(manifest::parse_manifest(bad_gate).is_err());
    let err = manifest::parse_manifest("\n\n{oops}").unwrap_err();
    assert_eq!(err.line, 3);
}

#[test]
fn traced_jobs_produce_nested_spans_and_prometheus_metrics() {
    let recorder = olsq2::Recorder::new();
    let mut service = SynthesisService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 8,
        recorder: recorder.clone(),
        ..ServiceConfig::default()
    });
    let a = service
        .submit(small_request("traced-a", cx_chain(&[(0, 1), (1, 2)], 3)))
        .expect("room");
    let b = service
        .submit(small_request("traced-b", cx_chain(&[(0, 2)], 3)))
        .expect("room");
    assert!(matches!(a.wait(), JobStatus::Done(_)));
    assert!(matches!(b.wait(), JobStatus::Done(_)));

    let snap = recorder.snapshot();
    let jobs: Vec<_> = snap.spans.iter().filter(|s| s.name == "job").collect();
    assert_eq!(jobs.len(), 2, "one span per job");
    for job in &jobs {
        assert!(job.dur_us.is_some(), "job span closed");
        let field = |key: &str| job.fields.iter().find(|(k, _)| k == key);
        assert!(field("job_id").is_some());
        assert!(field("queue_wait_us").is_some());
        assert!(
            matches!(field("objective"), Some((_, v)) if v.to_string() == "depth"),
            "objective tagged"
        );
        assert!(
            matches!(field("status"), Some((_, v)) if v.to_string() == "done"),
            "terminal status tagged"
        );
    }
    // Synthesizer spans opened on the worker thread nest under a job span.
    let job_ids: Vec<u64> = jobs.iter().map(|s| s.id).collect();
    let nested = snap
        .spans
        .iter()
        .filter(|s| s.name == "optimize_depth")
        .all(|s| matches!(s.parent, Some(p) if job_ids.contains(&p)));
    assert!(nested, "optimize_depth spans must parent under job spans");
    assert!(
        snap.spans.iter().any(|s| s.name == "optimize_depth"),
        "synthesizer spans recorded"
    );
    assert!(*snap.counters.get("sat.solves").unwrap_or(&0) > 0);

    // Prometheus exposition covers service metrics and recorder counters.
    let prom = service.prometheus_text();
    assert!(prom.contains("olsq2_jobs_done 2"));
    assert!(prom.contains("olsq2_sat_solves"));
    assert!(prom.contains("# TYPE olsq2_latency_p99_us gauge"));
    service.shutdown();
}

#[test]
fn manifest_ignores_the_retired_bound_workers_key() {
    // Manifests written for the removed bound-race scheduler, cube
    // synthesizer and legacy solver kernel still parse: their keys are
    // ignored like any other unknown key, whatever their values.
    for line in [
        r#"{"name":"r","device":"line4","objective":"swaps","bound_workers":4,"circuit":{"num_qubits":3,"gates":[["cx",0,1],["cx",1,2]]}}"#,
        r#"{"name":"c","device":"line4","objective":"swaps","cube_workers":4,"cube_depth":3,"circuit":{"num_qubits":3,"gates":[["cx",0,1],["cx",1,2]]}}"#,
        r#"{"name":"z","device":"line4","objective":"swaps","cube_workers":0,"cube_depth":99,"circuit":{"num_qubits":3,"gates":[["cx",0,1],["cx",1,2]]}}"#,
        r#"{"name":"l","device":"line4","objective":"swaps","legacy_solver":true,"circuit":{"num_qubits":3,"gates":[["cx",0,1],["cx",1,2]]}}"#,
    ] {
        let req = manifest::parse_request(line).expect("parses");
        assert_eq!(req.objective, Objective::Swaps);
    }
}

#[test]
fn deadline_killed_job_dumps_an_ingestible_flight_recording() {
    let dump_dir = std::env::temp_dir().join(format!("olsq2-flight-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dump_dir).expect("create dump dir");

    let mut service = SynthesisService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 8,
        flight: Some(olsq2_service::FlightSettings {
            capacity: 512,
            every: 1, // sample every conflict: even a short run fills the ring
            dir: Some(dump_dir.clone()),
        }),
        ..ServiceConfig::default()
    });
    // Same shape as deadline_degrades_to_best_so_far: the SWAP descent
    // cannot finish inside the deadline, so the job ends degraded.
    let mut req = SynthesisRequest::new("doomed", qaoa_circuit(8, 4), grid(3, 3), Objective::Swaps);
    req.config.swap_duration = 1;
    req.deadline = Some(Duration::from_secs(3));
    let handle = service.submit(req).expect("queue has room");
    let id = handle.id();
    match handle.wait() {
        JobStatus::Done(out) => assert!(out.degraded, "deadline must degrade the job"),
        other => panic!("expected degraded Done, got {other:?}"),
    }

    // The post-mortem dump is on disk and parses back into a FlightDump
    // whose final search sample carries real solver dynamics — the input
    // trace-diff's flight footer reads.
    let path = dump_dir.join(format!("job-{id}.flight.jsonl"));
    let text = std::fs::read_to_string(&path).expect("flight dump written on deadline expiry");
    let dump = olsq2_obs::FlightDump::parse_jsonl(&text).expect("dump is versioned JSONL");
    assert_eq!(dump.version, olsq2_obs::FLIGHT_VERSION);
    assert!(dump.emitted > 0, "a multi-second search must emit samples");
    let last = dump.last_search().expect("search samples present");
    assert!(last.conflicts > 0);
    assert!(last.propagations > 0);

    // The live endpoint serves the same ring.
    let live = service
        .introspection()
        .flight_jsonl(id)
        .expect("ring registered for the job");
    assert!(live.contains("\"type\":\"flight_meta\""));

    service.shutdown();
    std::fs::remove_dir_all(&dump_dir).ok();
}

#[test]
fn twin_admitted_while_its_original_is_in_flight_runs_no_second_solve() {
    // Both workers are held by blockers until the original and its
    // relabeled twin are admitted, so the original is queued and the twin
    // must follow it. Then the blockers are cancelled: one worker solves
    // the original, and the other finds no twin to solve a second time.
    let recorder = olsq2::Recorder::new();
    let mut service = SynthesisService::start(ServiceConfig {
        workers: 2,
        recorder: recorder.clone(),
        ..ServiceConfig::default()
    });
    let blockers: Vec<_> = (0..2)
        .map(|i| {
            let mut r = SynthesisRequest::new(
                format!("blocker-{i}"),
                qaoa_circuit(8, 4),
                grid(3, 3),
                Objective::Swaps,
            );
            r.config.swap_duration = 1;
            // A deadline keeps the two identical blockers from coalescing,
            // so each holds a worker.
            r.deadline = Some(Duration::from_secs(600));
            service.submit(r).expect("room")
        })
        .collect();
    while blockers
        .iter()
        .any(|b| matches!(b.poll(), JobStatus::Queued))
    {
        std::thread::yield_now();
    }
    let original = qaoa_circuit(8, 4);
    let twin = original.permute_qubits(&[3, 5, 0, 4, 1, 2, 7, 6]);
    let request = |name: &str, circuit: &Circuit| {
        let mut r = SynthesisRequest::new(name, circuit.clone(), grid(3, 3), Objective::Depth);
        r.config.swap_duration = 1;
        r
    };
    let first = service
        .submit(request("original", &original))
        .expect("room");
    let second = service.submit(request("twin", &twin)).expect("room");
    assert_eq!(
        service.metrics().queued,
        2,
        "the twin waits with its original"
    );
    for blocker in &blockers {
        blocker.cancel();
    }
    let (JobStatus::Done(a), JobStatus::Done(b)) = (first.wait(), second.wait()) else {
        panic!("both jobs complete")
    };
    assert!(!a.cache_hit && a.proven_optimal);
    assert!(b.cache_hit && b.proven_optimal && !b.degraded);
    assert!(b.solver_stats.is_none(), "the twin runs no solver");
    assert_eq!(b.result.depth, a.result.depth);
    assert_eq!(verify(&twin, &grid(3, 3), &b.result), Ok(()));
    for blocker in &blockers {
        assert!(blocker.wait().is_terminal());
    }
    let m = service.metrics();
    assert_eq!(
        (m.cache.misses, m.cache.hits),
        (3, 1),
        "the blockers and the original solve; the twin does not"
    );
    assert_eq!((m.queued, m.running), (0, 0));

    // The twin's span names the leader it followed.
    let snap = recorder.snapshot();
    let field = |span: &olsq2_obs::SpanData, key: &str| {
        span.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.to_string())
    };
    let twin_span = snap
        .spans
        .iter()
        .find(|s| s.name == "job" && field(s, "name").as_deref() == Some("twin"))
        .expect("the twin has a job span");
    assert_eq!(field(twin_span, "leader"), Some(first.id().to_string()));
    service.shutdown();
}
