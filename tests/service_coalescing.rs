//! Single-flight admission through the service's batch driver: a batch
//! holding an instance and a relabeled twin of it solves the instance
//! once.

use olsq2_arch::grid;
use olsq2_circuit::generators::qaoa_circuit;
use olsq2_circuit::Circuit;
use olsq2_layout::verify;
use olsq2_service::{json, manifest, JobStatus, Objective, ServiceConfig, SynthesisRequest};

fn request(name: &str, circuit: &Circuit) -> SynthesisRequest {
    let mut r = SynthesisRequest::new(name, circuit.clone(), grid(3, 3), Objective::Depth);
    r.config.swap_duration = 1;
    r
}

#[test]
fn batch_with_a_relabeled_twin_solves_once() {
    // The batch driver submits the twin right behind its original, which
    // takes about half a second in a debug build, so the twin is admitted
    // while the original is in flight and follows it. Had the original
    // finished first, the twin would hit the cache: either way the
    // instance is solved once. Before coalescing, the second worker
    // dequeued the twin while the original still ran and solved it again.
    let original = qaoa_circuit(8, 4);
    let twin = original.permute_qubits(&[6, 2, 7, 0, 5, 1, 3, 4]);
    let (statuses, metrics) = manifest::run_batch(
        vec![request("original", &original), request("twin", &twin)],
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let [(_, _, JobStatus::Done(a)), (_, tenant, JobStatus::Done(b))] = &statuses[..] else {
        panic!("both jobs complete: {statuses:?}")
    };
    assert!(!a.cache_hit && a.proven_optimal);
    assert!(b.cache_hit && b.proven_optimal && !b.degraded);
    assert!(b.solver_stats.is_none(), "the twin runs no solver");
    assert_eq!(b.result.depth, a.result.depth);
    assert_eq!(verify(&twin, &grid(3, 3), &b.result), Ok(()));
    assert_eq!((metrics.cache.misses, metrics.cache.hits), (1, 1));
    assert_eq!((metrics.done, metrics.queued, metrics.running), (2, 0, 0));
    let line = manifest::status_to_json("twin", tenant, &statuses[1].2).to_string();
    let parsed = json::parse(&line).expect("result line is JSON");
    assert_eq!(
        parsed.get("cache_hit").and_then(|v| v.as_bool()),
        Some(true)
    );
}
