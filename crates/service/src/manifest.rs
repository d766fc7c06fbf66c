//! JSONL manifests: the batch wire format of `olsq2 serve-batch`.
//!
//! Each input line is one JSON object describing a job:
//!
//! ```json
//! {"name": "adder-0", "tenant": "team-a", "device": "grid3x3",
//!  "objective": "depth", "swap_duration": 1, "deadline_ms": 2000,
//!  "priority": "high",
//!  "circuit": {"num_qubits": 3, "gates": [["cx",0,1], ["h",2], ["rz",0,[0.5]]]}}
//! ```
//!
//! A gate is `[name, qubit]` or `[name, qubit, qubit]`, optionally
//! followed by a parameter array (e.g. `["rz", 0, [0.5]]`). The optional
//! `tenant` (default `"default"`) feeds per-tenant accounting
//! ([`crate::ServiceMetrics::tenants`] and the `tenant="..."` Prometheus
//! labels) and is echoed on the job's result line. Each output line
//! mirrors one job, in submission order, followed by a final
//! `{"metrics": ...}` summary line.

use crate::json::{self, object, Json};
use crate::request::{JobStatus, Objective, Priority, SynthesisRequest};
use crate::service::{ServiceConfig, SubmitError, SynthesisService};
use crate::ServiceMetrics;
use olsq2::{EncodingConfig, SynthesisConfig};
use olsq2_arch::device_by_name;
use olsq2_circuit::{Circuit, Gate, GateKind, Operands};
use std::time::Duration;

/// A manifest parse failure, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based line number in the manifest.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "manifest line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ManifestError {}

fn gate_from_parts(name: &str, qubits: &[u16], params: &[f64]) -> Result<Gate, String> {
    let want = |n: usize| -> Result<(), String> {
        if params.len() == n {
            Ok(())
        } else {
            Err(format!(
                "gate {name:?} expects {n} parameter(s), got {}",
                params.len()
            ))
        }
    };
    let kind = match name {
        "id" => GateKind::Id,
        "h" => GateKind::H,
        "x" => GateKind::X,
        "y" => GateKind::Y,
        "z" => GateKind::Z,
        "s" => GateKind::S,
        "sdg" => GateKind::Sdg,
        "t" => GateKind::T,
        "tdg" => GateKind::Tdg,
        "rx" => {
            want(1)?;
            GateKind::Rx(params[0])
        }
        "ry" => {
            want(1)?;
            GateKind::Ry(params[0])
        }
        "rz" => {
            want(1)?;
            GateKind::Rz(params[0])
        }
        "u3" => {
            want(3)?;
            GateKind::U(params[0], params[1], params[2])
        }
        "cx" => GateKind::Cx,
        "cz" => GateKind::Cz,
        "cp" => {
            want(1)?;
            GateKind::Cp(params[0])
        }
        "rzz" => {
            want(1)?;
            GateKind::Zz(params[0])
        }
        "swap" => GateKind::Swap,
        other => GateKind::Other {
            name: other.into(),
            params: params.to_vec(),
        },
    };
    let operands = match qubits {
        [q] => Operands::One(*q),
        [a, b] if a != b => Operands::Two(*a, *b),
        [a, b] => return Err(format!("gate {name:?} repeats qubit {a} (got {a},{b})")),
        _ => {
            return Err(format!(
                "gate {name:?} needs 1 or 2 qubits, got {}",
                qubits.len()
            ))
        }
    };
    Ok(Gate::new(kind, operands))
}

fn parse_circuit(value: &Json) -> Result<Circuit, String> {
    let num_qubits = value
        .get("num_qubits")
        .and_then(Json::as_u64)
        .ok_or("circuit.num_qubits must be a non-negative integer")? as usize;
    if num_qubits == 0 || num_qubits > u16::MAX as usize {
        return Err(format!("circuit.num_qubits {num_qubits} out of range"));
    }
    let gates = value
        .get("gates")
        .and_then(Json::as_array)
        .ok_or("circuit.gates must be an array")?;
    let mut circuit = Circuit::new(num_qubits);
    for (i, gate) in gates.iter().enumerate() {
        let parts = gate
            .as_array()
            .ok_or_else(|| format!("gate #{i} must be an array"))?;
        let name = parts
            .first()
            .and_then(Json::as_str)
            .ok_or_else(|| format!("gate #{i} must start with a name string"))?;
        let mut qubits: Vec<u16> = Vec::new();
        let mut params: Vec<f64> = Vec::new();
        for part in &parts[1..] {
            match part {
                Json::Number(_) => {
                    let q = part
                        .as_u64()
                        .filter(|&q| (q as usize) < num_qubits)
                        .ok_or_else(|| format!("gate #{i}: qubit out of range"))?;
                    qubits.push(q as u16);
                }
                Json::Array(items) => {
                    for p in items {
                        params.push(
                            p.as_f64()
                                .ok_or_else(|| format!("gate #{i}: non-numeric parameter"))?,
                        );
                    }
                }
                _ => return Err(format!("gate #{i}: unexpected element")),
            }
        }
        circuit
            .push(gate_from_parts(name, &qubits, &params).map_err(|e| format!("gate #{i}: {e}"))?);
    }
    Ok(circuit)
}

fn parse_encoding(name: &str) -> Option<EncodingConfig> {
    match name {
        "int" => Some(EncodingConfig::int()),
        "bv" => Some(EncodingConfig::bv()),
        "euf" | "euf-int" => Some(EncodingConfig::euf_int()),
        "euf-bv" => Some(EncodingConfig::euf_bv()),
        _ => None,
    }
}

/// Parses one manifest line into a request.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn parse_request(line: &str) -> Result<SynthesisRequest, String> {
    let value = json::parse(line).map_err(|e| e.to_string())?;
    let name = value
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("unnamed")
        .to_string();
    let tenant = value
        .get("tenant")
        .and_then(Json::as_str)
        .unwrap_or("default")
        .to_string();
    let device_name = value
        .get("device")
        .and_then(Json::as_str)
        .ok_or("missing \"device\"")?;
    let device =
        device_by_name(device_name).ok_or_else(|| format!("unknown device {device_name:?}"))?;
    let circuit = parse_circuit(value.get("circuit").ok_or("missing \"circuit\"")?)?;
    if circuit.num_qubits() > device.num_qubits() {
        return Err(format!(
            "circuit has {} qubits but device {device_name} only {}",
            circuit.num_qubits(),
            device.num_qubits()
        ));
    }
    let objective = match value.get("objective").and_then(Json::as_str) {
        None => Objective::Depth,
        Some(s) => Objective::parse(s).ok_or_else(|| format!("unknown objective {s:?}"))?,
    };
    let priority = match value.get("priority").and_then(Json::as_str) {
        None => Priority::Normal,
        Some(s) => Priority::parse(s).ok_or_else(|| format!("unknown priority {s:?}"))?,
    };
    let mut config = SynthesisConfig::default();
    if let Some(sd) = value.get("swap_duration") {
        config.swap_duration = sd
            .as_u64()
            .filter(|&n| (1..=64).contains(&n))
            .ok_or("swap_duration must be in 1..=64")? as usize;
    }
    if let Some(enc) = value.get("encoding").and_then(Json::as_str) {
        config.encoding = parse_encoding(enc).ok_or_else(|| format!("unknown encoding {enc:?}"))?;
    }
    if let Some(b) = value.get("budget_ms") {
        config.time_budget = Some(Duration::from_millis(
            b.as_u64().ok_or("budget_ms must be an integer")?,
        ));
    }
    if let Some(lim) = value.get("pareto_relax_limit") {
        config.pareto_relax_limit = Some(
            lim.as_u64()
                .ok_or("pareto_relax_limit must be an integer")? as usize,
        );
    }
    if let Some(c) = value.get("commutation_aware") {
        config.commutation_aware = c.as_bool().ok_or("commutation_aware must be a bool")?;
    }
    let deadline = match value.get("deadline_ms") {
        None => None,
        Some(d) => Some(Duration::from_millis(
            d.as_u64().ok_or("deadline_ms must be an integer")?,
        )),
    };
    Ok(SynthesisRequest {
        name,
        tenant,
        circuit,
        device,
        config,
        objective,
        deadline,
        priority,
    })
}

/// Parses a whole JSONL manifest (blank lines and `#` comments skipped).
///
/// # Errors
///
/// The first offending line, with its line number.
pub fn parse_manifest(text: &str) -> Result<Vec<SynthesisRequest>, ManifestError> {
    let mut requests = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        requests.push(parse_request(trimmed).map_err(|message| ManifestError {
            line: i + 1,
            message,
        })?);
    }
    Ok(requests)
}

/// Renders one job's terminal status as a result line. The `tenant` the
/// job was accounted to is echoed on every line.
pub fn status_to_json(name: &str, tenant: &str, status: &JobStatus) -> Json {
    match status {
        JobStatus::Done(out) => {
            let swap_ops: Vec<Json> = out
                .result
                .swaps
                .iter()
                .map(|s| Json::Array(vec![s.edge.into(), s.finish_time.into()]))
                .collect();
            object([
                ("name", name.into()),
                ("tenant", tenant.into()),
                ("status", "done".into()),
                ("optimal", out.proven_optimal.into()),
                ("degraded", out.degraded.into()),
                ("cache_hit", out.cache_hit.into()),
                ("wait_ms", (out.wait.as_millis() as u64).into()),
                ("service_ms", (out.service_time.as_millis() as u64).into()),
                ("depth", out.result.depth.into()),
                ("swaps", out.result.swap_count().into()),
                ("swap_duration", out.result.swap_duration.into()),
                (
                    "initial_mapping",
                    Json::Array(
                        out.result
                            .initial_mapping
                            .iter()
                            .map(|&p| (p as u64).into())
                            .collect(),
                    ),
                ),
                (
                    "schedule",
                    Json::Array(out.result.schedule.iter().map(|&t| t.into()).collect()),
                ),
                ("swap_ops", Json::Array(swap_ops)),
            ])
        }
        JobStatus::Failed(e) => object([
            ("name", name.into()),
            ("tenant", tenant.into()),
            ("status", "failed".into()),
            ("error", e.to_string().into()),
        ]),
        JobStatus::Cancelled => object([
            ("name", name.into()),
            ("tenant", tenant.into()),
            ("status", "cancelled".into()),
        ]),
        JobStatus::Queued | JobStatus::Running => object([
            ("name", name.into()),
            ("tenant", tenant.into()),
            ("status", "pending".into()),
        ]),
    }
}

/// Renders a metrics snapshot as the trailing summary line.
pub fn metrics_to_json(m: &ServiceMetrics) -> Json {
    object([(
        "metrics",
        object([
            (
                "jobs",
                object([
                    ("submitted", m.submitted.into()),
                    ("done", m.done.into()),
                    ("degraded", m.degraded.into()),
                    ("failed", m.failed.into()),
                    ("cancelled", m.cancelled.into()),
                ]),
            ),
            (
                "cache",
                object([
                    ("hits", m.cache.hits.into()),
                    ("misses", m.cache.misses.into()),
                    ("evictions", m.cache.evictions.into()),
                ]),
            ),
            (
                "latency_ms",
                object([
                    ("p50", (m.p50_latency.as_millis() as u64).into()),
                    ("p95", (m.p95_latency.as_millis() as u64).into()),
                    ("p99", (m.p99_latency.as_millis() as u64).into()),
                ]),
            ),
            (
                "solver",
                object([
                    ("conflicts", m.solver.conflicts.into()),
                    ("decisions", m.solver.decisions.into()),
                    ("propagations", m.solver.propagations.into()),
                    ("restarts", m.solver.restarts.into()),
                    ("learnts", m.solver.learnts.into()),
                    ("reduces", m.solver.reduces.into()),
                    ("minimized_lits", m.solver.minimized_lits.into()),
                    ("window_extensions", m.window_extensions.into()),
                ]),
            ),
            (
                "tenants",
                Json::Object(
                    m.tenants
                        .iter()
                        .map(|(tenant, t)| {
                            (
                                tenant.clone(),
                                object([
                                    ("submitted", t.submitted.into()),
                                    ("done", t.done.into()),
                                    ("failed", t.failed.into()),
                                    ("cancelled", t.cancelled.into()),
                                    ("p50_ms", (t.p50_latency.as_millis() as u64).into()),
                                    ("p95_ms", (t.p95_latency.as_millis() as u64).into()),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]),
    )])
}

/// One finished batch job: its manifest name, tenant, and terminal status.
pub type BatchStatus = (String, String, JobStatus);

/// Drives a batch through a fresh service: submits every request (with
/// backpressure against the bounded queue), awaits them all, and returns
/// the per-job `(name, tenant, status)` triples in manifest order plus
/// the final metrics snapshot.
pub fn run_batch(
    requests: Vec<SynthesisRequest>,
    config: ServiceConfig,
) -> (Vec<BatchStatus>, ServiceMetrics) {
    let mut service = SynthesisService::start(config);
    let out = run_batch_on(&service, requests);
    service.shutdown();
    out
}

/// [`run_batch`] over a caller-owned service, which stays running
/// afterwards — the shape needed when an [`crate::IntrospectionServer`]
/// or a periodic Prometheus flusher holds a handle to the same service
/// while the batch drains.
pub fn run_batch_on(
    service: &SynthesisService,
    requests: Vec<SynthesisRequest>,
) -> (Vec<BatchStatus>, ServiceMetrics) {
    let mut handles = Vec::with_capacity(requests.len());
    let mut waited = 0usize; // prefix of `handles` already awaited for backpressure
    for request in requests {
        let name = request.name.clone();
        let tenant = request.tenant.clone();
        loop {
            match service.submit(request.clone()) {
                Ok(handle) => {
                    handles.push((name, tenant, handle));
                    break;
                }
                Err(SubmitError::QueueFull) => {
                    // Backpressure: wait for the oldest outstanding job to
                    // finish, freeing a queue slot, then retry.
                    if waited < handles.len() {
                        let _ = handles[waited].2.wait();
                        waited += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                Err(SubmitError::ShuttingDown) => {
                    unreachable!("service not shut down during batch")
                }
            }
        }
    }
    let statuses: Vec<BatchStatus> = handles
        .iter()
        .map(|(name, tenant, handle)| (name.clone(), tenant.clone(), handle.wait()))
        .collect();
    let metrics = service.metrics();
    (statuses, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_incremental_key_is_ignored() {
        // Window growth has one path, so the key that once forced
        // rebuilds is ignored like any unknown key, whatever its value.
        let manifest = r#"{"name":"i","device":"line4","objective":"depth","swap_duration":1,"incremental":false,"circuit":{"num_qubits":3,"gates":[["cx",0,1],["cx",1,2],["cx",0,2]]}}"#;
        let requests = parse_manifest(manifest).expect("parses");
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let (statuses, _) = run_batch(requests, config);
        let JobStatus::Done(out) = &statuses[0].2 else {
            panic!("job did not finish: {:?}", statuses[0].2);
        };
        assert!(out.proven_optimal);
    }
}
