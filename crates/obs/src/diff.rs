//! A/B trace attribution: align two JSONL traces by their iteration
//! schedule and attribute the end-to-end delta per iteration.
//!
//! The iterative-deepening optimizers emit one `iteration` span per
//! (T, swap-bound) solve, carrying `encode_us` / `solve_us` / `result`
//! and the per-iteration solver deltas (`conflicts`, `decisions`,
//! `propagations`, `restarts`). Given two traces of the *same instance*
//! under different configurations, [`diff`] aligns iterations by
//! (objective, t_bound, swap_bound, sub_device) in schedule order and
//! classifies each pairwise delta:
//!
//! * **encode** — the time moved in the encoding step;
//! * **solve-throughput** — solve time moved while the search did the
//!   same work (conflict counts within ratio bounds): the per-conflict
//!   cost changed;
//! * **search-divergence** — solve time moved *because* the search did
//!   different work (conflict count ratio outside bounds): the
//!   heuristics explored a different space;
//! * **par** — the iteration is within noise;
//! * **schedule divergence** — an iteration exists on one side only
//!   (the optimizers took different bound trajectories).
//!
//! Flight-recorder lines embedded in (or dumped next to) either trace
//! are ingested too ([`crate::FlightDump`]) and summarized as the
//! post-mortem search state. Everything is reconstructed purely from
//! the JSONL artifacts — no live process needed.

use crate::flight::FlightDump;
use crate::jsonin::JsonValue;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One `iteration` span reconstructed from a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationRow {
    /// Objective the optimizer was descending (`depth`, `swaps`, …).
    pub objective: String,
    /// Depth / time-step bound, when present.
    pub t_bound: Option<u64>,
    /// SWAP-count bound, when present.
    pub swap_bound: Option<i64>,
    /// Qubit count of the sub-device the probe ran on; `None` for a probe
    /// on the whole device.
    pub sub_device: Option<u64>,
    /// Wall-clock duration of the whole iteration.
    pub total_us: u64,
    /// Time spent (re)encoding the model.
    pub encode_us: u64,
    /// Time spent inside the SAT solver.
    pub solve_us: u64,
    /// The solver's verdict (`sat` / `unsat` / `unknown`).
    pub result: String,
    /// Conflicts spent in this iteration.
    pub conflicts: u64,
    /// Decisions spent in this iteration.
    pub decisions: u64,
    /// Propagations spent in this iteration.
    pub propagations: u64,
    /// Restarts spent in this iteration.
    pub restarts: u64,
}

impl IterationRow {
    /// Human key: the aligned coordinates of this iteration.
    pub fn key(&self) -> String {
        let mut k = self.objective.clone();
        if let Some(t) = self.t_bound {
            let _ = write!(k, " T={t}");
        }
        if let Some(s) = self.swap_bound {
            let _ = write!(k, " swaps≤{s}");
        }
        if let Some(n) = self.sub_device {
            let _ = write!(k, " sub={n}");
        }
        k
    }

    /// The alignment coordinates. The device is one of them: a probe on a
    /// sub-device answers a different question than the same bound on the
    /// whole device.
    fn align_key(&self) -> (String, Option<u64>, Option<i64>, Option<u64>) {
        (
            self.objective.clone(),
            self.t_bound,
            self.swap_bound,
            self.sub_device,
        )
    }

    /// Decisions per conflict — the cheap search-shape fingerprint.
    pub fn decisions_per_conflict(&self) -> f64 {
        if self.conflicts == 0 {
            0.0
        } else {
            self.decisions as f64 / self.conflicts as f64
        }
    }
}

/// One side of the comparison, parsed from a JSONL artifact.
#[derive(Debug, Clone, Default)]
pub struct TraceSide {
    /// The iteration schedule, in span order.
    pub iterations: Vec<IterationRow>,
    /// Flight samples found in the artifact (may be empty).
    pub flight: FlightDump,
}

/// Parses one trace/flight JSONL artifact into a [`TraceSide`].
///
/// Lines that are neither `iteration` spans nor flight records are
/// ignored, so full traces, bare flight dumps, and concatenations of
/// the two all work.
///
/// # Errors
///
/// Malformed JSON on a relevant line, or an unsupported format version.
pub fn parse_side(text: &str) -> Result<TraceSide, String> {
    let mut iterations = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        // Cheap pre-filter: only meta lines and iteration spans matter.
        let relevant = (line.contains("\"span\"") && line.contains("\"iteration\""))
            || line.starts_with("{\"type\":\"meta\"");
        if line.is_empty() || !relevant {
            continue;
        }
        let v = JsonValue::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match v.get("type").and_then(JsonValue::as_str) {
            Some("meta") => {
                let version = v.get("version").and_then(JsonValue::as_u64).unwrap_or(0);
                if version != 1 {
                    return Err(format!("unsupported trace version {version} (expected 1)"));
                }
            }
            Some("span") if v.get("name").and_then(JsonValue::as_str) == Some("iteration") => {
                let fields = v.get("fields").cloned().unwrap_or(JsonValue::Null);
                let u = |k: &str| fields.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
                iterations.push(IterationRow {
                    objective: fields
                        .get("objective")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    t_bound: fields.get("t_bound").and_then(JsonValue::as_u64),
                    swap_bound: fields.get("swap_bound").and_then(JsonValue::as_i64),
                    sub_device: fields.get("sub_device").and_then(JsonValue::as_u64),
                    total_us: v.get("dur_us").and_then(JsonValue::as_u64).unwrap_or(0),
                    encode_us: u("encode_us"),
                    solve_us: u("solve_us"),
                    result: fields
                        .get("result")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    conflicts: u("conflicts"),
                    decisions: u("decisions"),
                    propagations: u("propagations"),
                    restarts: u("restarts"),
                });
            }
            _ => {}
        }
    }
    let flight = FlightDump::parse_jsonl(text)?;
    Ok(TraceSide { iterations, flight })
}

/// Why a per-iteration delta happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within noise.
    Par,
    /// The encode step moved.
    Encode,
    /// Solve time moved with comparable search work (cost per conflict).
    SolveThroughput,
    /// Solve time moved because the search explored a different space.
    SearchDivergence,
    /// The solver verdicts disagree (deadline on one side, usually).
    VerdictFlip,
    /// Iteration exists only in trace A.
    OnlyA,
    /// Iteration exists only in trace B.
    OnlyB,
}

impl Verdict {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Par => "par",
            Verdict::Encode => "encode",
            Verdict::SolveThroughput => "solve-throughput",
            Verdict::SearchDivergence => "search-divergence",
            Verdict::VerdictFlip => "verdict-flip",
            Verdict::OnlyA => "only-in-A",
            Verdict::OnlyB => "only-in-B",
        }
    }
}

/// One row of the attribution table.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Aligned iteration coordinates.
    pub key: String,
    /// Side A's iteration, when present.
    pub a: Option<IterationRow>,
    /// Side B's iteration, when present.
    pub b: Option<IterationRow>,
    /// `b.total_us - a.total_us` (0 for unmatched rows).
    pub delta_total_us: i64,
    /// `b.encode_us - a.encode_us`.
    pub delta_encode_us: i64,
    /// `b.solve_us - a.solve_us`.
    pub delta_solve_us: i64,
    /// The classification.
    pub verdict: Verdict,
}

/// The whole A/B comparison.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Display label for side A.
    pub label_a: String,
    /// Display label for side B.
    pub label_b: String,
    /// Per-iteration rows: A's schedule order, then B-only rows.
    pub rows: Vec<DiffRow>,
    /// Side A as parsed (flight summary included).
    pub side_a: TraceSide,
    /// Side B as parsed.
    pub side_b: TraceSide,
}

/// Iterations slower/faster than this fraction of the larger total are
/// attributable; below it they are noise.
const NOISE_FRACTION: f64 = 0.05;
/// …and never attribute deltas under this many microseconds.
const NOISE_FLOOR_US: i64 = 500;
/// Conflict-count ratios outside [1/this, this] mean the searches
/// genuinely diverged rather than one being slower per conflict.
const DIVERGENCE_RATIO: f64 = 1.25;

fn classify(a: &IterationRow, b: &IterationRow) -> (i64, i64, i64, Verdict) {
    let dt = b.total_us as i64 - a.total_us as i64;
    let de = b.encode_us as i64 - a.encode_us as i64;
    let ds = b.solve_us as i64 - a.solve_us as i64;
    if a.result != b.result {
        return (dt, de, ds, Verdict::VerdictFlip);
    }
    let noise = NOISE_FLOOR_US.max((NOISE_FRACTION * a.total_us.max(b.total_us) as f64) as i64);
    if dt.abs() <= noise {
        return (dt, de, ds, Verdict::Par);
    }
    if de.abs() >= ds.abs() {
        return (dt, de, ds, Verdict::Encode);
    }
    // Solve-dominated: did the search do different work, or the same
    // work at a different speed?
    let (ca, cb) = (a.conflicts.max(1) as f64, b.conflicts.max(1) as f64);
    let ratio = cb / ca;
    if !(1.0 / DIVERGENCE_RATIO..=DIVERGENCE_RATIO).contains(&ratio) {
        (dt, de, ds, Verdict::SearchDivergence)
    } else {
        (dt, de, ds, Verdict::SolveThroughput)
    }
}

/// Aligns and classifies two parsed sides.
pub fn diff_sides(
    side_a: TraceSide,
    side_b: TraceSide,
    label_a: &str,
    label_b: &str,
) -> DiffReport {
    // Match by (objective, t_bound, swap_bound, sub_device) with
    // occurrence index, so revisited bounds pair up in schedule order.
    let mut b_index: HashMap<_, std::collections::VecDeque<usize>> = HashMap::new();
    for (i, row) in side_b.iterations.iter().enumerate() {
        b_index.entry(row.align_key()).or_default().push_back(i);
    }
    let mut b_used = vec![false; side_b.iterations.len()];
    let mut rows = Vec::new();
    for a in &side_a.iterations {
        let b = b_index
            .get_mut(&a.align_key())
            .and_then(|q| q.pop_front())
            .map(|i| {
                b_used[i] = true;
                side_b.iterations[i].clone()
            });
        let row = match &b {
            Some(b_row) => {
                let (dt, de, ds, verdict) = classify(a, b_row);
                DiffRow {
                    key: a.key(),
                    a: Some(a.clone()),
                    b: b.clone(),
                    delta_total_us: dt,
                    delta_encode_us: de,
                    delta_solve_us: ds,
                    verdict,
                }
            }
            None => DiffRow {
                key: a.key(),
                a: Some(a.clone()),
                b: None,
                delta_total_us: 0,
                delta_encode_us: 0,
                delta_solve_us: 0,
                verdict: Verdict::OnlyA,
            },
        };
        rows.push(row);
    }
    for (i, b) in side_b.iterations.iter().enumerate() {
        if !b_used[i] {
            rows.push(DiffRow {
                key: b.key(),
                a: None,
                b: Some(b.clone()),
                delta_total_us: 0,
                delta_encode_us: 0,
                delta_solve_us: 0,
                verdict: Verdict::OnlyB,
            });
        }
    }
    DiffReport {
        label_a: label_a.to_string(),
        label_b: label_b.to_string(),
        rows,
        side_a,
        side_b,
    }
}

/// Parses two JSONL artifacts and produces the attribution report.
///
/// # Errors
///
/// Propagates parse failures from either side.
pub fn diff(
    a_text: &str,
    b_text: &str,
    label_a: &str,
    label_b: &str,
) -> Result<DiffReport, String> {
    let side_a = parse_side(a_text).map_err(|e| format!("{label_a}: {e}"))?;
    let side_b = parse_side(b_text).map_err(|e| format!("{label_b}: {e}"))?;
    Ok(diff_sides(side_a, side_b, label_a, label_b))
}

impl DiffReport {
    /// Matched iteration count.
    pub fn matched(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.a.is_some() && r.b.is_some())
            .count()
    }

    /// Sum of a per-side field over matched rows.
    fn totals(&self, f: impl Fn(&IterationRow) -> u64) -> (u64, u64) {
        let mut ta = 0;
        let mut tb = 0;
        for r in &self.rows {
            if let (Some(a), Some(b)) = (&r.a, &r.b) {
                ta += f(a);
                tb += f(b);
            }
        }
        (ta, tb)
    }

    /// Renders the per-iteration verdict table plus summary and flight
    /// post-mortems as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace diff: A = {}, B = {}",
            self.label_a, self.label_b
        );
        let _ = writeln!(
            out,
            "iterations: {} matched, {} only-A, {} only-B",
            self.matched(),
            self.rows
                .iter()
                .filter(|r| r.verdict == Verdict::OnlyA)
                .count(),
            self.rows
                .iter()
                .filter(|r| r.verdict == Verdict::OnlyB)
                .count(),
        );
        out.push('\n');
        let _ = writeln!(
            out,
            "{:<24} {:>5} {:>5} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>6} {:>6}  verdict",
            "iteration",
            "res A",
            "res B",
            "tot A us",
            "tot B us",
            "Δtot",
            "Δenc",
            "Δsolve",
            "confl A",
            "confl B",
            "d/c A",
            "d/c B",
        );
        for r in &self.rows {
            let res =
                |s: &Option<IterationRow>| s.as_ref().map_or("-".to_string(), |x| x.result.clone());
            let tot = |s: &Option<IterationRow>| {
                s.as_ref()
                    .map_or("-".to_string(), |x| x.total_us.to_string())
            };
            let con = |s: &Option<IterationRow>| {
                s.as_ref()
                    .map_or("-".to_string(), |x| x.conflicts.to_string())
            };
            let dpc = |s: &Option<IterationRow>| {
                s.as_ref().map_or("-".to_string(), |x| {
                    format!("{:.1}", x.decisions_per_conflict())
                })
            };
            let matched = r.a.is_some() && r.b.is_some();
            let delta = |v: i64| {
                if matched {
                    format!("{v:+}")
                } else {
                    "-".to_string()
                }
            };
            let _ = writeln!(
                out,
                "{:<24} {:>5} {:>5} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>6} {:>6}  {}",
                r.key,
                res(&r.a),
                res(&r.b),
                tot(&r.a),
                tot(&r.b),
                delta(r.delta_total_us),
                delta(r.delta_encode_us),
                delta(r.delta_solve_us),
                con(&r.a),
                con(&r.b),
                dpc(&r.a),
                dpc(&r.b),
                r.verdict.name(),
            );
        }
        out.push('\n');
        let (ea, eb) = self.totals(|r| r.encode_us);
        let (sa, sb) = self.totals(|r| r.solve_us);
        let (ta, tb) = self.totals(|r| r.total_us);
        let (cfa, cfb) = self.totals(|r| r.conflicts);
        let (ra, rb) = self.totals(|r| r.restarts);
        let ratio = |a: u64, b: u64| {
            if a == 0 {
                "n/a".to_string()
            } else {
                format!("{:.2}x", b as f64 / a as f64)
            }
        };
        let _ = writeln!(
            out,
            "matched totals   A: encode {ea} us, solve {sa} us, total {ta} us, \
             conflicts {cfa}, restarts {ra}"
        );
        let _ = writeln!(
            out,
            "                 B: encode {eb} us, solve {sb} us, total {tb} us, \
             conflicts {cfb}, restarts {rb}"
        );
        let _ = writeln!(
            out,
            "B/A ratios       encode {}, solve {}, total {}, conflicts {}",
            ratio(ea, eb),
            ratio(sa, sb),
            ratio(ta, tb),
            ratio(cfa, cfb),
        );
        // Attribution of the matched end-to-end delta.
        let dt = tb as i64 - ta as i64;
        let de = eb as i64 - ea as i64;
        let ds = sb as i64 - sa as i64;
        let _ = writeln!(
            out,
            "attribution      Δtotal {dt:+} us = Δencode {de:+} us + Δsolve {ds:+} us \
             + Δother {:+} us",
            dt - de - ds
        );
        for (label, side) in [(&self.label_a, &self.side_a), (&self.label_b, &self.side_b)] {
            if let Some(s) = side.flight.last_search() {
                let _ = writeln!(
                    out,
                    "flight {label}: {} samples kept of {} (every {} conflicts); \
                     last: {} conflicts, {} restarts, trail {}, level {}, \
                     LBD ema fast {:.2} / slow {:.2}",
                    side.flight.samples.len(),
                    side.flight.emitted,
                    side.flight.every,
                    s.conflicts,
                    s.restarts,
                    s.trail_len,
                    s.decision_level,
                    s.lbd_ema_fast,
                    s.lbd_ema_slow,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter_line(t: u64, swap: i64, dur: u64, enc: u64, solve: u64, confl: u64) -> String {
        format!(
            "{{\"type\":\"span\",\"id\":{t},\"name\":\"iteration\",\"start_us\":0,\
             \"dur_us\":{dur},\"fields\":{{\"objective\":\"depth\",\"t_bound\":{t},\
             \"swap_bound\":{swap},\"encode_us\":{enc},\"solve_us\":{solve},\
             \"result\":\"unsat\",\"conflicts\":{confl},\"decisions\":{},\
             \"propagations\":100,\"restarts\":2}}}}\n",
            confl * 4
        )
    }

    fn trace(rows: &[String]) -> String {
        let mut s = String::from("{\"type\":\"meta\",\"version\":1}\n");
        for r in rows {
            s.push_str(r);
        }
        s
    }

    #[test]
    fn aligns_by_bounds_and_attributes_deltas() {
        let a = trace(&[
            iter_line(5, 0, 10_000, 2_000, 8_000, 100),
            iter_line(6, 0, 20_000, 2_000, 18_000, 200),
            iter_line(7, 0, 9_000, 2_000, 7_000, 90),
        ]);
        let b = trace(&[
            // Same search, slower solve: throughput.
            iter_line(5, 0, 16_000, 2_000, 14_000, 105),
            // Conflict blow-up: divergence.
            iter_line(6, 0, 40_000, 2_000, 38_000, 900),
            // Different schedule on B's side.
            iter_line(8, 0, 5_000, 1_000, 4_000, 10),
        ]);
        let report = diff(&a, &b, "modern", "legacy").expect("diffs");
        assert_eq!(report.matched(), 2);
        let verdicts: Vec<Verdict> = report.rows.iter().map(|r| r.verdict).collect();
        assert_eq!(
            verdicts,
            vec![
                Verdict::SolveThroughput,
                Verdict::SearchDivergence,
                Verdict::OnlyA,
                Verdict::OnlyB,
            ]
        );
        let text = report.render();
        assert!(text.contains("2 matched, 1 only-A, 1 only-B"));
        assert!(text.contains("search-divergence"));
        assert!(text.contains("attribution"));
    }

    #[test]
    fn encode_and_par_and_flip_verdicts() {
        let a = trace(&[
            iter_line(5, 0, 10_000, 2_000, 8_000, 100),
            iter_line(6, 0, 10_000, 2_000, 8_000, 100),
        ]);
        let mut b_rows = vec![
            // Encode regression dominates.
            iter_line(5, 0, 18_000, 10_000, 8_000, 100),
            // Within noise.
            iter_line(6, 0, 10_200, 2_100, 8_100, 100),
        ];
        // A verdict flip: same key, different result string.
        b_rows.push(iter_line(7, 0, 1_000, 500, 500, 5));
        let a2 = format!(
            "{a}{}",
            iter_line(7, 0, 1_000, 500, 500, 5).replace("unsat", "sat")
        );
        let report = diff(&a2, &trace(&b_rows), "A", "B").expect("diffs");
        let verdicts: Vec<Verdict> = report.rows.iter().map(|r| r.verdict).collect();
        assert_eq!(
            verdicts,
            vec![Verdict::Encode, Verdict::Par, Verdict::VerdictFlip]
        );
    }

    #[test]
    fn ingests_flight_dump_alongside_trace() {
        let p = crate::Probe::new(8, 64);
        p.record(crate::SearchSample {
            conflicts: 640,
            restarts: 3,
            trail_len: 50,
            decision_level: 7,
            lbd_ema_fast: 6.5,
            lbd_ema_slow: 5.0,
            ..Default::default()
        });
        let a = format!(
            "{}{}",
            trace(&[iter_line(5, 0, 10_000, 2_000, 8_000, 100)]),
            p.to_jsonl()
        );
        let b = trace(&[iter_line(5, 0, 10_000, 2_000, 8_000, 100)]);
        let report = diff(&a, &b, "died", "ok").expect("diffs");
        assert_eq!(report.side_a.flight.samples.len(), 1);
        let text = report.render();
        assert!(text.contains("flight died: 1 samples kept"));
        assert!(text.contains("640 conflicts"));
    }

    /// A probe on a sub-device never pairs with the same bound on the
    /// whole device: the parent's full-device `depth T=21` and the
    /// change's sub-device `depth T=21` are one row each, and only the
    /// full-device probes at the same bound match.
    #[test]
    fn sub_device_probes_align_apart_from_full_device_probes() {
        let sub = |line: String| line.replace("\"result\"", "\"sub_device\":8,\"result\"");
        let a = trace(&[
            iter_line(21, 0, 90_000, 60_000, 30_000, 1_385),
            iter_line(22, 0, 9_000, 1_000, 8_000, 90),
        ]);
        let b = trace(&[
            sub(iter_line(21, 0, 3_000, 2_000, 1_000, 56)),
            iter_line(21, 0, 90_000, 60_000, 30_000, 1_385),
            iter_line(22, 0, 9_000, 1_000, 8_000, 90),
        ]);
        let side_b = parse_side(&b).expect("parses");
        assert_eq!(side_b.iterations[0].sub_device, Some(8));
        assert_eq!(side_b.iterations[1].sub_device, None);
        let report = diff(&a, &b, "parent", "change").expect("diffs");
        assert_eq!(report.matched(), 2);
        let rows: Vec<(&str, Verdict)> = report
            .rows
            .iter()
            .map(|r| (r.key.as_str(), r.verdict))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("depth T=21 swaps≤0", Verdict::Par),
                ("depth T=22 swaps≤0", Verdict::Par),
                ("depth T=21 swaps≤0 sub=8", Verdict::OnlyB),
            ]
        );
    }

    #[test]
    fn rejects_bad_versions() {
        assert!(parse_side("{\"type\":\"meta\",\"version\":2}\n").is_err());
    }
}
