//! Per-layer attribution of a traced run.
//!
//! The benchmark opens its own spans around each public call (`instance`,
//! `circuit.parse`, `circuit.dag`, `synth`, `layout.verify`, `layout.emit`;
//! the service opens `job`), and the drivers already emit `encode`,
//! `extend` and one `iteration` span per probe. A span's self time is its
//! duration minus the time its children cover; every span's self time is
//! charged to exactly one layer, so the layers of one root add up to the
//! root's duration less the root's own self time.

use olsq2_obs::{FieldValue, SpanData, TraceSnapshot};

/// Clause families of the encoder's `FamilyTally`, in report order.
pub const FAMILIES: [&str; 6] = [
    "mapping",
    "dependency",
    "swap",
    "scheduling",
    "transition",
    "cardinality",
];

/// Layer totals under one root span: one benchmark instance or one job.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// The root span's duration.
    pub wall_s: f64,
    /// The root span's own self time: glue between the measured calls
    /// (for a service job: canonicalization, cache lookup, bookkeeping).
    pub root_self_s: f64,
    pub parse_s: f64,
    pub dag_s: f64,
    pub build_s: f64,
    pub extend_s: f64,
    /// Bound activators and cardinality encoding (`iteration.encode_us`).
    pub bound_s: f64,
    pub solve_s: f64,
    pub unsat_s: f64,
    /// Everything else inside the synthesis call.
    pub driver_s: f64,
    pub verify_s: f64,
    pub emit_s: f64,
    pub builds: u64,
    pub probes: u64,
    pub probes_sat: u64,
    pub probes_unsat: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    /// Size of the largest model built.
    pub vars: u64,
    pub clauses: u64,
    /// Clauses per family of the largest model, in `FAMILIES` order.
    pub family_clauses: [u64; 6],
}

impl Layers {
    /// The share of the root's duration that a layer accounts for.
    pub fn coverage(&self) -> f64 {
        if self.wall_s > 0.0 {
            1.0 - self.root_self_s / self.wall_s
        } else {
            1.0
        }
    }

    /// Time in the encoder: model builds, window extensions, bounds.
    pub fn encode_s(&self) -> f64 {
        self.build_s + self.extend_s + self.bound_s
    }

    /// Multiplies every time by `factor`; counts stay as they are.
    pub fn scale(&mut self, factor: f64) {
        for t in [
            &mut self.wall_s,
            &mut self.root_self_s,
            &mut self.parse_s,
            &mut self.dag_s,
            &mut self.build_s,
            &mut self.extend_s,
            &mut self.bound_s,
            &mut self.solve_s,
            &mut self.unsat_s,
            &mut self.driver_s,
            &mut self.verify_s,
            &mut self.emit_s,
        ] {
            *t *= factor;
        }
    }
}

fn field<'a>(span: &'a SpanData, key: &str) -> Option<&'a FieldValue> {
    span.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn field_u64(span: &SpanData, key: &str) -> u64 {
    match field(span, key) {
        Some(FieldValue::U64(v)) => *v,
        _ => 0,
    }
}

fn micros(us: u64) -> f64 {
    us as f64 * 1e-6
}

/// Attributes every closed span of `snap` to a layer, grouped by the
/// top-level spans named `root`, in the order those roots were opened.
/// Top-level spans with another name are returned by name with their
/// durations, for the benchmark's own service-side spans.
pub fn attribute(snap: &TraceSnapshot, root: &str) -> (Vec<Layers>, Vec<(String, f64)>) {
    let n = snap.spans.len();
    let dur = |s: &SpanData| s.dur_us.map_or(0.0, micros);
    let mut children_s = vec![0.0; n];
    // Spans are recorded in opening order, so a parent precedes its
    // children and one forward pass resolves every span's top-level root.
    let mut top = vec![0usize; n];
    for (i, s) in snap.spans.iter().enumerate() {
        match s.parent {
            Some(p) => {
                let p = p as usize;
                children_s[p] += dur(s);
                top[i] = top[p];
            }
            None => top[i] = i,
        }
    }
    let mut groups: Vec<Layers> = Vec::new();
    let mut group_of = vec![usize::MAX; n];
    let mut others = Vec::new();
    for (i, s) in snap.spans.iter().enumerate() {
        if s.parent.is_none() {
            if s.name == root {
                group_of[i] = groups.len();
                groups.push(Layers {
                    wall_s: dur(s),
                    ..Layers::default()
                });
            } else {
                others.push((s.name.clone(), dur(s)));
            }
        }
    }
    for (i, s) in snap.spans.iter().enumerate() {
        let g = group_of[top[i]];
        if g == usize::MAX || s.dur_us.is_none() {
            continue;
        }
        let l = &mut groups[g];
        let self_s = dur(s) - children_s[i];
        match s.name.as_str() {
            _ if s.parent.is_none() => l.root_self_s += self_s,
            "circuit.parse" => l.parse_s += self_s,
            "circuit.dag" => l.dag_s += self_s,
            "layout.verify" => l.verify_s += self_s,
            "layout.emit" => l.emit_s += self_s,
            "encode" => {
                l.build_s += self_s;
                l.builds += 1;
                let clauses = field_u64(s, "clauses");
                if clauses > l.clauses {
                    l.clauses = clauses;
                    l.vars = field_u64(s, "vars");
                    for (slot, fam) in l.family_clauses.iter_mut().zip(FAMILIES) {
                        *slot = field_u64(s, &format!("clauses.{fam}"));
                    }
                }
            }
            "extend" => l.extend_s += self_s,
            "iteration" => {
                let bound = micros(field_u64(s, "encode_us"));
                let solve = micros(field_u64(s, "solve_us"));
                l.bound_s += bound;
                l.solve_s += solve;
                l.driver_s += self_s - bound - solve;
                l.probes += 1;
                match field(s, "result") {
                    Some(FieldValue::Str(r)) if r == "sat" => l.probes_sat += 1,
                    Some(FieldValue::Str(r)) if r == "unsat" => {
                        l.probes_unsat += 1;
                        l.unsat_s += solve;
                    }
                    _ => {}
                }
                l.conflicts += field_u64(s, "conflicts");
                l.decisions += field_u64(s, "decisions");
                l.propagations += field_u64(s, "propagations");
            }
            // The benchmark's `synth` wrapper and the drivers' own spans
            // (`optimize_depth`, `tb_optimize_swaps`, ...).
            _ => l.driver_s += self_s,
        }
    }
    (groups, others)
}
