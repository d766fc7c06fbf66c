//! The OLSQ2 flat (time-resolved) model — the paper's §III formulation.
//!
//! Variables (§III-A-1):
//! * mapping `π_q^t` — finite-domain over physical qubits, per program
//!   qubit and time step;
//! * time `t_g` — finite-domain over `0..T_UB`, per gate;
//! * SWAP `σ_e^t` — Boolean, true iff a SWAP on edge `e` *finishes* at `t`.
//!
//! There are **no space variables**: gate positions are implied by mapping
//! and time variables (Improvement 1). Constraints follow §II-A/§III-A-2:
//! injectivity, dependencies, two-qubit adjacency (Eq. 1), SWAP/gate
//! overlap (Eq. 2–3), SWAP/SWAP exclusion, and mapping transformation.
//! Objective bounds are attached through activation literals so the
//! optimization loops of §III-B stay incremental.

// Indexed `for` loops are deliberate here: time-step/edge index loops mirror the paper's formulation.
#![allow(clippy::needless_range_loop)]
use crate::config::{MappingEncoding, SynthesisConfig, TimeEncoding};
use crate::vars::{transition_step, FdVar, TimeVars};
use olsq2_arch::CouplingGraph;
use olsq2_circuit::{Circuit, DependencyGraph, Operands};
use olsq2_encode::{
    at_most_one, gates, BatchSink, CardinalityNetwork, CnfSink, ConstraintFamily, FamilyTally,
};
use olsq2_layout::{LayoutResult, SwapOp};
use olsq2_sat::{Lit, SolveResult, Solver};
use std::collections::HashMap;

/// Errors raised while constructing a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// More program qubits than physical qubits.
    TooManyQubits {
        /// Program qubit count.
        program: usize,
        /// Physical qubit count.
        physical: usize,
    },
    /// The circuit has no gates (nothing to synthesize).
    EmptyCircuit,
    /// The coupling graph cannot route the circuit (disconnected).
    DisconnectedDevice,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::TooManyQubits { program, physical } => write!(
                f,
                "circuit uses {program} program qubits but the device has only {physical}"
            ),
            ModelError::EmptyCircuit => write!(f, "circuit has no gates"),
            ModelError::DisconnectedDevice => {
                write!(
                    f,
                    "coupling graph is disconnected; routing may be impossible"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Which formulation to build: the paper's succinct OLSQ2 model or the
/// original OLSQ baseline with per-gate *space variables* (used for the
/// speedup comparisons of Fig. 1 and Tables I–II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelStyle {
    /// OLSQ2 (Improvement 1): no space variables; gate positions inferred
    /// from mapping and time variables.
    #[default]
    Olsq2,
    /// OLSQ (Tan & Cong, ICCAD'20): each gate carries a space variable
    /// `x_g` (over edges for two-qubit gates, over qubits for single-qubit
    /// gates) plus consistency constraints tying `x_g` to the mapping —
    /// the redundancy the paper eliminates.
    OlsqBaseline,
}

/// The built model plus handles for incremental bounding and extraction.
#[derive(Debug)]
pub struct FlatModel {
    solver: Solver,
    /// `mapping[q][t]`.
    mapping: Vec<Vec<FdVar>>,
    time: TimeVars,
    /// `swap_lits[e][t]`; entries below `S_D - 1` are frozen false.
    swap_lits: Vec<Vec<Lit>>,
    t_ub: usize,
    sd: usize,
    style: ModelStyle,
    config: SynthesisConfig,
    depth_bounds: HashMap<usize, Lit>,
    swap_card: Option<CardinalityNetwork>,
    num_gates: usize,
    tally: FamilyTally,
    /// Current window-generation guard (incremental builds only): the
    /// active at-least-one/domain-bound constraints for the time variables
    /// are conditional on it, and every solve assumes it. Superseded
    /// guards are permanently falsified at the root by
    /// [`FlatModel::extend_window`].
    window_guard: Option<Lit>,
    /// Number of in-place window extensions performed.
    extensions: usize,
}

impl FlatModel {
    /// Builds the OLSQ2 model for `circuit` on `graph` with the given
    /// depth window `t_ub`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the instance is structurally infeasible.
    pub fn build(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        t_ub: usize,
    ) -> Result<FlatModel, ModelError> {
        Self::build_with_style(circuit, graph, config, t_ub, ModelStyle::Olsq2)
    }

    /// Builds either formulation (see [`ModelStyle`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the instance is structurally infeasible.
    pub fn build_with_style(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
        t_ub: usize,
        style: ModelStyle,
    ) -> Result<FlatModel, ModelError> {
        let nq = circuit.num_qubits();
        let np = graph.num_qubits();
        if circuit.num_gates() == 0 {
            return Err(ModelError::EmptyCircuit);
        }
        if nq > np {
            return Err(ModelError::TooManyQubits {
                program: nq,
                physical: np,
            });
        }
        if !graph.is_connected() && nq > 1 {
            return Err(ModelError::DisconnectedDevice);
        }
        let sd = config.swap_duration.max(1);
        let t_ub = t_ub.max(1);
        let mut solver = Solver::new();
        if config.proof_log {
            // Before any clause: the log must contain every original.
            solver.enable_proof();
        }
        let enc = config.encoding;
        let mut tally = FamilyTally::new();
        let mut mark = tally.mark(&solver);

        // --- Mapping variables + injectivity -------------------------------
        let new_mapping_var = |s: &mut Solver| match enc.mapping {
            MappingEncoding::OneHot | MappingEncoding::InverseOneHot => {
                FdVar::new_onehot(s, np, enc.amo)
            }
            MappingEncoding::Binary => FdVar::new_binary(s, np),
        };
        let mut mapping: Vec<Vec<FdVar>> = (0..nq)
            .map(|_| (0..t_ub).map(|_| new_mapping_var(&mut solver)).collect())
            .collect();

        // Injectivity is pure clause emission: stage it through a
        // BatchSink so the clauses land via one bulk hand-off per buffer
        // instead of a solver call each.
        let mut batch = BatchSink::new(&mut solver);
        match enc.mapping {
            MappingEncoding::OneHot => {
                // Pairwise per (t, p): the "int"-style injectivity.
                for t in 0..t_ub {
                    for p in 0..np {
                        let sels: Vec<Lit> = (0..nq)
                            .map(|q| mapping[q][t].eq_lit(&mut batch, p))
                            .collect();
                        at_most_one(&mut batch, &sels, enc.amo);
                    }
                }
            }
            MappingEncoding::Binary => {
                // Pairwise difference per (t, q<q'): at least one bit of the
                // two bit-vectors differs.
                for t in 0..t_ub {
                    for q1 in 0..nq {
                        for q2 in (q1 + 1)..nq {
                            let diff = fd_differs(&mut batch, &mapping[q1][t], &mapping[q2][t]);
                            batch.add_clause(&[diff]);
                        }
                    }
                }
            }
            MappingEncoding::InverseOneHot => {
                // EUF-style: an inverse family π_inv(p, t) over Q ∪ {free}
                // with channeling; injectivity follows from π_inv being a
                // function (its exactly-one constraint).
                for t in 0..t_ub {
                    let mut inv: Vec<FdVar> = (0..np)
                        .map(|_| FdVar::new_onehot(&mut batch, nq + 1, enc.amo))
                        .collect();
                    for q in 0..nq {
                        for p in 0..np {
                            let m = mapping[q][t].eq_lit(&mut batch, p);
                            let i = inv[p].eq_lit(&mut batch, q);
                            batch.add_clause(&[!m, i]);
                            batch.add_clause(&[!i, m]);
                        }
                    }
                }
            }
        }
        drop(batch);

        mark = tally.credit_since(ConstraintFamily::Mapping, &solver, mark);

        // --- Time variables + dependencies ---------------------------------
        let dag = if config.commutation_aware {
            DependencyGraph::new_with_commutation(circuit)
        } else {
            DependencyGraph::new(circuit)
        };
        // Incremental builds guard the window-scoped domain constraints on
        // a generation literal so the window can later grow in place (see
        // [`FlatModel::extend_window`]); the guard is assumed on every
        // solve. Non-incremental builds emit them unconditionally.
        let window_guard = config
            .incremental
            .then(|| Lit::positive(CnfSink::new_var(&mut solver)));
        let mut time = TimeVars::new(
            &mut solver,
            circuit.num_gates(),
            t_ub,
            enc.time,
            enc.amo,
            window_guard,
        );
        for &(g, g2) in dag.dependencies() {
            time.assert_before(&mut solver, g, g2);
        }
        // Commutation relaxes *order*, not exclusivity: gates sharing a
        // program qubit must still occupy distinct time steps.
        if config.commutation_aware {
            let dep_set: std::collections::HashSet<(usize, usize)> =
                dag.dependencies().iter().copied().collect();
            let mut per_qubit: Vec<Vec<usize>> = vec![Vec::new(); nq];
            for (g, gate) in circuit.gates().iter().enumerate() {
                for q in gate.operands.qubits() {
                    per_qubit[q as usize].push(g);
                }
            }
            let mut seen_pairs = std::collections::HashSet::new();
            for gates_on_q in &per_qubit {
                for (i, &a) in gates_on_q.iter().enumerate() {
                    for &b in &gates_on_q[i + 1..] {
                        if dep_set.contains(&(a, b))
                            || dep_set.contains(&(b, a))
                            || !seen_pairs.insert((a, b))
                        {
                            continue;
                        }
                        time.assert_not_equal(&mut solver, a, b);
                    }
                }
            }
        }

        mark = tally.credit_since(ConstraintFamily::Dependency, &solver, mark);

        // --- SWAP variables -------------------------------------------------
        let ne = graph.num_edges();
        let swap_lits: Vec<Vec<Lit>> = (0..ne)
            .map(|_| {
                (0..t_ub)
                    .map(|_| Lit::positive(CnfSink::new_var(&mut solver)))
                    .collect()
            })
            .collect();
        // A SWAP cannot finish before S_D - 1.
        for lits in &swap_lits {
            for &l in lits.iter().take(sd - 1) {
                solver.add_clause([!l]);
            }
        }
        // SWAP/SWAP exclusion: overlapping windows on edges sharing a qubit.
        for e1 in 0..ne {
            let (a1, b1) = graph.edge(e1);
            for e2 in e1..ne {
                let (a2, b2) = graph.edge(e2);
                let shares = e1 == e2 || a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2;
                if !shares {
                    continue;
                }
                for t1 in (sd - 1)..t_ub {
                    let upper = (t1 + sd).min(t_ub);
                    // Windows (t-S_D, t] intersect iff |t1 - t2| < S_D; for
                    // the same edge only emit each unordered pair once.
                    let lower = if e1 == e2 {
                        t1 + 1
                    } else {
                        (t1 + 1).saturating_sub(sd).max(sd - 1)
                    };
                    for t2 in lower..upper {
                        if e1 == e2 && t1 == t2 {
                            continue;
                        }
                        solver.add_clause([!swap_lits[e1][t1], !swap_lits[e2][t2]]);
                    }
                }
            }
        }

        mark = tally.credit_since(ConstraintFamily::Swap, &solver, mark);

        // The scheduling families dominate the formula; stage them in bulk.
        let mut batch = BatchSink::new(&mut solver);
        match style {
            ModelStyle::Olsq2 => {
                // --- Valid two-qubit gate scheduling (Eq. 1) ----------------
                // Cache the adjacency disjunction per (qubit pair, t).
                let mut adj_cache: HashMap<(u16, u16, usize), Lit> = HashMap::new();
                let mut clause = Vec::new();
                for (g, gate) in circuit.gates().iter().enumerate() {
                    if let Operands::Two(q1, q2) = gate.operands {
                        let (qa, qb) = (q1.min(q2), q1.max(q2));
                        for t in 0..t_ub {
                            let adj = match adj_cache.get(&(qa, qb, t)) {
                                Some(&l) => l,
                                None => {
                                    let mut pair_lits = Vec::with_capacity(2 * ne);
                                    for e in 0..ne {
                                        let (pa, pb) = graph.edge(e);
                                        for (x, y) in [(pa, pb), (pb, pa)] {
                                            let la = mapping[qa as usize][t]
                                                .eq_lit(&mut batch, x as usize);
                                            let lb = mapping[qb as usize][t]
                                                .eq_lit(&mut batch, y as usize);
                                            pair_lits.push(gates::and_lit(&mut batch, la, lb));
                                        }
                                    }
                                    let l = gates::or_all(&mut batch, &pair_lits);
                                    adj_cache.insert((qa, qb, t), l);
                                    l
                                }
                            };
                            // (t_g == t) → adjacent(qa, qb, t)
                            clause.clear();
                            time.var(g).push_neq(t, &mut clause);
                            clause.push(adj);
                            batch.add_clause(&clause);
                        }
                    }
                }

                // --- Valid SWAP insertion (Eq. 2–3) -------------------------
                // A SWAP finishing at t occupies its endpoints during the
                // window (t - S_D, t]; no gate touching those physical
                // qubits may be scheduled in that window.
                for (g, gate) in circuit.gates().iter().enumerate() {
                    let qubits: Vec<u16> = gate.operands.qubits().collect();
                    for e in 0..ne {
                        let (pa, pb) = graph.edge(e);
                        for t in (sd - 1)..t_ub {
                            for t_prime in (t + 1 - sd)..=t {
                                for &q in &qubits {
                                    for p in [pa, pb] {
                                        // (t_g == t') ∧ (π_q^t == p) → ¬σ_e^t
                                        clause.clear();
                                        time.var(g).push_neq(t_prime, &mut clause);
                                        mapping[q as usize][t].push_neq(p as usize, &mut clause);
                                        clause.push(!swap_lits[e][t]);
                                        batch.add_clause(&clause);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            ModelStyle::OlsqBaseline => {
                // Original OLSQ: per-gate space variables with consistency
                // constraints, and overlap constraints expressed through
                // them (the redundancy Improvement 1 removes).
                let mut space: Vec<FdVar> = Vec::with_capacity(circuit.num_gates());
                for gate in circuit.gates() {
                    let domain = match gate.operands {
                        Operands::One(_) => np,
                        Operands::Two(..) => ne,
                    };
                    let var = match enc.mapping {
                        MappingEncoding::OneHot | MappingEncoding::InverseOneHot => {
                            FdVar::new_onehot(&mut batch, domain, enc.amo)
                        }
                        MappingEncoding::Binary => FdVar::new_binary(&mut batch, domain),
                    };
                    space.push(var);
                }
                // Consistency between space, time, and mapping variables.
                let (mut clause, mut conj) = (Vec::new(), Vec::new());
                for (g, gate) in circuit.gates().iter().enumerate() {
                    match gate.operands {
                        Operands::One(q) => {
                            // (t_g == t ∧ x_g == p) → π_q^t == p.
                            for t in 0..t_ub {
                                for p in 0..np {
                                    conj.clear();
                                    mapping[q as usize][t].push_eq(p, &mut conj);
                                    for &bit in &conj {
                                        clause.clear();
                                        time.var(g).push_neq(t, &mut clause);
                                        space[g].push_neq(p, &mut clause);
                                        clause.push(bit);
                                        batch.add_clause(&clause);
                                    }
                                }
                            }
                        }
                        Operands::Two(q1, q2) => {
                            // (t_g == t ∧ x_g == e) → endpoints match in
                            // either orientation.
                            for t in 0..t_ub {
                                for e in 0..ne {
                                    let (pa, pb) = graph.edge(e);
                                    let mut orient = Vec::with_capacity(2);
                                    for (x, y) in [(pa, pb), (pb, pa)] {
                                        let la =
                                            mapping[q1 as usize][t].eq_lit(&mut batch, x as usize);
                                        let lb =
                                            mapping[q2 as usize][t].eq_lit(&mut batch, y as usize);
                                        orient.push(gates::and_lit(&mut batch, la, lb));
                                    }
                                    let both = gates::or_all(&mut batch, &orient);
                                    clause.clear();
                                    time.var(g).push_neq(t, &mut clause);
                                    space[g].push_neq(e, &mut clause);
                                    clause.push(both);
                                    batch.add_clause(&clause);
                                }
                            }
                        }
                    }
                }
                // Overlap via space variables (OLSQ Eq. 7–8 analogue).
                for (g, gate) in circuit.gates().iter().enumerate() {
                    for e in 0..ne {
                        let (pa, pb) = graph.edge(e);
                        for t in (sd - 1)..t_ub {
                            for t_prime in (t + 1 - sd)..=t {
                                match gate.operands {
                                    Operands::One(_) => {
                                        for p in [pa, pb] {
                                            clause.clear();
                                            time.var(g).push_neq(t_prime, &mut clause);
                                            space[g].push_neq(p as usize, &mut clause);
                                            clause.push(!swap_lits[e][t]);
                                            batch.add_clause(&clause);
                                        }
                                    }
                                    Operands::Two(..) => {
                                        // Any edge sharing a qubit with e
                                        // (including e itself).
                                        for e2 in 0..ne {
                                            let (qa, qb) = graph.edge(e2);
                                            let shares = e2 == e
                                                || qa == pa
                                                || qa == pb
                                                || qb == pa
                                                || qb == pb;
                                            if !shares {
                                                continue;
                                            }
                                            clause.clear();
                                            time.var(g).push_neq(t_prime, &mut clause);
                                            space[g].push_neq(e2, &mut clause);
                                            clause.push(!swap_lits[e][t]);
                                            batch.add_clause(&clause);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        drop(batch);

        mark = tally.credit_since(ConstraintFamily::Scheduling, &solver, mark);

        // --- SWAP transformation (mapping consistency) ----------------------
        let mut batch = BatchSink::new(&mut solver);
        for t in 0..t_ub.saturating_sub(1) {
            let qubits = mapping.iter().map(|m| (&m[t], &m[t + 1]));
            transition_step(&mut batch, graph, qubits, |e| swap_lits[e][t]);
        }
        drop(batch);

        tally.credit_since(ConstraintFamily::Transition, &solver, mark);

        // Structure-aware seeding: in an exactly-one group all but one
        // selector end up false, and optimal layouts use few SWAPs, so
        // the all-false polarity starts the search inside the layout
        // structure instead of fighting the at-most-one constraints. The
        // t = 0 activity bump nudges the first decisions toward the
        // initial placement. It must stay a *nudge*: at full VSIDS weight
        // (1.0) it fixates routing-heavy searches on placement long after
        // the conflict analysis has better candidates (qaoa-8: 3.3×
        // slower, tof-3: 1.3× slower), while 0.25 keeps the
        // placement-first ordering on instances it helps (qaoa-10,
        // qft-4/5) without the fixation.
        if matches!(
            enc.mapping,
            MappingEncoding::OneHot | MappingEncoding::InverseOneHot
        ) {
            for per_t in &mapping {
                for fd in per_t {
                    for l in fd.raw_lits() {
                        solver.set_saved_phase(l.var(), false);
                    }
                }
                for l in per_t[0].raw_lits() {
                    solver.boost_activity(l.var(), 0.25);
                }
            }
        }
        if enc.time == TimeEncoding::OneHot {
            for g in 0..circuit.num_gates() {
                for l in time.var(g).raw_lits() {
                    solver.set_saved_phase(l.var(), false);
                }
            }
        }
        for per_t in &swap_lits {
            for &sl in per_t {
                solver.set_saved_phase(sl.var(), false);
            }
        }

        // Domain-informed branching order (§V): decide the initial
        // placement first, then gate times; SWAPs follow by propagation.
        if config.seed_variable_order {
            for per_t in &mapping {
                for l in per_t[0].raw_lits() {
                    solver.boost_activity(l.var(), 2.0);
                }
            }
            for g in 0..circuit.num_gates() {
                for l in time.var(g).raw_lits() {
                    solver.boost_activity(l.var(), 1.0);
                }
            }
        }

        // Everything past the build is bound-machinery: activation
        // literals, cardinality counters, window-growth variables. Clauses
        // over them encode cross-solve contracts, so inprocessing must
        // leave them exactly as written.
        solver.set_inprocess_floor(solver.num_vars());

        Ok(FlatModel {
            solver,
            mapping,
            time,
            swap_lits,
            t_ub,
            sd,
            style,
            config: config.clone(),
            depth_bounds: HashMap::new(),
            swap_card: None,
            num_gates: circuit.num_gates(),
            tally,
            window_guard,
            extensions: 0,
        })
    }

    /// Forks this model without re-encoding: the underlying solver state
    /// is snapshotted via [`Solver::fork`] (O(memcpy) — clause arena,
    /// watch lists, root trail, phases, activities, proof prefix), the
    /// encoding handles (variable maps, bound activators, cardinality
    /// network, window guard) are cloned, and the fork runs under
    /// `config` from then on.
    ///
    /// `config` must agree with the base model on everything that shapes
    /// the formula (encoding, swap duration, style, proof logging);
    /// callers that cannot guarantee that should fall back to a fresh
    /// build.
    pub fn fork(&mut self, config: &SynthesisConfig) -> FlatModel {
        debug_assert_eq!(config.encoding, self.config.encoding);
        debug_assert_eq!(
            config.swap_duration.max(1),
            self.sd,
            "fork must keep the base swap duration"
        );
        debug_assert_eq!(
            config.proof_log, self.config.proof_log,
            "proof logging is decided at encode time"
        );
        FlatModel {
            solver: self.solver.fork(),
            mapping: self.mapping.clone(),
            time: self.time.clone(),
            swap_lits: self.swap_lits.clone(),
            t_ub: self.t_ub,
            sd: self.sd,
            style: self.style,
            config: config.clone(),
            depth_bounds: self.depth_bounds.clone(),
            swap_card: self.swap_card.clone(),
            num_gates: self.num_gates,
            tally: self.tally.clone(),
            window_guard: self.window_guard,
            extensions: self.extensions,
        }
    }

    /// Grows the depth window to `new_t_ub` **in place**: appends the new
    /// time steps' variables and constraint families onto the live solver,
    /// keeping every learned clause, VSIDS activity, and saved phase. The
    /// encoding is time-resolved, so all clauses over steps `0..old_t_ub`
    /// remain valid verbatim; only the window-scoped domain constraints
    /// move to a new guard generation, and the superseded guard is
    /// permanently falsified at the root (which [`Solver::simplify`] then
    /// exploits to physically retire the dead constraints).
    ///
    /// Returns `false` without extending when the model cannot extend —
    /// built non-incrementally, the baseline style, or a binary time
    /// encoding that would need a wider bit-vector. The caller falls back
    /// to a rebuild then.
    ///
    /// `circuit` and `graph` must be the ones the model was built from.
    ///
    /// # Panics
    ///
    /// Panics if `new_t_ub` is below the current window.
    pub fn extend_window(
        &mut self,
        circuit: &Circuit,
        graph: &CouplingGraph,
        new_t_ub: usize,
    ) -> bool {
        let Some(old_guard) = self.window_guard else {
            return false;
        };
        if self.style != ModelStyle::Olsq2 {
            return false;
        }
        let new_t_ub = new_t_ub.max(1);
        assert!(new_t_ub >= self.t_ub, "windows only grow");
        if new_t_ub == self.t_ub {
            return true;
        }
        let old_t_ub = self.t_ub;
        let nq = self.mapping.len();
        let np = graph.num_qubits();
        let ne = graph.num_edges();
        let sd = self.sd;
        let enc = self.config.encoding;

        // --- Time variables: new guard generation + dependency re-emit ----
        let mut mark = self.tally.mark(&self.solver);
        let new_guard = Lit::positive(CnfSink::new_var(&mut self.solver));
        if !self.time.extend(&mut self.solver, new_t_ub, new_guard) {
            return false; // binary width grew: caller rebuilds
        }
        mark = self
            .tally
            .credit_since(ConstraintFamily::Dependency, &self.solver, mark);

        // --- Mapping variables + injectivity for the new steps ------------
        for q in 0..nq {
            for _ in old_t_ub..new_t_ub {
                let var = match enc.mapping {
                    MappingEncoding::OneHot | MappingEncoding::InverseOneHot => {
                        FdVar::new_onehot(&mut self.solver, np, enc.amo)
                    }
                    MappingEncoding::Binary => FdVar::new_binary(&mut self.solver, np),
                };
                self.mapping[q].push(var);
            }
        }
        let mapping = &mut self.mapping;
        let mut batch = BatchSink::new(&mut self.solver);
        match enc.mapping {
            MappingEncoding::OneHot => {
                for t in old_t_ub..new_t_ub {
                    for p in 0..np {
                        let sels: Vec<Lit> = (0..nq)
                            .map(|q| mapping[q][t].eq_lit(&mut batch, p))
                            .collect();
                        at_most_one(&mut batch, &sels, enc.amo);
                    }
                }
            }
            MappingEncoding::Binary => {
                for t in old_t_ub..new_t_ub {
                    for q1 in 0..nq {
                        for q2 in (q1 + 1)..nq {
                            let diff = fd_differs(&mut batch, &mapping[q1][t], &mapping[q2][t]);
                            batch.add_clause(&[diff]);
                        }
                    }
                }
            }
            MappingEncoding::InverseOneHot => {
                for t in old_t_ub..new_t_ub {
                    let mut inv: Vec<FdVar> = (0..np)
                        .map(|_| FdVar::new_onehot(&mut batch, nq + 1, enc.amo))
                        .collect();
                    for q in 0..nq {
                        for p in 0..np {
                            let m = mapping[q][t].eq_lit(&mut batch, p);
                            let i = inv[p].eq_lit(&mut batch, q);
                            batch.add_clause(&[!m, i]);
                            batch.add_clause(&[!i, m]);
                        }
                    }
                }
            }
        }
        drop(batch);
        mark = self
            .tally
            .credit_since(ConstraintFamily::Mapping, &self.solver, mark);

        // --- SWAP variables for the new steps + exclusions ----------------
        for e in 0..ne {
            for t in old_t_ub..new_t_ub {
                let l = Lit::positive(CnfSink::new_var(&mut self.solver));
                if t < sd - 1 {
                    self.solver.add_clause([!l]);
                }
                self.swap_lits[e].push(l);
            }
        }
        // Replicate the build-time exclusion loops at the larger window,
        // skipping pairs whose finish times both predate the extension
        // (those clauses were already emitted).
        for e1 in 0..ne {
            let (a1, b1) = graph.edge(e1);
            for e2 in e1..ne {
                let (a2, b2) = graph.edge(e2);
                let shares = e1 == e2 || a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2;
                if !shares {
                    continue;
                }
                for t1 in (sd - 1)..new_t_ub {
                    let upper = (t1 + sd).min(new_t_ub);
                    let lower = if e1 == e2 {
                        t1 + 1
                    } else {
                        (t1 + 1).saturating_sub(sd).max(sd - 1)
                    };
                    for t2 in lower..upper {
                        if (e1 == e2 && t1 == t2) || (t1 < old_t_ub && t2 < old_t_ub) {
                            continue;
                        }
                        self.solver
                            .add_clause([!self.swap_lits[e1][t1], !self.swap_lits[e2][t2]]);
                    }
                }
            }
        }
        mark = self
            .tally
            .credit_since(ConstraintFamily::Swap, &self.solver, mark);

        // --- Scheduling validity for the new steps (Eq. 1–3) --------------
        let mapping = &mut self.mapping;
        let time = &self.time;
        let swap_lits = &self.swap_lits;
        let mut batch = BatchSink::new(&mut self.solver);
        let mut adj_cache: HashMap<(u16, u16, usize), Lit> = HashMap::new();
        let mut clause = Vec::new();
        for (g, gate) in circuit.gates().iter().enumerate() {
            if let Operands::Two(q1, q2) = gate.operands {
                let (qa, qb) = (q1.min(q2), q1.max(q2));
                for t in old_t_ub..new_t_ub {
                    let adj = match adj_cache.get(&(qa, qb, t)) {
                        Some(&l) => l,
                        None => {
                            let mut pair_lits = Vec::with_capacity(2 * ne);
                            for e in 0..ne {
                                let (pa, pb) = graph.edge(e);
                                for (x, y) in [(pa, pb), (pb, pa)] {
                                    let la = mapping[qa as usize][t].eq_lit(&mut batch, x as usize);
                                    let lb = mapping[qb as usize][t].eq_lit(&mut batch, y as usize);
                                    pair_lits.push(gates::and_lit(&mut batch, la, lb));
                                }
                            }
                            let l = gates::or_all(&mut batch, &pair_lits);
                            adj_cache.insert((qa, qb, t), l);
                            l
                        }
                    };
                    clause.clear();
                    time.var(g).push_neq(t, &mut clause);
                    clause.push(adj);
                    batch.add_clause(&clause);
                }
            }
        }
        // Eq. 2–3: every new pair has a new finish time (a swap finishing
        // at t blocks gates in (t - S_D, t], so old finish times only pair
        // with old gate times, which were covered by the build).
        for (g, gate) in circuit.gates().iter().enumerate() {
            let qubits: Vec<u16> = gate.operands.qubits().collect();
            for e in 0..ne {
                let (pa, pb) = graph.edge(e);
                for t in (sd - 1).max(old_t_ub)..new_t_ub {
                    for t_prime in (t + 1 - sd)..=t {
                        for &q in &qubits {
                            for p in [pa, pb] {
                                clause.clear();
                                time.var(g).push_neq(t_prime, &mut clause);
                                mapping[q as usize][t].push_neq(p as usize, &mut clause);
                                clause.push(!swap_lits[e][t]);
                                batch.add_clause(&clause);
                            }
                        }
                    }
                }
            }
        }
        drop(batch);
        mark = self
            .tally
            .credit_since(ConstraintFamily::Scheduling, &self.solver, mark);

        // --- Mapping transformation across the seam and new steps ---------
        let mapping = &self.mapping;
        let swap_lits = &self.swap_lits;
        let mut batch = BatchSink::new(&mut self.solver);
        for t in (old_t_ub - 1)..(new_t_ub - 1) {
            let qubits = mapping.iter().map(|m| (&m[t], &m[t + 1]));
            transition_step(&mut batch, graph, qubits, |e| swap_lits[e][t]);
        }
        drop(batch);
        mark = self
            .tally
            .credit_since(ConstraintFamily::Transition, &self.solver, mark);

        // --- Patch cached bound activations over the new steps ------------
        // A one-hot depth bound issued before the extension knows nothing
        // about the new time selectors or swap literals; forbid them under
        // the same activator. (Binary comparators cover the full bit width
        // and need no patch.) Sorted for deterministic clause order.
        let mut depth_acts: Vec<(usize, Lit)> =
            self.depth_bounds.iter().map(|(&d, &a)| (d, a)).collect();
        depth_acts.sort_unstable_by_key(|&(d, _)| d);
        for &(_, act) in &depth_acts {
            if enc.time == crate::config::TimeEncoding::OneHot {
                for g in 0..self.num_gates {
                    self.time.var_mut(g).forbid_range_if(
                        &mut self.solver,
                        old_t_ub..new_t_ub,
                        Some(act),
                    );
                }
            }
            for e in 0..ne {
                for t in old_t_ub..new_t_ub {
                    let l = self.swap_lits[e][t];
                    self.solver.add_clause([!act, !l]);
                }
            }
        }
        if let Some(card) = &mut self.swap_card {
            let new_inputs: Vec<Lit> = (0..ne)
                .flat_map(|e| self.swap_lits[e][old_t_ub..].iter().copied())
                .collect();
            let invalidated = card.extend(&mut self.solver, &new_inputs);
            // Invalidated bound activators (adder-network rebuilds) are
            // permanently retired; callers re-request their bounds.
            for l in invalidated {
                self.solver.add_clause([!l]);
            }
        }
        self.tally
            .credit_since(ConstraintFamily::Cardinality, &self.solver, mark);

        // --- Generation flip: retire the superseded window guard ----------
        self.solver.add_clause([!old_guard]);
        self.solver.simplify();
        self.window_guard = Some(new_guard);
        self.t_ub = new_t_ub;
        self.extensions += 1;
        true
    }

    /// The depth window `T_UB` the model was built for.
    pub fn t_ub(&self) -> usize {
        self.t_ub
    }

    /// Formula-size statistics `(variables, clauses)` of the built model.
    pub fn formula_size(&self) -> (usize, usize) {
        (self.solver.num_vars(), self.solver.num_clauses())
    }

    /// Per-constraint-family formula-size breakdown. Bound machinery added
    /// after the build ([`FlatModel::depth_bound`], [`FlatModel::swap_bound`])
    /// is credited to [`ConstraintFamily::Cardinality`].
    pub fn breakdown(&self) -> &FamilyTally {
        &self.tally
    }

    /// Mutable access to the underlying solver (budgets, statistics).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Activation literal enforcing depth ≤ `depth` (all `t_g ≤ depth-1`,
    /// Eq. 4, and no SWAP finishing at or after `depth`).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or exceeds `T_UB`.
    pub fn depth_bound(&mut self, depth: usize) -> Lit {
        assert!(
            depth >= 1 && depth <= self.t_ub,
            "depth bound out of window"
        );
        if let Some(&l) = self.depth_bounds.get(&depth) {
            return l;
        }
        let mark = self.tally.mark(&self.solver);
        let act = Lit::positive(CnfSink::new_var(&mut self.solver));
        for g in 0..self.num_gates {
            self.time
                .var_mut(g)
                .assert_le_if(&mut self.solver, depth - 1, Some(act));
        }
        for e in 0..self.swap_lits.len() {
            for t in depth..self.t_ub {
                let l = self.swap_lits[e][t];
                self.solver.add_clause([!act, !l]);
            }
        }
        self.tally
            .credit_since(ConstraintFamily::Cardinality, &self.solver, mark);
        self.depth_bounds.insert(depth, act);
        act
    }

    /// Activation literal enforcing `Σ σ ≤ k` (Eq. 5). The cardinality
    /// network is built lazily on first use with capacity `max_bound`
    /// (later calls may use any `k ≤ max_bound` of the *first* call).
    pub fn swap_bound(&mut self, k: usize, max_bound: usize) -> Lit {
        let mark = self.tally.mark(&self.solver);
        if self.swap_card.is_none() {
            let inputs: Vec<Lit> = self
                .swap_lits
                .iter()
                .flat_map(|row| row.iter().copied())
                .collect();
            self.swap_card = Some(CardinalityNetwork::new(
                &mut self.solver,
                &inputs,
                max_bound,
                self.config.encoding.cardinality,
            ));
        }
        let act = self
            .swap_card
            .as_mut()
            .expect("just built")
            .at_most(&mut self.solver, k);
        self.tally
            .credit_since(ConstraintFamily::Cardinality, &self.solver, mark);
        act
    }

    /// Number of in-place window extensions performed on this model.
    pub fn extensions(&self) -> usize {
        self.extensions
    }

    /// Solves under the given assumptions (plus the active window guard on
    /// incremental builds — without it the guarded at-least-one constraints
    /// would let every time variable go unassigned).
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        let result = match self.window_guard {
            None => self.solver.solve(assumptions),
            Some(g) => {
                let mut with_guard = Vec::with_capacity(assumptions.len() + 1);
                with_guard.extend_from_slice(assumptions);
                with_guard.push(g);
                self.solver.solve(&with_guard)
            }
        };
        // Each satisfiable bound is the new incumbent layout; steer the
        // next (tighter) solve toward it via target phases.
        if result == SolveResult::Sat {
            self.solver.adopt_model_targets();
        }
        result
    }

    /// Extracts the layout result from the solver's current model.
    ///
    /// # Panics
    ///
    /// Panics if the last `solve` was not SAT.
    pub fn extract(&self) -> LayoutResult {
        let initial_mapping: Vec<u16> = self
            .mapping
            .iter()
            .map(|per_t| per_t[0].value_in(&self.solver) as u16)
            .collect();
        let schedule: Vec<usize> = (0..self.num_gates)
            .map(|g| self.time.value_in(&self.solver, g))
            .collect();
        let mut swaps = Vec::new();
        for (e, row) in self.swap_lits.iter().enumerate() {
            for (t, &l) in row.iter().enumerate() {
                if self.solver.model_value(l) == Some(true) {
                    swaps.push(SwapOp {
                        edge: e,
                        finish_time: t,
                    });
                }
            }
        }
        let depth = schedule
            .iter()
            .copied()
            .chain(swaps.iter().map(|s| s.finish_time))
            .max()
            .unwrap_or(0)
            + 1;
        LayoutResult {
            initial_mapping,
            schedule,
            swaps,
            depth,
            swap_duration: self.sd,
        }
    }
}

/// A shareable encoded-model template for O(memcpy) resumes.
///
/// Wraps one built [`FlatModel`] behind a mutex so a later run (the
/// service's snapshot-on-preempt resume) can fork it instead of
/// encoding again. The seed remembers the exact instance it
/// encodes — a structural fingerprint of the circuit, the device, and
/// every formula-shaping config field — and [`ModelSeed::fork_for`]
/// refuses to fork for anything else, so a stale or mismatched seed
/// degrades to a fresh build instead of an unsound fork.
#[derive(Debug, Clone)]
pub struct ModelSeed {
    inner: std::sync::Arc<std::sync::Mutex<FlatModel>>,
    instance: u64,
}

impl ModelSeed {
    /// Wraps a built model as a seed for the given instance fingerprint
    /// (from [`ModelSeed::instance_fingerprint`] on the same inputs).
    pub fn capture(model: FlatModel, instance: u64) -> ModelSeed {
        ModelSeed {
            inner: std::sync::Arc::new(std::sync::Mutex::new(model)),
            instance,
        }
    }

    /// The instance fingerprint this seed was captured for.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// Structural fingerprint of one synthesis instance: the exact gate
    /// list (kinds, parameters, operands — **not** relabeling-invariant:
    /// a fork replays the base's variable numbering, so only the
    /// bit-identical instance may consume it), the device edge list, and
    /// every config field that shapes the formula or the solver's
    /// pre-search state. Run-scoped handles (budgets, telemetry) are
    /// deliberately excluded — they are re-applied per fork.
    pub fn instance_fingerprint(
        circuit: &Circuit,
        graph: &CouplingGraph,
        config: &SynthesisConfig,
    ) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        "olsq2.instance".hash(&mut h);
        circuit.num_qubits().hash(&mut h);
        for gate in circuit.gates() {
            gate.kind.name().hash(&mut h);
            for p in gate.kind.params() {
                p.to_bits().hash(&mut h);
            }
            match gate.operands {
                Operands::One(q) => (1u8, q, 0u16).hash(&mut h),
                Operands::Two(a, b) => (2u8, a, b).hash(&mut h),
            }
        }
        graph.num_qubits().hash(&mut h);
        for &(a, b) in graph.edges() {
            (a, b).hash(&mut h);
        }
        config.encoding.hash(&mut h);
        config.swap_duration.hash(&mut h);
        config.commutation_aware.hash(&mut h);
        config.seed_variable_order.hash(&mut h);
        config.incremental.hash(&mut h);
        config.proof_log.hash(&mut h);
        h.finish()
    }

    /// Forks a model for `config` at depth window `t_ub`, or `None` when
    /// the seed cannot serve it (different instance, smaller window than
    /// the template's, or a window growth the incremental machinery
    /// cannot perform) — the caller then falls back to a fresh encode.
    ///
    /// A larger window is served by forking and growing the *fork* via
    /// [`FlatModel::extend_window`].
    pub fn fork_for(
        &self,
        config: &SynthesisConfig,
        circuit: &Circuit,
        graph: &CouplingGraph,
        instance: u64,
        t_ub: usize,
    ) -> Option<FlatModel> {
        if instance != self.instance {
            return None;
        }
        let mut base = self.inner.lock().ok()?;
        let base_t_ub = base.t_ub();
        if t_ub == base_t_ub {
            return Some(base.fork(config));
        }
        if t_ub > base_t_ub && config.incremental {
            let mut fork = base.fork(config);
            drop(base);
            if fork.extend_window(circuit, graph, t_ub) {
                return Some(fork);
            }
        }
        None
    }
}

/// A handle a preemptible run publishes its encoded state into when the
/// budget expires mid-descent (see `snapshot_slot` on
/// [`SynthesisConfig`]): the service's snapshot-on-preempt hook reads it
/// back and reattaches it as the `model_seed` of the resume run, which
/// then forks instead of re-encoding.
#[derive(Debug, Clone, Default)]
pub struct SnapshotSlot {
    inner: std::sync::Arc<std::sync::Mutex<Option<ModelSeed>>>,
}

impl SnapshotSlot {
    /// Creates an empty slot.
    pub fn new() -> SnapshotSlot {
        SnapshotSlot::default()
    }

    /// Publishes a snapshot (replacing any previous one).
    pub fn publish(&self, seed: ModelSeed) {
        *self.inner.lock().expect("snapshot lock") = Some(seed);
    }

    /// A handle to the current snapshot, if one was published.
    pub fn peek(&self) -> Option<ModelSeed> {
        self.inner.lock().expect("snapshot lock").clone()
    }

    /// Removes and returns the current snapshot.
    pub fn take(&self) -> Option<ModelSeed> {
        self.inner.lock().expect("snapshot lock").take()
    }

    /// Whether nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("snapshot lock").is_none()
    }
}

/// A literal true iff two finite-domain variables differ (bit-level XOR
/// over the raw representation literals).
fn fd_differs<S: CnfSink>(sink: &mut S, a: &FdVar, b: &FdVar) -> Lit {
    let bits_a = a.raw_lits();
    let bits_b = b.raw_lits();
    debug_assert_eq!(bits_a.len(), bits_b.len());
    let diffs: Vec<Lit> = bits_a
        .iter()
        .zip(bits_b.iter())
        .map(|(&x, &y)| gates::xor_lit(sink, x, y))
        .collect();
    gates::or_all(sink, &diffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncodingConfig;
    use olsq2_arch::line;
    use olsq2_circuit::{Gate, GateKind};
    use olsq2_layout::verify;

    fn cx_pair_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::two(GateKind::Cx, 0, 1));
        c
    }

    #[test]
    fn trivial_instance_solves_and_verifies() {
        let circuit = cx_pair_circuit();
        let graph = line(2);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 2).expect("builds");
        assert_eq!(model.solve(&[]), SolveResult::Sat);
        let result = model.extract();
        assert_eq!(verify(&circuit, &graph, &result), Ok(()));
    }

    #[test]
    fn distant_qubits_force_a_swap() {
        // cx(q0,q1) twice on a 3-line: only 2 program qubits, 3 physical.
        // With depth window 1 and swap window too small it is UNSAT; with a
        // wide window it is SAT.
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
        assert_eq!(model.solve(&[]), SolveResult::Sat);
        let result = model.extract();
        assert_eq!(verify(&circuit, &graph, &result), Ok(()));
        // A triangle on a line needs at least one swap.
        assert!(!result.swaps.is_empty());
    }

    #[test]
    fn depth_bounds_are_monotone() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 4).expect("builds");
        let b2 = model.depth_bound(2);
        let b4 = model.depth_bound(4);
        assert_eq!(model.solve(&[b2]), SolveResult::Sat);
        let r = model.extract();
        assert!(r.depth <= 2);
        assert_eq!(model.solve(&[b4]), SolveResult::Sat);
        // Bound 1 is impossible: two dependent gates.
        let b1 = model.depth_bound(1);
        assert_eq!(model.solve(&[b1]), SolveResult::Unsat);
    }

    #[test]
    fn swap_bound_zero_forbids_swaps() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 8).expect("builds");
        let s0 = model.swap_bound(0, 4);
        assert_eq!(model.solve(&[s0]), SolveResult::Unsat); // triangle needs a swap
        let s1 = model.swap_bound(1, 4);
        let r1 = model.solve(&[s1]);
        assert_eq!(r1, SolveResult::Sat);
        let result = model.extract();
        assert_eq!(result.swap_count(), 1);
        assert_eq!(verify(&circuit, &graph, &result), Ok(()));
    }

    #[test]
    fn all_encodings_agree_on_feasibility() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        for enc in [
            EncodingConfig::bv(),
            EncodingConfig::int(),
            EncodingConfig::euf_int(),
            EncodingConfig::euf_bv(),
        ] {
            let config = SynthesisConfig {
                encoding: enc,
                swap_duration: 1,
                ..SynthesisConfig::default()
            };
            let mut model = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
            let s0 = model.swap_bound(0, 3);
            assert_eq!(model.solve(&[s0]), SolveResult::Unsat, "{enc:?}");
            let s1 = model.swap_bound(1, 3);
            assert_eq!(model.solve(&[s1]), SolveResult::Sat, "{enc:?}");
            let result = model.extract();
            assert_eq!(verify(&circuit, &graph, &result), Ok(()), "{enc:?}");
        }
    }

    #[test]
    fn baseline_style_agrees_with_olsq2() {
        use crate::model::ModelStyle;
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut baseline =
            FlatModel::build_with_style(&circuit, &graph, &config, 6, ModelStyle::OlsqBaseline)
                .expect("builds");
        let mut succinct = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
        // The baseline carries strictly more variables (the space vars).
        assert!(baseline.formula_size().0 > succinct.formula_size().0);
        // Both agree on swap feasibility bounds.
        for k in 0..3usize {
            let ab = baseline.swap_bound(k, 3);
            let sb = succinct.swap_bound(k, 3);
            let rb = baseline.solve(&[ab]);
            let rs = succinct.solve(&[sb]);
            assert_eq!(rb, rs, "k={k}");
            if rb == SolveResult::Sat {
                let res = baseline.extract();
                assert_eq!(verify(&circuit, &graph, &res), Ok(()));
            }
        }
    }

    #[test]
    fn seeded_variable_order_preserves_answers() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let mut config = SynthesisConfig::with_swap_duration(1);
        config.seed_variable_order = true;
        let mut seeded = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
        config.seed_variable_order = false;
        let mut plain = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
        for k in 0..3usize {
            let a = seeded.swap_bound(k, 3);
            let b = plain.swap_bound(k, 3);
            assert_eq!(seeded.solve(&[a]), plain.solve(&[b]), "k={k}");
        }
    }

    #[test]
    fn breakdown_accounts_for_the_whole_formula() {
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut model = FlatModel::build(&circuit, &graph, &config, 6).expect("builds");
        // Every build-time family is populated (clauses may be stored as
        // trail units, so compare vars exactly and clauses as an upper
        // bound: some clauses become root-level units or are simplified).
        for fam in [
            ConstraintFamily::Mapping,
            ConstraintFamily::Dependency,
            ConstraintFamily::Swap,
            ConstraintFamily::Scheduling,
            ConstraintFamily::Transition,
        ] {
            assert!(model.breakdown().get(fam).vars > 0 || model.breakdown().get(fam).clauses > 0);
        }
        assert_eq!(model.breakdown().total().vars, model.formula_size().0);
        assert_eq!(model.breakdown().total().clauses, model.formula_size().1);
        // Bound machinery lands in the cardinality family.
        let before = model.breakdown().get(ConstraintFamily::Cardinality);
        model.swap_bound(1, 3);
        model.depth_bound(4);
        let after = model.breakdown().get(ConstraintFamily::Cardinality);
        assert!(after.vars > before.vars);
        assert_eq!(model.breakdown().total().vars, model.formula_size().0);
    }

    #[test]
    fn rejects_structurally_bad_instances() {
        let graph = line(2);
        let mut big = Circuit::new(3);
        big.push(Gate::two(GateKind::Cx, 0, 2));
        let config = SynthesisConfig::default();
        assert!(matches!(
            FlatModel::build(&big, &graph, &config, 4),
            Err(ModelError::TooManyQubits { .. })
        ));
        assert!(matches!(
            FlatModel::build(&Circuit::new(2), &graph, &config, 4),
            Err(ModelError::EmptyCircuit)
        ));
    }

    #[test]
    fn swap_duration_three_spaces_out_swaps() {
        // One swap needed; with S_D=3 the earliest finish is t=2, so the
        // dependent gate lands at t≥3.
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::two(GateKind::Cx, 0, 1));
        circuit.push(Gate::two(GateKind::Cx, 1, 2));
        circuit.push(Gate::two(GateKind::Cx, 0, 2));
        let graph = line(3);
        let config = SynthesisConfig::with_swap_duration(3);
        let mut model = FlatModel::build(&circuit, &graph, &config, 10).expect("builds");
        assert_eq!(model.solve(&[]), SolveResult::Sat);
        let result = model.extract();
        assert_eq!(verify(&circuit, &graph, &result), Ok(()));
        assert!(result.swaps.iter().all(|s| s.finish_time >= 2));
    }
}
