//! The canonicalizing result cache.
//!
//! Production synthesis workloads repeat themselves: the same arithmetic
//! blocks, the same QAOA layers, the same benchmark circuits re-submitted
//! under fresh qubit namings. Layout synthesis is invariant under a
//! relabeling of *program* qubits — if `σ` permutes program qubits, a
//! solution for `σ(C)` is a solution for `C` with the initial mapping
//! composed with `σ` (schedules are per-gate and SWAPs live in physical
//! space, so both carry over unchanged). The cache exploits this: requests
//! are keyed by a canonical form of the circuit (qubits relabeled by first
//! appearance in the gate list) together with the device edge list and the
//! result-relevant configuration, so any two requests that differ only by
//! a qubit relabeling share one cache entry.
//!
//! Only *deterministic* results are cached: entries must be proven optimal
//! and not deadline-degraded, so a hit is exactly what a fresh solve would
//! return.

use crate::request::Objective;
use olsq2::SynthesisConfig;
use olsq2_arch::CouplingGraph;
use olsq2_circuit::{Circuit, Operands};
use olsq2_layout::LayoutResult;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

/// The canonical form of a request: a relabeling of the circuit plus the
/// exact cache key it produces.
#[derive(Debug, Clone)]
pub struct CanonicalRequest {
    /// `relabel[q]` is the canonical label of program qubit `q`.
    pub relabel: Vec<u16>,
    /// The full structural key (canonical circuit, device, config).
    pub key: CacheKey,
}

/// A structural cache key. Two requests produce equal keys iff their
/// circuits are identical up to program-qubit relabeling *and* they target
/// the same device with a result-equivalent configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    words: Vec<u64>,
}

impl CacheKey {
    /// The structural hash of this key (stable within a process run).
    pub fn structural_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.words.hash(&mut h);
        h.finish()
    }
}

/// Relabels program qubits by first appearance in the gate list; qubits
/// never touched by a gate keep their relative order after all touched
/// ones. This is a complete invariant for the gate-list structure: two
/// circuits get the same canonical gate list iff one is a qubit
/// relabeling of the other (gate order is preserved, so this is
/// relabeling-invariance, not graph isomorphism).
pub fn canonical_relabeling(circuit: &Circuit) -> Vec<u16> {
    let n = circuit.num_qubits();
    let mut relabel: Vec<Option<u16>> = vec![None; n];
    let mut next: u16 = 0;
    for gate in circuit.gates() {
        for q in gate.operands.qubits() {
            if relabel[q as usize].is_none() {
                relabel[q as usize] = Some(next);
                next += 1;
            }
        }
    }
    for slot in relabel.iter_mut() {
        if slot.is_none() {
            *slot = Some(next);
            next += 1;
        }
    }
    relabel.into_iter().map(|s| s.expect("assigned")).collect()
}

fn push_config(words: &mut Vec<u64>, config: &SynthesisConfig, objective: Objective) {
    // Only fields that influence the *final result* of a deterministic run
    // participate; budgets and reporting hooks do not (cached entries are
    // proven-optimal, see the module docs).
    let mut h = DefaultHasher::new();
    config.encoding.hash(&mut h);
    words.push(h.finish());
    words.push(config.swap_duration as u64);
    words.push(config.tub_factor.to_bits());
    words.push(match config.pareto_relax_limit {
        None => u64::MAX,
        Some(k) => k as u64,
    });
    words.push(config.commutation_aware as u64);
    words.push(match objective {
        Objective::Depth => 0,
        Objective::Swaps => 1,
        Objective::TransitionSwaps => 2,
    });
}

/// Computes the canonical form of a request.
pub fn canonicalize(
    circuit: &Circuit,
    device: &CouplingGraph,
    config: &SynthesisConfig,
    objective: Objective,
) -> CanonicalRequest {
    let relabel = canonical_relabeling(circuit);
    let mut words: Vec<u64> = Vec::with_capacity(circuit.num_gates() * 2 + 16);
    words.push(circuit.num_qubits() as u64);
    for gate in circuit.gates() {
        let mut h = DefaultHasher::new();
        gate.kind.name().hash(&mut h);
        for p in gate.kind.params() {
            p.to_bits().hash(&mut h);
        }
        words.push(h.finish());
        words.push(match gate.operands {
            Operands::One(q) => relabel[q as usize] as u64 | (1 << 32),
            Operands::Two(a, b) => {
                (relabel[a as usize] as u64) | ((relabel[b as usize] as u64) << 16) | (2 << 32)
            }
        });
    }
    // Device: qubit count plus the normalized edge list.
    words.push(device.num_qubits() as u64);
    for &(a, b) in device.edges() {
        words.push((a as u64) << 16 | b as u64);
    }
    push_config(&mut words, config, objective);
    CanonicalRequest {
        relabel,
        key: CacheKey { words },
    }
}

/// Translates a cached result (stored in canonical qubit space) back into
/// the request's qubit naming.
///
/// The canonical circuit is `circuit.permute_qubits(relabel)` — same gate
/// order, so the per-gate schedule aligns index-for-index; SWAPs are in
/// physical space and carry over; only the initial mapping needs
/// re-indexing: request qubit `q` is canonical qubit `relabel[q]`.
pub fn translate_hit(canonical: &LayoutResult, relabel: &[u16]) -> LayoutResult {
    let mut result = canonical.clone();
    result.initial_mapping = relabel
        .iter()
        .map(|&c| canonical.initial_mapping[c as usize])
        .collect();
    result
}

/// Hit/miss counters of a [`ResultCache`]. In a service, each request
/// that reaches an answer or a solve counts once: a hit when it is
/// answered without a solve (from the cache, or from the in-flight solve
/// of a duplicate), a miss when it solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered without a solve.
    pub hits: u64,
    /// Requests that solved.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// An entry as stored in the cache: the result in canonical qubit space
/// plus the solve metadata worth replaying.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Layout in canonical qubit space.
    pub result: LayoutResult,
    /// Whether optimality was proven (always true for stored entries).
    pub proven_optimal: bool,
}

struct Entry {
    value: CachedResult,
    stamp: u64,
}

/// A bounded LRU cache of synthesis results keyed by [`CacheKey`].
///
/// Not internally synchronized — the service wraps it in a mutex. Lookups
/// refresh recency; inserts evict the least-recently-used entry once the
/// capacity is reached.
pub struct ResultCache {
    capacity: usize,
    map: HashMap<CacheKey, Entry>,
    // stamp → key, for O(log n) LRU eviction. Stamps are unique (monotone
    // counter), so this is a faithful recency order.
    recency: BTreeMap<u64, CacheKey>,
    clock: u64,
    stats: CacheStats,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .field("len", &self.map.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            recency: BTreeMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn touch(
        entry: &mut Entry,
        recency: &mut BTreeMap<u64, CacheKey>,
        clock: &mut u64,
        key: &CacheKey,
    ) {
        recency.remove(&entry.stamp);
        *clock += 1;
        entry.stamp = *clock;
        recency.insert(*clock, key.clone());
    }

    /// Looks up a key, refreshing its recency on a hit. A lookup counts
    /// nothing: the service counts a request once, when it knows how the
    /// request was answered (see [`ResultCache::record`]).
    pub fn lookup(&mut self, key: &CacheKey) -> Option<CachedResult> {
        let entry = self.map.get_mut(key)?;
        Self::touch(entry, &mut self.recency, &mut self.clock, key);
        Some(entry.value.clone())
    }

    /// Counts one request as a hit (answered without a solve) or a miss.
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }

    /// Inserts (or replaces) an entry, evicting the least recently used
    /// one if at capacity.
    pub fn insert(&mut self, key: CacheKey, value: CachedResult) {
        if let Some(entry) = self.map.get_mut(&key) {
            Self::touch(entry, &mut self.recency, &mut self.clock, &key);
            entry.value = value;
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some((&oldest, _)) = self.recency.iter().next() {
                let victim = self.recency.remove(&oldest).expect("present");
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.clock += 1;
        self.recency.insert(self.clock, key.clone());
        self.map.insert(
            key,
            Entry {
                value,
                stamp: self.clock,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olsq2_circuit::{Gate, GateKind};

    fn cx_chain(pairs: &[(u16, u16)], n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for &(a, b) in pairs {
            c.push(Gate::two(GateKind::Cx, a, b));
        }
        c
    }

    fn dummy_result(mapping: Vec<u16>) -> CachedResult {
        CachedResult {
            result: LayoutResult {
                initial_mapping: mapping,
                schedule: vec![0],
                swaps: vec![],
                depth: 1,
                swap_duration: 1,
            },
            proven_optimal: true,
        }
    }

    #[test]
    fn relabeled_circuits_share_a_key() {
        let device = olsq2_arch::line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        let a = cx_chain(&[(0, 1), (1, 2)], 3);
        // The same structure under the relabeling 0→2, 1→0, 2→1.
        let b = cx_chain(&[(2, 0), (0, 1)], 3);
        let ca = canonicalize(&a, &device, &config, Objective::Depth);
        let cb = canonicalize(&b, &device, &config, Objective::Depth);
        assert_eq!(ca.key, cb.key);
        assert_eq!(ca.key.structural_hash(), cb.key.structural_hash());
        // But a structurally different circuit does not collide.
        let c = cx_chain(&[(0, 1), (0, 2)], 3);
        let cc = canonicalize(&c, &device, &config, Objective::Depth);
        assert_ne!(ca.key, cc.key);
    }

    #[test]
    fn gate_params_distinguish_keys() {
        let device = olsq2_arch::line(2);
        let config = SynthesisConfig::with_swap_duration(1);
        let mut a = Circuit::new(2);
        a.push(Gate::one(GateKind::Rz(0.5), 0));
        a.push(Gate::two(GateKind::Cx, 0, 1));
        let mut b = Circuit::new(2);
        b.push(Gate::one(GateKind::Rz(0.25), 0));
        b.push(Gate::two(GateKind::Cx, 0, 1));
        let ka = canonicalize(&a, &device, &config, Objective::Depth).key;
        let kb = canonicalize(&b, &device, &config, Objective::Depth).key;
        assert_ne!(ka, kb);
    }

    #[test]
    fn differing_configs_bypass_each_other() {
        let device = olsq2_arch::line(3);
        let circuit = cx_chain(&[(0, 1), (1, 2)], 3);
        let c1 = SynthesisConfig::with_swap_duration(1);
        let mut c3 = SynthesisConfig::with_swap_duration(3);
        let k1 = canonicalize(&circuit, &device, &c1, Objective::Depth).key;
        let k3 = canonicalize(&circuit, &device, &c3, Objective::Depth).key;
        assert_ne!(k1, k3, "swap duration is result-relevant");
        c3.swap_duration = 1;
        c3.commutation_aware = true;
        let kc = canonicalize(&circuit, &device, &c3, Objective::Depth).key;
        assert_ne!(k1, kc, "commutation-awareness is result-relevant");
        let kd = canonicalize(&circuit, &device, &c1, Objective::Swaps).key;
        assert_ne!(k1, kd, "objective is part of the key");
        // Budget-only differences do NOT split the key.
        let mut budgeted = c1.clone();
        budgeted.time_budget = Some(std::time::Duration::from_secs(5));
        budgeted.conflict_budget = Some(1_000_000);
        let kb = canonicalize(&circuit, &device, &budgeted, Objective::Depth).key;
        assert_eq!(k1, kb, "budgets must not fragment the cache");
    }

    #[test]
    fn differing_devices_bypass_each_other() {
        let circuit = cx_chain(&[(0, 1), (1, 2)], 3);
        let config = SynthesisConfig::with_swap_duration(1);
        let ka = canonicalize(&circuit, &olsq2_arch::line(3), &config, Objective::Depth).key;
        let kb = canonicalize(&circuit, &olsq2_arch::line(4), &config, Objective::Depth).key;
        assert_ne!(ka, kb);
    }

    #[test]
    fn hit_translation_composes_the_relabeling() {
        let device = olsq2_arch::line(3);
        let config = SynthesisConfig::with_swap_duration(1);
        // Canonical form of `b` relabels 2→0, 0→1, 1→2 (first appearance).
        let b = cx_chain(&[(2, 0), (0, 1)], 3);
        let cb = canonicalize(&b, &device, &config, Objective::Depth);
        assert_eq!(cb.relabel, vec![1, 2, 0]);
        // Suppose the canonical solve mapped canonical qubit c → physical
        // `canon_mapping[c]`.
        let canon = dummy_result(vec![10, 11, 12]).result;
        let translated = translate_hit(&canon, &cb.relabel);
        // Request qubit 0 is canonical qubit 1 → physical 11, etc.
        assert_eq!(translated.initial_mapping, vec![11, 12, 10]);
        assert_eq!(translated.schedule, canon.schedule);
        assert_eq!(translated.swaps, canon.swaps);
        assert_eq!(translated.depth, canon.depth);
    }

    #[test]
    fn lru_evicts_in_recency_order() {
        let device = olsq2_arch::line(4);
        let config = SynthesisConfig::with_swap_duration(1);
        // Chains of different length — single gates like `cx 0,1` and
        // `cx 2,3` would canonicalize to the SAME key (that is the point
        // of the cache), so distinct keys need distinct structure.
        let chains: [&[(u16, u16)]; 3] = [&[(0, 1)], &[(0, 1), (1, 2)], &[(0, 1), (1, 2), (2, 3)]];
        let keys: Vec<CacheKey> = chains
            .iter()
            .map(|pairs| {
                let c = cx_chain(pairs, 4);
                canonicalize(&c, &device, &config, Objective::Depth).key
            })
            .collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[1], keys[2]);
        let mut cache = ResultCache::new(2);
        cache.insert(keys[0].clone(), dummy_result(vec![0, 1, 2, 3]));
        cache.insert(keys[1].clone(), dummy_result(vec![1, 0, 2, 3]));
        // Refresh key 0, then insert key 2: key 1 must be the victim.
        assert!(cache.lookup(&keys[0]).is_some());
        cache.insert(keys[2].clone(), dummy_result(vec![2, 1, 0, 3]));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&keys[0]).is_some(), "refreshed entry survives");
        assert!(cache.lookup(&keys[1]).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&keys[2]).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!((stats.hits, stats.misses), (0, 0), "lookups count nothing");
        cache.record(true);
        cache.record(false);
        cache.record(true);
        assert_eq!((cache.stats().hits, cache.stats().misses), (2, 1));
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let device = olsq2_arch::line(2);
        let config = SynthesisConfig::with_swap_duration(1);
        let key = canonicalize(&cx_chain(&[(0, 1)], 2), &device, &config, Objective::Depth).key;
        let mut cache = ResultCache::new(1);
        cache.insert(key.clone(), dummy_result(vec![0, 1]));
        cache.insert(key.clone(), dummy_result(vec![1, 0]));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(
            cache.lookup(&key).unwrap().result.initial_mapping,
            vec![1, 0]
        );
    }

    #[test]
    fn untouched_qubits_keep_relative_order() {
        // Qubits 1 and 3 appear in no gate; they take labels after the
        // touched ones, in index order.
        let c = cx_chain(&[(2, 0)], 4);
        assert_eq!(canonical_relabeling(&c), vec![1, 2, 0, 3]);
    }
}
