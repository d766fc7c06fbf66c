//! The coupling graph: physical qubits and their couplers.

use std::fmt;

/// Errors from [`CouplingGraph::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildGraphError {
    /// An edge references a qubit index ≥ the qubit count.
    QubitOutOfRange {
        /// The offending edge.
        edge: (u16, u16),
        /// The declared qubit count.
        num_qubits: usize,
    },
    /// An edge connects a qubit to itself.
    SelfLoop(u16),
    /// The graph has no qubits.
    Empty,
}

impl fmt::Display for BuildGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildGraphError::QubitOutOfRange { edge, num_qubits } => write!(
                f,
                "edge ({}, {}) references a qubit outside 0..{num_qubits}",
                edge.0, edge.1
            ),
            BuildGraphError::SelfLoop(q) => write!(f, "self-loop on qubit {q}"),
            BuildGraphError::Empty => write!(f, "coupling graph must have at least one qubit"),
        }
    }
}

impl std::error::Error for BuildGraphError {}

/// A quantum processor's coupling graph `(P, E)`: vertices are physical
/// qubits, edges are two-qubit couplers (§II-A of the paper).
///
/// Edges are normalized (`p < p'`), deduplicated, and indexed; all-pairs
/// BFS distances are precomputed at construction.
///
/// # Examples
///
/// ```
/// use olsq2_arch::CouplingGraph;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = CouplingGraph::new("triangle", 3, vec![(0, 1), (1, 2), (2, 0)])?;
/// assert_eq!(g.num_qubits(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert!(g.is_adjacent(0, 2));
/// assert_eq!(g.distance(0, 2), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingGraph {
    name: String,
    num_qubits: usize,
    edges: Vec<(u16, u16)>,
    adjacency: Vec<Vec<u16>>,
    /// Edge index by (min, max) pair; linear scan is fine for device sizes,
    /// but a dense matrix is faster and small: index = p * n + p'.
    edge_index: Vec<Option<u32>>,
    /// All-pairs BFS distances; `u16::MAX` marks unreachable pairs.
    distances: Vec<u16>,
}

impl CouplingGraph {
    /// Builds a coupling graph from an edge list.
    ///
    /// Edges are normalized and deduplicated; the edge order of the result
    /// is the normalized-sorted order (stable across runs, used by the SWAP
    /// variables σ_e).
    ///
    /// # Errors
    ///
    /// Returns [`BuildGraphError`] on self-loops, out-of-range indices, or
    /// an empty vertex set.
    pub fn new(
        name: impl Into<String>,
        num_qubits: usize,
        edges: Vec<(u16, u16)>,
    ) -> Result<CouplingGraph, BuildGraphError> {
        if num_qubits == 0 {
            return Err(BuildGraphError::Empty);
        }
        let mut normalized = Vec::with_capacity(edges.len());
        for (a, b) in edges {
            if a as usize >= num_qubits || b as usize >= num_qubits {
                return Err(BuildGraphError::QubitOutOfRange {
                    edge: (a, b),
                    num_qubits,
                });
            }
            if a == b {
                return Err(BuildGraphError::SelfLoop(a));
            }
            normalized.push((a.min(b), a.max(b)));
        }
        normalized.sort_unstable();
        normalized.dedup();

        let mut adjacency = vec![Vec::new(); num_qubits];
        let mut edge_index = vec![None; num_qubits * num_qubits];
        for (i, &(a, b)) in normalized.iter().enumerate() {
            adjacency[a as usize].push(b);
            adjacency[b as usize].push(a);
            edge_index[a as usize * num_qubits + b as usize] = Some(i as u32);
            edge_index[b as usize * num_qubits + a as usize] = Some(i as u32);
        }
        for adj in &mut adjacency {
            adj.sort_unstable();
        }

        let distances = all_pairs_bfs(num_qubits, &adjacency);
        Ok(CouplingGraph {
            name: name.into(),
            num_qubits,
            edges: normalized,
            adjacency,
            edge_index,
            distances,
        })
    }

    /// Human-readable device name (e.g. `"sycamore54"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits `|P|`.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of couplers `|E|`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The normalized edge list, sorted; index `i` is SWAP variable edge `i`.
    pub fn edges(&self) -> &[(u16, u16)] {
        &self.edges
    }

    /// The endpoints of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e ≥ num_edges()`.
    pub fn edge(&self, e: usize) -> (u16, u16) {
        self.edges[e]
    }

    /// Neighbors of physical qubit `p`, sorted.
    pub fn neighbors(&self, p: u16) -> &[u16] {
        &self.adjacency[p as usize]
    }

    /// Whether `p` and `q` share a coupler.
    pub fn is_adjacent(&self, p: u16, q: u16) -> bool {
        self.edge_between(p, q).is_some()
    }

    /// The index of the edge between `p` and `q`, if any.
    pub fn edge_between(&self, p: u16, q: u16) -> Option<usize> {
        self.edge_index[p as usize * self.num_qubits + q as usize].map(|i| i as usize)
    }

    /// BFS hop distance between `p` and `q` (`None` if disconnected).
    pub fn distance(&self, p: u16, q: u16) -> Option<u16> {
        let d = self.distances[p as usize * self.num_qubits + q as usize];
        (d != u16::MAX).then_some(d)
    }

    /// Whether every qubit can reach every other.
    pub fn is_connected(&self) -> bool {
        self.distances.iter().all(|&d| d != u16::MAX)
    }

    /// Longest shortest path (`None` if disconnected).
    pub fn diameter(&self) -> Option<u16> {
        if !self.is_connected() {
            return None;
        }
        self.distances.iter().copied().max()
    }

    /// Maximum vertex degree.
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// All edge indices incident to physical qubit `p` (the set `E_p` used
    /// by the SWAP-overlap constraints, Eq. 2–3 of the paper).
    pub fn edges_at(&self, p: u16) -> Vec<usize> {
        self.adjacency[p as usize]
            .iter()
            .map(|&q| self.edge_between(p, q).expect("adjacency implies edge"))
            .collect()
    }

    /// BFS distances from `p` to every qubit, indexed by qubit.
    fn distances_from(&self, p: u16) -> &[u16] {
        let row = p as usize * self.num_qubits;
        &self.distances[row..row + self.num_qubits]
    }

    /// A center of the graph: a qubit of least eccentricity (its distance
    /// to the farthest qubit), ties going to the lowest index.
    pub fn center(&self) -> u16 {
        (0..self.num_qubits as u16)
            .min_by_key(|&p| self.distances_from(p).iter().max())
            .expect("a coupling graph has qubits")
    }

    /// The ball of `size` qubits around [`CouplingGraph::center`]: the
    /// qubits taken in (distance from the center, index) order and the
    /// subgraph they induce. Every taken qubit at distance `d > 0` has a
    /// neighbor at `d − 1`, taken before it, so on a connected graph the
    /// ball is connected. `size` is clamped to `1..=num_qubits()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use olsq2_arch::grid;
    /// let ball = grid(3, 3).ball(5);
    /// assert_eq!(ball.nodes(), &[4, 1, 3, 5, 7]); // the center, then its neighbors
    /// assert_eq!(ball.graph().num_edges(), 4);
    /// assert!(ball.graph().is_connected());
    /// ```
    pub fn ball(&self, size: usize) -> SubGraph {
        let from_center = self.distances_from(self.center());
        let mut nodes: Vec<u16> = (0..self.num_qubits as u16).collect();
        nodes.sort_unstable_by_key(|&p| (from_center[p as usize], p));
        nodes.truncate(size.clamp(1, self.num_qubits));
        let mut local = vec![None; self.num_qubits];
        for (i, &p) in nodes.iter().enumerate() {
            local[p as usize] = Some(i as u16);
        }
        let edges = self
            .edges
            .iter()
            .filter_map(|&(a, b)| Some((local[a as usize]?, local[b as usize]?)))
            .collect();
        let graph = CouplingGraph::new(
            format!("{}-ball{}", self.name, nodes.len()),
            nodes.len(),
            edges,
        )
        .expect("an induced subgraph is a valid coupling graph");
        SubGraph { graph, nodes }
    }
}

/// A subgraph of a device together with its node map: qubit `i` of
/// [`SubGraph::graph`] is device qubit [`SubGraph::nodes`]`()[i]`. Built
/// by [`CouplingGraph::ball`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubGraph {
    graph: CouplingGraph,
    nodes: Vec<u16>,
}

impl SubGraph {
    /// The subgraph, its qubits numbered `0..nodes().len()`.
    pub fn graph(&self) -> &CouplingGraph {
        &self.graph
    }

    /// The node map: `nodes()[i]` is the device qubit that qubit `i` of
    /// [`SubGraph::graph`] stands for.
    pub fn nodes(&self) -> &[u16] {
        &self.nodes
    }
}

impl fmt::Display for CouplingGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, {} edges)",
            self.name,
            self.num_qubits,
            self.edges.len()
        )
    }
}

fn all_pairs_bfs(n: usize, adjacency: &[Vec<u16>]) -> Vec<u16> {
    let mut dist = vec![u16::MAX; n * n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        let row = start * n;
        dist[row + start] = 0;
        queue.clear();
        queue.push_back(start as u16);
        while let Some(p) = queue.pop_front() {
            let d = dist[row + p as usize];
            for &q in &adjacency[p as usize] {
                if dist[row + q as usize] == u16::MAX {
                    dist[row + q as usize] = d + 1;
                    queue.push_back(q);
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_graph_distances() {
        let g = CouplingGraph::new("path", 4, vec![(0, 1), (1, 2), (2, 3)]).expect("valid");
        assert_eq!(g.distance(0, 3), Some(3));
        assert_eq!(g.distance(3, 0), Some(3));
        assert_eq!(g.distance(1, 1), Some(0));
        assert_eq!(g.diameter(), Some(3));
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn disconnected_graph() {
        let g = CouplingGraph::new("two islands", 4, vec![(0, 1), (2, 3)]).expect("valid");
        assert!(!g.is_connected());
        assert_eq!(g.distance(0, 2), None);
        assert_eq!(g.diameter(), None);
    }

    #[test]
    fn edges_normalized_and_deduped() {
        let g = CouplingGraph::new("dup", 3, vec![(1, 0), (0, 1), (2, 1)]).expect("valid");
        assert_eq!(g.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(g.edge_between(1, 0), Some(0));
        assert_eq!(g.edge_between(0, 2), None);
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(matches!(
            CouplingGraph::new("bad", 2, vec![(0, 2)]),
            Err(BuildGraphError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            CouplingGraph::new("loop", 2, vec![(1, 1)]),
            Err(BuildGraphError::SelfLoop(1))
        ));
        assert!(matches!(
            CouplingGraph::new("empty", 0, vec![]),
            Err(BuildGraphError::Empty)
        ));
    }

    #[test]
    fn edges_at_returns_incident_edges() {
        let g = CouplingGraph::new("star", 4, vec![(0, 1), (0, 2), (0, 3)]).expect("valid");
        assert_eq!(g.edges_at(0), vec![0, 1, 2]);
        assert_eq!(g.edges_at(2), vec![1]);
    }

    #[test]
    fn center_has_least_eccentricity_and_lowest_index() {
        assert_eq!(crate::line(5).center(), 2);
        assert_eq!(crate::grid(3, 3).center(), 4);
        // An even line has two centers; the lower index wins.
        assert_eq!(crate::line(4).center(), 1);
    }

    #[test]
    fn ball_takes_qubits_in_distance_then_index_order() {
        let line = crate::line(5);
        assert_eq!(line.ball(1).nodes(), &[2]);
        assert_eq!(line.ball(3).nodes(), &[2, 1, 3]);
        assert_eq!(line.ball(4).nodes(), &[2, 1, 3, 0]);
        // Sizes clamp to the device.
        assert_eq!(line.ball(0).nodes(), &[2]);
        assert_eq!(line.ball(9).nodes(), &[2, 1, 3, 0, 4]);
        let grid = crate::grid(3, 3);
        assert_eq!(grid.ball(6).nodes(), &[4, 1, 3, 5, 7, 0]);
    }

    /// On every size of a real device the ball has the requested size, is
    /// connected, holds exactly the device edges between its qubits (mapped
    /// through the node map), and comes out the same on every call.
    #[test]
    fn ball_is_the_connected_induced_subgraph() {
        for device in [crate::sycamore54(), crate::aspen4(), crate::grid(4, 3)] {
            let n = device.num_qubits();
            for size in 1..=n {
                let ball = device.ball(size);
                let (sub, nodes) = (ball.graph(), ball.nodes());
                assert_eq!(sub.num_qubits(), size);
                assert_eq!(nodes.len(), size);
                assert!(sub.is_connected(), "{} ball {size}", device.name());
                let mut distinct = nodes.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), size, "node map is injective");
                for i in 0..size as u16 {
                    for j in 0..size as u16 {
                        let (p, q) = (nodes[i as usize], nodes[j as usize]);
                        assert_eq!(sub.is_adjacent(i, j), device.is_adjacent(p, q));
                    }
                }
                let induced = device
                    .edges()
                    .iter()
                    .filter(|&&(a, b)| nodes.contains(&a) && nodes.contains(&b))
                    .count();
                assert_eq!(sub.num_edges(), induced);
                assert_eq!(device.ball(size), ball, "ball choice is deterministic");
            }
        }
    }
}
