//! Multi-source BFS as repeated square × tall-skinny boolean SpGEMM.
//!
//! "Many graph processing algorithms perform multiple breadth-first
//! searches in parallel … In linear algebraic terms, this corresponds
//! to multiplying a square sparse matrix with a tall skinny one"
//! (§5.5). The frontier `F` is `n × s`, one column per source: `(u, s)`
//! is stored iff `u` was reached from source `s` at the last level.
//! Vertex `v` is reached from `s` at the next level iff one of its
//! in-neighbours is in `s`'s frontier and `v` has not been reached from
//! `s` yet — over `(∨, ∧)`,
//!
//! ```text
//! F' = (Aᵀ · F)⟨U⟩
//! ```
//!
//! where row `v` of `Aᵀ` (the graph transposed once per call) lists
//! `v`'s in-neighbours and `U`, the unvisited set, is a dense `n × s`
//! bitmap of `⌈s/64⌉` words per vertex. A level is one
//! [`masked_pattern`] pass: an already visited `(v, s)` is rejected
//! before it reaches the accumulator, only the pattern is emitted, and
//! the pass's output *is* the next frontier. Recording the new pairs'
//! level and clearing their bits costs `O(nnz(F'))`.

use spgemm::{masked_pattern, Algorithm, OutputOrder};
use spgemm_obs as obs;
use spgemm_par::Pool;
use spgemm_sparse::{ops, ColIdx, Csr, SparseError, MAX_DIM};

/// Result of a multi-source BFS: `levels[v][s]` is the BFS level of
/// vertex `v` from source `s` (`u32::MAX` when unreachable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsLevels {
    /// Number of vertices.
    pub nverts: usize,
    /// Number of sources.
    pub nsources: usize,
    levels: Vec<u32>,
}

/// Marker for unreachable vertices.
pub const UNREACHED: u32 = u32::MAX;

impl BfsLevels {
    /// An all-[`UNREACHED`] table, or an error when the sources do not
    /// fit a frontier's columns or the table does not fit in memory.
    fn new(nverts: usize, nsources: usize) -> Result<Self, SparseError> {
        if nsources > MAX_DIM {
            return Err(SparseError::DimensionTooLarge { dim: nsources });
        }
        let too_large = || SparseError::Unsupported {
            what: format!("a level table of {nverts} vertices × {nsources} sources"),
        };
        let len = nverts.checked_mul(nsources).ok_or_else(too_large)?;
        let mut levels = Vec::new();
        levels.try_reserve_exact(len).map_err(|_| too_large())?;
        levels.resize(len, UNREACHED);
        Ok(BfsLevels {
            nverts,
            nsources,
            levels,
        })
    }

    /// Level of `vertex` from `source` (`UNREACHED` if not reached).
    #[inline]
    pub fn level(&self, vertex: usize, source: usize) -> u32 {
        self.levels[vertex * self.nsources + source]
    }

    #[inline]
    fn set(&mut self, vertex: usize, source: usize, level: u32) {
        self.levels[vertex * self.nsources + source] = level;
    }

    /// Vertices reached from `source` (including the source itself).
    pub fn reached_count(&self, source: usize) -> usize {
        (0..self.nverts)
            .filter(|&v| self.level(v, source) != UNREACHED)
            .count()
    }
}

/// The level-0 frontier: `n × s`, `(v, s)` stored for source `s` at
/// vertex `v` (a repeated vertex holds several sources).
fn initial_frontier(n: usize, sources: &[usize]) -> Result<Csr<bool>, SparseError> {
    let trips: Vec<_> = sources
        .iter()
        .enumerate()
        .map(|(s, &v)| (v, s as ColIdx, true))
        .collect();
    Csr::from_triplets(n, sources.len(), &trips)
}

/// Record `v`'s level from source `s` and clear `(v, s)` from the
/// unvisited set.
#[inline]
fn visit(levels: &mut BfsLevels, unvisited: &mut [u64], v: usize, s: usize, depth: u32) {
    levels.set(v, s, depth);
    let words = levels.nsources.div_ceil(64);
    unvisited[v * words + s / 64] &= !(1 << (s % 64));
}

/// Multi-source BFS by SpGEMM over the boolean semiring: one masked,
/// pattern-only product per level (module docs).
///
/// `graph` is interpreted as directed edges `u → v` for entry
/// `(u, v)`, whatever its stored value; pass a symmetric matrix for
/// undirected search.
///
/// The kernel argument is accepted and not consulted: over `(∨, ∧)`
/// the levels do not depend on the kernel, and every level runs the
/// mask-gated dense accumulator — for an `s`-column frontier, what
/// `Auto`'s footprint rule picks anyway.
pub fn multi_source_bfs(
    graph: &Csr<bool>,
    sources: &[usize],
    _algo: Algorithm,
    pool: &Pool,
) -> Result<BfsLevels, SparseError> {
    if graph.nrows() != graph.ncols() {
        return Err(SparseError::ShapeMismatch {
            left: graph.shape(),
            right: graph.shape(),
            op: "multi_source_bfs (square graph required)",
        });
    }
    let n = graph.nrows();
    for &s in sources {
        if s >= n {
            return Err(SparseError::ColumnOutOfBounds {
                row: s,
                col: s as u32,
                ncols: n,
            });
        }
    }
    let mut levels = BfsLevels::new(n, sources.len())?;
    let words = sources.len().div_ceil(64);
    let mut unvisited = vec![!0u64; n * words];
    let at = {
        let _g = obs::span!("bfs", "bfs.transpose");
        ops::transpose(graph)
    };
    let mut frontier = initial_frontier(n, sources)?;
    for (s, &v) in sources.iter().enumerate() {
        visit(&mut levels, &mut unvisited, v, s, 0);
    }
    let mut depth = 0u32;
    while frontier.nnz() > 0 {
        depth += 1;
        frontier = {
            let _g = obs::span!("bfs", "bfs.level");
            masked_pattern(&at, &frontier, &unvisited, OutputOrder::Unsorted, pool)?
        };
        let _g = obs::span!("bfs", "bfs.mark");
        for v in 0..n {
            for &s in frontier.row_cols(v) {
                visit(&mut levels, &mut unvisited, v, s as usize, depth);
            }
        }
    }
    Ok(levels)
}

/// Sequential reference BFS (queue-based), for tests.
pub fn sequential_bfs(graph: &Csr<bool>, source: usize) -> Vec<u32> {
    let n = graph.nrows();
    let mut level = vec![UNREACHED; n];
    let mut queue = std::collections::VecDeque::new();
    level[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in graph.row_cols(u) {
            let v = v as usize;
            if level[v] == UNREACHED {
                level[v] = level[u] + 1;
                queue.push_back(v);
            }
        }
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Csr<bool> {
        // 0 -> 1 -> 2 -> ... -> n-1
        let trips: Vec<(usize, ColIdx, bool)> =
            (0..n - 1).map(|i| (i, (i + 1) as ColIdx, true)).collect();
        Csr::from_triplets(n, n, &trips).unwrap()
    }

    #[test]
    fn path_levels() {
        let g = path_graph(6);
        let pool = Pool::new(2);
        let l = multi_source_bfs(&g, &[0, 3], Algorithm::Hash, &pool).unwrap();
        for v in 0..6 {
            assert_eq!(l.level(v, 0), v as u32, "from source 0");
        }
        for v in 0..3 {
            assert_eq!(l.level(v, 1), UNREACHED, "3 cannot reach backwards");
        }
        for v in 3..6 {
            assert_eq!(l.level(v, 1), (v - 3) as u32);
        }
    }

    #[test]
    fn matches_sequential_on_random_graph() {
        let a = spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::G500,
            8,
            8,
            &mut spgemm_gen::rng(77),
        );
        let g = a.map(|_| true);
        let sources = [0usize, 5, 100, 200];
        let pool = Pool::new(2);
        for algo in [Algorithm::Hash, Algorithm::HashVec, Algorithm::Heap] {
            let l = multi_source_bfs(&g, &sources, algo, &pool).unwrap();
            for (s, &src) in sources.iter().enumerate() {
                let seq = sequential_bfs(&g, src);
                for (v, &lvl) in seq.iter().enumerate() {
                    assert_eq!(l.level(v, s), lvl, "{algo} src {src} vertex {v}");
                }
            }
        }
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        // two disjoint edges: 0->1, 2->3
        let g = Csr::from_triplets(4, 4, &[(0, 1, true), (2, 3, true)]).unwrap();
        let pool = Pool::new(1);
        let l = multi_source_bfs(&g, &[0], Algorithm::Hash, &pool).unwrap();
        assert_eq!(l.level(1, 0), 1);
        assert_eq!(l.level(2, 0), UNREACHED);
        assert_eq!(l.level(3, 0), UNREACHED);
        assert_eq!(l.reached_count(0), 2);
    }

    #[test]
    fn self_loop_terminates() {
        let g = Csr::from_triplets(2, 2, &[(0, 0, true), (0, 1, true)]).unwrap();
        let pool = Pool::new(1);
        let l = multi_source_bfs(&g, &[0], Algorithm::Hash, &pool).unwrap();
        assert_eq!(l.level(0, 0), 0);
        assert_eq!(l.level(1, 0), 1);
    }

    #[test]
    fn oversized_level_tables_are_errors() {
        // vertices × sources overflows
        assert!(BfsLevels::new(usize::MAX / 2, 3).is_err());
        // more sources than a frontier has column indices
        let too_many = BfsLevels::new(1, MAX_DIM + 1);
        assert!(matches!(
            too_many,
            Err(SparseError::DimensionTooLarge { .. })
        ));
        // 2⁶² levels: past what an allocation can ask for
        assert!(BfsLevels::new(1 << 40, 1 << 22).is_err());
        assert_eq!(BfsLevels::new(0, MAX_DIM).unwrap().nsources, MAX_DIM);
    }

    #[test]
    fn bad_source_rejected() {
        let g = path_graph(3);
        let pool = Pool::new(1);
        assert!(multi_source_bfs(&g, &[9], Algorithm::Hash, &pool).is_err());
    }
}
