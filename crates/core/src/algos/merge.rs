//! Iterative sorted-row-merging SpGEMM — the MKL stand-in for sorted
//! comparisons (two phases, sorted inputs, sorted output).
//!
//! The row computation follows the iterative row-merging scheme of
//! Gremse et al. (and ViennaCL, §2 of the paper): the `nnz(a_i*)`
//! scaled rows of `B` are merged pairwise, round by round (like merge
//! sort on lists), combining duplicate columns as they meet. Each
//! round is `O(flop)`, with `⌈log₂ nnz(a_i*)⌉` rounds. Thread scratch
//! is two flop-bound ping-pong buffers — allocated per thread inside
//! the region, per the paper's "parallel" memory scheme.

use crate::exec::{AccumReq, RowAccumulator};
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// Per-thread merge state: ping/pong buffers and segment boundaries.
pub struct MergeAccumulator<S: Semiring> {
    ping: Vec<(ColIdx, S::Elem)>,
    pong: Vec<(ColIdx, S::Elem)>,
    segs: Vec<usize>,
    segs_next: Vec<usize>,
}

impl<S: Semiring> MergeAccumulator<S> {
    /// Accumulator with flop-bound scratch capacity.
    pub fn new(max_row_flop: usize) -> Self {
        MergeAccumulator {
            ping: Vec::with_capacity(max_row_flop),
            pong: Vec::with_capacity(max_row_flop),
            segs: Vec::new(),
            segs_next: Vec::new(),
        }
    }

    /// Merge the scaled B-rows selected by row `i` of `A`; afterwards
    /// `self.ping` holds the combined row (ascending, deduplicated).
    fn merge_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) {
        // Load phase: one segment per (non-empty) scaled B-row.
        self.ping.clear();
        self.segs.clear();
        self.segs.push(0);
        for (&k, &aval) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            let kr = k as usize;
            let r = b.row_range(kr);
            if r.is_empty() {
                continue;
            }
            self.ping.extend(
                b.cols()[r.clone()]
                    .iter()
                    .zip(&b.vals()[r])
                    .map(|(&c, &v)| (c, S::mul(aval, v))),
            );
            self.segs.push(self.ping.len());
        }
        // Merge rounds: pairwise-merge adjacent segments until one.
        while self.segs.len() > 2 {
            self.pong.clear();
            self.segs_next.clear();
            self.segs_next.push(0);
            let mut s = 0;
            while s + 2 < self.segs.len() {
                let (a0, a1, a2) = (self.segs[s], self.segs[s + 1], self.segs[s + 2]);
                merge_two::<S>(&self.ping[a0..a1], &self.ping[a1..a2], &mut self.pong);
                self.segs_next.push(self.pong.len());
                s += 2;
            }
            if s + 1 < self.segs.len() {
                // odd segment carried to the next round
                self.pong
                    .extend_from_slice(&self.ping[self.segs[s]..self.segs[s + 1]]);
                self.segs_next.push(self.pong.len());
            }
            std::mem::swap(&mut self.ping, &mut self.pong);
            std::mem::swap(&mut self.segs, &mut self.segs_next);
        }
    }
}

/// Merge two ascending runs, combining equal columns with `S::add`.
fn merge_two<S: Semiring>(
    x: &[(ColIdx, S::Elem)],
    y: &[(ColIdx, S::Elem)],
    out: &mut Vec<(ColIdx, S::Elem)>,
) {
    let (mut p, mut q) = (0usize, 0usize);
    while p < x.len() && q < y.len() {
        use std::cmp::Ordering::*;
        match x[p].0.cmp(&y[q].0) {
            Less => {
                out.push(x[p]);
                p += 1;
            }
            Greater => {
                out.push(y[q]);
                q += 1;
            }
            Equal => {
                out.push((x[p].0, S::add(x[p].1, y[q].1)));
                p += 1;
                q += 1;
            }
        }
    }
    out.extend_from_slice(&x[p..]);
    out.extend_from_slice(&y[q..]);
}

impl<S: Semiring> RowAccumulator<S> for MergeAccumulator<S> {
    type Shared = ();

    fn build(req: &AccumReq, _: &()) -> Self {
        Self::new(req.max_row_flop)
    }

    fn ensure(&mut self, req: &AccumReq) {
        // The ping/pong buffers grow on demand (`Vec::extend`), so
        // reuse is always *correct*; reserving up front just keeps the
        // steady state allocation-free.
        if self.ping.capacity() < req.max_row_flop {
            self.ping.reserve(req.max_row_flop - self.ping.len());
        }
        if self.pong.capacity() < req.max_row_flop {
            self.pong.reserve(req.max_row_flop - self.pong.len());
        }
    }

    fn scrub(&mut self) {
        self.ping.clear();
        self.pong.clear();
        self.segs.clear();
        self.segs_next.clear();
    }

    fn symbolic_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) -> usize {
        // Symbolic = the same merge (values along for the ride keeps
        // one code path; MKL's symbolic phase is likewise a full
        // structural pass).
        self.merge_row(a, b, i);
        self.ping.len()
    }

    fn numeric_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        _sorted: bool,
    ) {
        self.merge_row(a, b, i);
        debug_assert_eq!(cols.len(), self.ping.len());
        for (idx, &(c, v)) in self.ping.iter().enumerate() {
            cols[idx] = c;
            vals[idx] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::reference;
    use crate::{multiply_in, Algorithm, OutputOrder};
    use spgemm_par::Pool;
    use spgemm_sparse::{approx_eq_f64, PlusTimes};

    type P = PlusTimes<f64>;

    fn multiply<S: Semiring>(a: &Csr<S::Elem>, b: &Csr<S::Elem>, pool: &Pool) -> Csr<S::Elem> {
        multiply_in::<S>(a, b, Algorithm::Merge, OutputOrder::Sorted, pool).unwrap()
    }

    #[test]
    fn merge_two_combines_duplicates() {
        let x = vec![(1u32, 1.0), (5, 2.0)];
        let y = vec![(0u32, 3.0), (5, 4.0), (9, 5.0)];
        let mut out = Vec::new();
        merge_two::<P>(&x, &y, &mut out);
        assert_eq!(out, vec![(0, 3.0), (1, 1.0), (5, 6.0), (9, 5.0)]);
    }

    #[test]
    fn merge_two_empty_cases() {
        let mut out = Vec::new();
        merge_two::<P>(&[], &[], &mut out);
        assert!(out.is_empty());
        merge_two::<P>(&[(2, 1.0)], &[], &mut out);
        assert_eq!(out, vec![(2, 1.0)]);
    }

    fn check(a: &Csr<f64>, b: &Csr<f64>) {
        let expect = reference::multiply::<P>(a, b);
        for nt in [1usize, 2] {
            let pool = Pool::new(nt);
            let got = multiply::<P>(a, b, &pool);
            assert!(approx_eq_f64(&expect, &got, 1e-12), "nt={nt}");
            assert!(got.is_sorted());
            assert!(got.validate().is_ok());
        }
    }

    #[test]
    fn matches_reference() {
        let a = Csr::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (0, 3, 3.0),
                (1, 2, 4.0),
                (2, 0, 5.0),
                (3, 1, 6.0),
            ],
        )
        .unwrap();
        check(&a, &a);
    }

    #[test]
    fn single_segment_rows_skip_rounds() {
        // rows of A with exactly one entry: the merged row is just the
        // scaled B row, no rounds run
        let a = Csr::from_triplets(3, 3, &[(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]).unwrap();
        check(&a, &a);
    }

    #[test]
    fn many_segments_exercise_odd_carry() {
        // 5 entries in a row → segments 5, 3, 2, 1: odd carries happen
        let mut trips = vec![];
        for k in 0..5usize {
            trips.push((0usize, k as u32, 1.0 + k as f64));
        }
        for k in 0..5usize {
            trips.push((k, ((k + 1) % 5) as u32, 2.0));
            trips.push((k, ((k + 3) % 5) as u32, -1.0));
        }
        let a = Csr::from_triplets(5, 5, &trips).unwrap();
        check(&a, &a);
    }

    #[test]
    fn empty_matrices() {
        let z = Csr::<f64>::zero(3, 3);
        check(&z, &z);
    }
}
