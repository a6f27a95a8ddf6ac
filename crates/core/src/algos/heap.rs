//! One-phase heap SpGEMM (§4.2.3, after Azad et al.).
//!
//! For each output row, a binary min-heap indexed by column holds one
//! cursor per nonzero of `a_i*` into the corresponding (sorted) row of
//! `B`. Repeatedly extracting the minimum column merges the scaled
//! `B`-rows in ascending column order, accumulating equal columns on
//! the fly — `O(flop · log nnz(a_i*))` per Eq (1), but only
//! `O(nnz(a_i*))` accumulator space.
//!
//! Contracts (paper Table 1): inputs sorted, output sorted. The merge
//! is written once and run three ways: counting each row's columns
//! (the symbolic pass), into the pre-sliced output (the numeric pass),
//! and appending to a staging buffer ([`HeapKernel::stage_row`]: the
//! paper's one-phase step, which `spgemm-bench` drives for Fig. 9 and
//! the Heap columns of Figs. 11–17).

use crate::exec::{AccumReq, RowAccumulator};
use spgemm_sparse::{ColIdx, Csr, Semiring};

/// One cursor in the per-row merge: the current entry `b.cols[pos]` of
/// a `B`-row being merged, scaled by the `A` value that selected it.
struct Cursor<V> {
    col: ColIdx,
    pos: usize,
    end: usize,
    aval: V,
}

/// The per-thread heap state, reused across rows.
pub struct HeapKernel<S: Semiring> {
    heap: Vec<Cursor<S::Elem>>,
}

impl<S: Semiring> HeapKernel<S> {
    /// Empty kernel; the heap grows to `nnz(a_i*)` lazily.
    pub fn new() -> Self {
        HeapKernel { heap: Vec::new() }
    }

    #[inline]
    fn sift_down(&mut self, mut at: usize) {
        let len = self.heap.len();
        loop {
            let l = 2 * at + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let smallest = if r < len && self.heap[r].col < self.heap[l].col {
                r
            } else {
                l
            };
            if self.heap[smallest].col < self.heap[at].col {
                self.heap.swap(at, smallest);
                at = smallest;
            } else {
                break;
            }
        }
    }

    fn heapify(&mut self) {
        let len = self.heap.len();
        for i in (0..len / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Fill the heap with one cursor per non-empty scaled `B`-row
    /// selected by row `i` of `A`.
    fn load_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) {
        self.heap.clear();
        for (&k, &aval) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            let r = b.row_range(k as usize);
            if !r.is_empty() {
                self.heap.push(Cursor {
                    col: b.cols()[r.start],
                    pos: r.start,
                    end: r.end,
                    aval,
                });
            }
        }
        self.heapify();
    }

    /// The heap merge of row `i`, written once: every term of the row
    /// in ascending column order, as `emit(n, fresh, cursor)` — the
    /// term is `cursor.aval · b.vals()[cursor.pos]` at column
    /// `cursor.col`, the row's `n`-th distinct column; `fresh` marks a
    /// column's first term, the next ones accumulate into it. Returns
    /// the row's distinct column count. Values are the caller's to
    /// read, so the count-only merge never touches them.
    #[inline(always)]
    fn merge(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        mut emit: impl FnMut(usize, bool, &Cursor<S::Elem>),
    ) -> usize {
        self.load_row(a, b, i);
        let mut count = 0usize;
        let mut last_col = ColIdx::MAX;
        while let Some(top) = self.heap.first() {
            let fresh = top.col != last_col;
            if fresh {
                last_col = top.col;
                count += 1;
            }
            emit(count - 1, fresh, top);
            self.advance_top(b);
        }
        count
    }

    /// The one-phase row step: merge row `i` of `A · B` and append its
    /// entries, in ascending column order, to `cols` / `vals`; returns
    /// how many were appended.
    pub fn stage_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut Vec<ColIdx>,
        vals: &mut Vec<S::Elem>,
    ) -> usize {
        self.merge(a, b, i, |_, fresh, c| {
            let v = S::mul(c.aval, b.vals()[c.pos]);
            if fresh {
                cols.push(c.col);
                vals.push(v);
            } else {
                let last = vals.last_mut().expect("a fresh term came first");
                *last = S::add(*last, v);
            }
        })
    }

    /// Pop the minimum-column cursor's current entry and advance it.
    #[inline]
    fn advance_top(&mut self, b: &Csr<S::Elem>) {
        let next = self.heap[0].pos + 1;
        if next < self.heap[0].end {
            self.heap[0].pos = next;
            self.heap[0].col = b.cols()[next];
            self.sift_down(0);
        } else {
            let last = self.heap.len() - 1;
            self.heap.swap(0, last);
            self.heap.pop();
            self.sift_down(0);
        }
    }
}

impl<S: Semiring> Default for HeapKernel<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Semiring> RowAccumulator<S> for HeapKernel<S> {
    type Shared = ();

    fn build(_: &AccumReq, _: &()) -> Self {
        Self::new()
    }

    fn ensure(&mut self, _req: &AccumReq) {
        // The heap grows to nnz(a_i*) lazily; nothing to pre-size.
    }

    fn scrub(&mut self) {
        self.heap.clear();
    }

    fn symbolic_row(&mut self, a: &Csr<S::Elem>, b: &Csr<S::Elem>, i: usize) -> usize {
        self.merge(a, b, i, |_, _, _| {})
    }

    /// The heap merge emits ascending columns by construction, so
    /// `sorted` is ignored (the output is always sorted — Table 1).
    fn numeric_row(
        &mut self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        i: usize,
        cols: &mut [ColIdx],
        vals: &mut [S::Elem],
        _sorted: bool,
    ) {
        let n = self.merge(a, b, i, |n, fresh, c| {
            let v = S::mul(c.aval, b.vals()[c.pos]);
            if fresh {
                cols[n] = c.col;
                vals[n] = v;
            } else {
                vals[n] = S::add(vals[n], v);
            }
        });
        debug_assert_eq!(n, cols.len(), "row {i}: symbolic/numeric count mismatch");
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
        multiply_in::<S>(a, b, Algorithm::Heap, OutputOrder::Sorted, pool).unwrap()
    }

    fn check(a: &Csr<f64>, b: &Csr<f64>) {
        let expect = reference::multiply::<P>(a, b);
        for nt in [1usize, 2, 3] {
            let pool = Pool::new(nt);
            let got = multiply::<P>(a, b, &pool);
            assert!(approx_eq_f64(&expect, &got, 1e-12), "nt={nt}");
            assert!(got.is_sorted(), "heap output always sorted");
            assert!(got.validate().is_ok());
        }
    }

    #[test]
    fn small_square() {
        let a = Csr::from_triplets(
            4,
            4,
            &[
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 0, 3.0),
                (2, 3, 4.0),
                (3, 0, 5.0),
                (3, 3, 6.0),
            ],
        )
        .unwrap();
        check(&a, &a);
    }

    #[test]
    fn accumulation_across_cursors() {
        // two A-entries hitting the same B column must merge:
        // A row 0 = {0, 1}; B rows 0 and 1 both have column 2.
        let a = Csr::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 3.0)]).unwrap();
        let b = Csr::from_triplets(2, 3, &[(0, 2, 10.0), (1, 2, 100.0)]).unwrap();
        let c = multiply::<P>(&a, &b, &Pool::new(1));
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 2), Some(&320.0));
    }

    #[test]
    fn rectangular_and_empty_rows() {
        let a = Csr::from_triplets(3, 5, &[(0, 0, 1.0), (2, 4, 2.0)]).unwrap();
        let b = Csr::from_triplets(5, 2, &[(0, 1, 3.0), (4, 0, 4.0)]).unwrap();
        check(&a, &b);
        let z = Csr::<f64>::zero(3, 3);
        check(&z, &z);
    }

    #[test]
    fn duplicate_heavy_merge() {
        // dense-ish 8x8 exercise: every row of A hits every B row
        let mut trips = Vec::new();
        for i in 0..8usize {
            for j in 0..8usize {
                if (i + j) % 2 == 0 {
                    trips.push((i, j as u32, (i * 8 + j) as f64 * 0.25));
                }
            }
        }
        let a = Csr::from_triplets(8, 8, &trips).unwrap();
        check(&a, &a);
    }

    #[test]
    fn heap_property_maintained_under_long_rows() {
        // one row of A with many entries → heap of that many cursors
        let n = 64usize;
        let mut trips: Vec<(usize, u32, f64)> = (0..n).map(|k| (0usize, k as u32, 1.0)).collect();
        for k in 0..n {
            trips.push((k, ((k * 7) % n) as u32, 1.0));
            trips.push((k, ((k * 13 + 1) % n) as u32, 2.0));
        }
        let a = Csr::from_triplets(n, n, &trips).unwrap();
        check(&a, &a);
    }
}
