//! `a2_panel` — kernel- and `par`-bound; every layer above `plan` is
//! bypassed.
//!
//! Six cells of the paper's Figure 11: three R-MAT inputs, each as a
//! sorted cell (`A·A`, sorted output) and an unsorted cell (the §5.1
//! protocol: columns of the left operand randomly relabelled, rows of
//! the right operand permuted alike, unsorted output — the *same*
//! product from unsorted inputs). This is where a kernel or
//! partitioning optimisation must show, at both thread counts, and
//! where plan/expr/serve/dist changes must show nothing.

use super::{fail, rng_for, P};
use crate::harness::{timed_ops, BlockShape, Metric, Tally, Width, Workload};
use crate::{probes, span};
use spgemm::{multiply_in, Algorithm, OutputOrder, SpgemmPlan};
use spgemm_gen::{perm, rmat, RmatKind};
use spgemm_par::Pool;
use spgemm_sparse::{approx_eq_f64, ops, Csr};

/// `(token stem, generator, scale, edge factor)`; quick mode runs the
/// same cells at scales 9/8/8.
const INPUTS: [(&str, RmatKind, u32, usize); 3] = [
    ("er4", RmatKind::Er, 13, 4),
    ("er16", RmatKind::Er, 11, 16),
    ("g16", RmatKind::G500, 11, 16),
];
const QUICK_SCALES: [u32; 3] = [9, 8, 8];

/// Cell tokens in op order.
pub const CELLS: [&str; 6] = ["er4s", "er4u", "er16s", "er16u", "g16s", "g16u"];

pub struct Cell {
    pub token: &'static str,
    pub a: Csr<f64>,
    pub b: Csr<f64>,
    pub order: OutputOrder,
}

/// The six cells for `seed`.
fn cells(seed: u64, quick: bool) -> Vec<Cell> {
    let mut out = Vec::with_capacity(6);
    for (i, &(_, kind, scale, ef)) in INPUTS.iter().enumerate() {
        let scale = if quick { QUICK_SCALES[i] } else { scale };
        let tag = 0x100 + i as u64;
        let a = rmat::generate_kind(kind, scale, ef, &mut rng_for(seed, tag));
        let p = perm::random_col_permutation(a.ncols(), &mut rng_for(seed, tag + 0x10));
        let ua = ops::permute_cols(&a, &p).expect("permutation has the right length");
        let rows: Vec<usize> = p.iter().map(|&x| x as usize).collect();
        let ub = ops::permute_rows(&a, &rows).expect("permutation has the right length");
        out.push(Cell {
            token: CELLS[2 * i],
            b: a.clone(),
            a,
            order: OutputOrder::Sorted,
        });
        out.push(Cell {
            token: CELLS[2 * i + 1],
            a: ua,
            b: ub,
            order: OutputOrder::Unsorted,
        });
    }
    out
}

/// Plans and reused outputs of all cells on one pool.
pub struct Side {
    pub pool: Pool,
    pub plans: Vec<SpgemmPlan<P>>,
    pub outs: Vec<Csr<f64>>,
}

impl Side {
    fn new(cells: &[Cell], threads: usize) -> Self {
        let pool = Pool::new(threads);
        let plans: Vec<SpgemmPlan<P>> = cells
            .iter()
            .map(|c| {
                SpgemmPlan::new_in(&c.a, &c.b, Algorithm::Auto, c.order, &pool)
                    .expect("a2_panel cell plans")
            })
            .collect();
        // The first execution sizes the outputs and the pooled
        // accumulators: the warm-up.
        let outs = plans
            .iter()
            .zip(cells)
            .map(|(p, c)| p.execute_in(&c.a, &c.b, &pool).expect("a2_panel warm-up"))
            .collect();
        Side { pool, plans, outs }
    }
}

pub struct A2Panel {
    pub cells: Vec<Cell>,
    pub wide: Side,
    pub narrow: Side,
}

impl Workload for A2Panel {
    const NAME: &'static str = "a2_panel";

    fn setup(seed: u64, quick: bool, threads: usize) -> Self {
        let cells = cells(seed, quick);
        let wide = Side::new(&cells, threads);
        let narrow = Side::new(&cells, 1);
        for pair in wide.outs.chunks(2) {
            assert_eq!(
                pair[0].nnz(),
                pair[1].nnz(),
                "the unsorted cell must be the same product as its sorted twin"
            );
        }
        A2Panel {
            cells,
            wide,
            narrow,
        }
    }

    fn block_shape(quick: bool) -> BlockShape {
        if quick {
            BlockShape {
                wide: 4,
                narrow: 2,
                cold: 1,
                chunk: 1,
            }
        } else {
            BlockShape {
                wide: 10,
                narrow: 4,
                cold: 2,
                chunk: 1,
            }
        }
    }

    /// Op = one pass over the six cells, numeric-only, into the
    /// outputs built in set-up.
    fn steady(&mut self, width: Width, n: usize, sink: &mut Vec<f64>) -> Tally {
        let side = width.pick(&mut self.wide, &mut self.narrow);
        let cells = &self.cells;
        timed_ops(n, sink, || {
            let _op = span::op("op.a2_panel");
            for ((c, plan), out) in cells.iter().zip(&side.plans).zip(&mut side.outs) {
                let _s = span::enter("plan.execute_into_in");
                plan.execute_into_in(&c.a, &c.b, out, &side.pool)
                    .map_err(fail(c.token))?;
            }
            Ok(())
        })
    }

    /// Cold op = the same pass through one-shot `multiply_in`: plan,
    /// accumulators and output are built and thrown away per cell —
    /// the paper's own one-shot measure (§3.2, Figure 4).
    fn cold(&mut self, n: usize, sink: &mut Vec<f64>) -> Tally {
        let (cells, pool) = (&self.cells, &self.wide.pool);
        timed_ops(n, sink, || {
            let _op = span::op("op.a2_panel.cold");
            for c in cells {
                let _s = span::enter("core.multiply_in");
                let out = multiply_in::<P>(&c.a, &c.b, Algorithm::Auto, c.order, pool)
                    .map_err(fail(c.token))?;
                std::hint::black_box(out.nnz());
            }
            Ok(())
        })
    }

    /// Every cell's last output, on both sides, against the
    /// sequential `Reference` oracle on the same operands: the same
    /// structure exactly (entry order aside) and values to 1e-9 —
    /// kernels accumulate in data-dependent order, so the repo's
    /// cross-algorithm contract is this, not bit equality.
    fn check(&mut self) -> Vec<String> {
        let mut bad = Vec::new();
        for (i, c) in self.cells.iter().enumerate() {
            let oracle = multiply_in::<P>(
                &c.a,
                &c.b,
                Algorithm::Reference,
                OutputOrder::Sorted,
                &self.narrow.pool,
            )
            .expect("reference multiply");
            for (side, label) in [(&self.wide, "T"), (&self.narrow, "1")] {
                if !approx_eq_f64(&side.outs[i], &oracle, 1e-9) {
                    bad.push(format!(
                        "a2_panel {} at {label} threads differs from Reference",
                        c.token
                    ));
                }
            }
        }
        bad
    }

    fn probes(&mut self, ctx: &probes::Ctx, out: &mut Vec<Metric>) {
        probes::kernel_probes(self, ctx, out);
    }
}
