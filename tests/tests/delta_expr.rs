//! Dirty-propagation tests for `spgemm::expr::ExprPlan::update_in`: one
//! test per node kind against a dense oracle (semantic correctness),
//! against a fresh `ExprPlan::new_in` on the patched inputs
//! (byte-for-byte incremental equality) and through a numeric refill
//! after the update, plus the headline sparsity claim — a one-row edit
//! flowing through an MCL-shaped pipeline on a scale-10 R-MAT graph
//! recomputes well under 5% of the rows.

use spgemm::delta::DirtyRows;
use spgemm::expr::{ElemMap, ExprGraph, ExprPlan, NodeId};
use spgemm::{Algorithm, RowPatch};
use spgemm_par::Pool;
use spgemm_sparse::{bits_eq_f64, Csr};

const ALGO: Algorithm = Algorithm::Hash;

fn bind(g: &ExprGraph, root: NodeId, ins: &[&Csr<f64>], vecs: &[&[f64]], pool: &Pool) -> ExprPlan {
    ExprPlan::new_in(g, root, ins, vecs, ALGO, pool).expect("bind")
}

fn root_of(plan: &ExprPlan) -> Csr<f64> {
    let mut out = Csr::zero(0, 0);
    plan.root_into(&mut out).expect("root");
    out
}

fn rmat(scale: u32, ef: usize, seed: u64) -> Csr<f64> {
    spgemm_gen::rmat::generate_kind(
        spgemm_gen::RmatKind::Er,
        scale,
        ef,
        &mut spgemm_gen::rng(seed),
    )
}

fn to_dense(m: &Csr<f64>) -> Vec<f64> {
    let mut d = vec![0.0; m.nrows() * m.ncols()];
    for i in 0..m.nrows() {
        for (&c, &v) in m.row_cols(i).iter().zip(m.row_vals(i)) {
            d[i * m.ncols() + c as usize] = v;
        }
    }
    d
}

fn assert_dense_close(got: &Csr<f64>, want: &[f64], ncols: usize, ctx: &str) {
    let gd = to_dense(got);
    assert_eq!(gd.len(), want.len(), "{ctx}: shape");
    for (idx, (g, w)) in gd.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-12 * w.abs().max(1.0),
            "{ctx}: entry ({}, {}) is {g}, dense oracle says {w}",
            idx / ncols,
            idx % ncols
        );
    }
}

/// Patch a couple of rows of `m`: one numeric upsert, one structural
/// insert, one delete.
fn small_patch(m: &Csr<f64>) -> RowPatch<f64> {
    let mut p = RowPatch::new();
    p.insert(1, 2, 7.25);
    p.insert(3, (m.ncols() - 1) as u32, -1.5);
    if m.row_nnz(2) > 0 {
        p.delete(2, m.row_cols(2)[0]);
    }
    p
}

/// Run one single-op graph through the incremental path and both
/// oracles at 1–3 threads, then refill the updated plan on rescaled
/// values of the patched structures. `dense_op` computes the expected
/// dense result from the dense patched inputs.
fn check_node(
    build: impl Fn(&mut ExprGraph) -> NodeId,
    nvecs: usize,
    dense_op: impl Fn(&[Vec<f64>], &[Vec<f64>], (usize, usize)) -> (Vec<f64>, usize),
    ctx: &str,
) {
    let a = rmat(4, 3, 11);
    let b = rmat(4, 3, 12);
    let vec_data: Vec<Vec<f64>> = (0..nvecs)
        .map(|k| {
            (0..a.nrows())
                .map(|i| 0.5 + (i + k) as f64 * 0.25)
                .collect()
        })
        .collect();
    let mut g = ExprGraph::new();
    let root = build(&mut g);
    let n = g.num_inputs();
    let vecs: Vec<&[f64]> = vec_data.iter().map(|v| v.as_slice()).collect();
    let (a2, dirty) = a.apply_patch(&small_patch(&a)).expect("patch");
    let (a3, b3) = (a2.map(|v| v * 0.5 - 1.0), b.map(|v| v * 0.5 - 1.0));
    let (inputs, patched, rescaled) = ([&a, &b], [&a2, &b], [&a3, &b3]);
    let (inputs, patched, rescaled) = (&inputs[..n], &patched[..n], &rescaled[..n]);

    for nt in 1..=3 {
        let ctx = format!("{ctx} at {nt} threads");
        let pool = Pool::new(nt);
        let mut plan = bind(&g, root, inputs, &vecs, &pool);
        let report = plan
            .update_in(patched, &vecs, 0, &a, &dirty, &pool)
            .expect("update");
        assert!(report.rows_recomputed <= report.rows_total, "{ctx}: report");
        let got = root_of(&plan);
        assert!(
            bits_eq_f64(&got, &root_of(&bind(&g, root, patched, &vecs, &pool))),
            "{ctx}: incremental root diverged from fresh bind"
        );

        let dense_inputs: Vec<Vec<f64>> = patched.iter().map(|m| to_dense(m)).collect();
        let shape = (a2.nrows(), a2.ncols());
        let (want, ncols) = dense_op(&dense_inputs, &vec_data, shape);
        assert_dense_close(&got, &want, ncols, &ctx);

        assert!(
            plan.matches_inputs(patched),
            "{ctx}: bound to the patched inputs"
        );
        let mut refill = Csr::zero(0, 0);
        plan.execute_into_in(rescaled, &vecs, &mut refill, &pool)
            .expect("refill");
        assert!(
            bits_eq_f64(&refill, &root_of(&bind(&g, root, rescaled, &vecs, &pool))),
            "{ctx}: refill after the update diverged from fresh bind"
        );
    }
}

#[test]
fn multiply_node_propagates_deltas() {
    check_node(
        |g| {
            let x = g.input();
            let y = g.input();
            g.multiply(x, y)
        },
        0,
        |ins, _, (n, _)| {
            let mut d = vec![0.0; n * n];
            for i in 0..n {
                for k in 0..n {
                    let av = ins[0][i * n + k];
                    if av != 0.0 {
                        for j in 0..n {
                            d[i * n + j] += av * ins[1][k * n + j];
                        }
                    }
                }
            }
            (d, n)
        },
        "multiply",
    );
}

#[test]
fn transpose_node_propagates_deltas() {
    check_node(
        |g| {
            let x = g.input();
            g.transpose(x)
        },
        0,
        |ins, _, (n, m)| {
            let mut d = vec![0.0; m * n];
            for i in 0..n {
                for j in 0..m {
                    d[j * n + i] = ins[0][i * m + j];
                }
            }
            (d, n)
        },
        "transpose",
    );
}

#[test]
fn add_node_propagates_deltas() {
    check_node(
        |g| {
            let x = g.input();
            let y = g.input();
            g.add(x, y)
        },
        0,
        |ins, _, (_, m)| (ins[0].iter().zip(&ins[1]).map(|(x, y)| x + y).collect(), m),
        "add",
    );
}

#[test]
fn hadamard_node_propagates_deltas() {
    check_node(
        |g| {
            let x = g.input();
            let y = g.input();
            g.hadamard(x, y)
        },
        0,
        |ins, _, (_, m)| (ins[0].iter().zip(&ins[1]).map(|(x, y)| x * y).collect(), m),
        "hadamard",
    );
}

#[test]
fn scale_rows_node_propagates_deltas() {
    check_node(
        |g| {
            let x = g.input();
            let v = g.vec_input();
            g.scale_rows(x, v)
        },
        1,
        |ins, vecs, (n, m)| {
            let mut d = ins[0].clone();
            for i in 0..n {
                for j in 0..m {
                    d[i * m + j] *= vecs[0][i];
                }
            }
            (d, m)
        },
        "scale_rows",
    );
}

#[test]
fn scale_cols_node_propagates_deltas() {
    check_node(
        |g| {
            let x = g.input();
            let v = g.vec_input();
            g.scale_cols(x, v)
        },
        1,
        |ins, vecs, (n, m)| {
            let mut d = ins[0].clone();
            for i in 0..n {
                for j in 0..m {
                    d[i * m + j] *= vecs[0][j];
                }
            }
            (d, m)
        },
        "scale_cols",
    );
}

#[test]
fn map_node_propagates_deltas() {
    let f = ElemMap::AbsPow(2.0);
    check_node(
        |g| {
            let x = g.input();
            g.map(x, f)
        },
        0,
        move |ins, _, (_, m)| {
            // The map applies only to stored entries; structural zeros
            // stay zero, which the dense oracle reproduces by mapping
            // zero through f only where an entry exists — |0|^2 = 0, so
            // mapping everything is equivalent here.
            (ins[0].iter().map(|&v| f.apply(v)).collect(), m)
        },
        "map",
    );
}

#[test]
fn normalize_cols_node_propagates_deltas() {
    check_node(
        |g| {
            let x = g.input();
            g.normalize_cols(x)
        },
        0,
        |ins, _, (n, m)| {
            let mut d = ins[0].clone();
            for j in 0..m {
                let s: f64 = (0..n).map(|i| d[i * m + j]).sum();
                if s != 0.0 {
                    for i in 0..n {
                        d[i * m + j] /= s;
                    }
                }
            }
            (d, m)
        },
        "normalize_cols",
    );
}

/// Row-local epilogues fused into a product rewrite just the rows it
/// recomputed, and the one fused into a rebuilt transpose rewrites it
/// whole — bit for bit against a fresh bind, at 1–3 threads.
#[test]
fn fused_epilogues_follow_their_owner() {
    let (a, b) = (rmat(5, 4, 51), rmat(5, 4, 52));
    let n = a.nrows();
    let rf: Vec<f64> = (0..n).map(|i| 0.5 + i as f64 * 0.125).collect();
    let cf: Vec<f64> = (0..n).map(|i| 2.0 - i as f64 * 0.03125).collect();
    let mut g = ExprGraph::new();
    let (x, y) = (g.input(), g.input());
    let (vr, vc) = (g.vec_input(), g.vec_input());
    let p = g.multiply(x, y);
    let m = g.map(p, ElemMap::AbsPow(2.0));
    let r = g.scale_rows(m, vr);
    let c = g.scale_cols(r, vc);
    let t = g.transpose(x);
    let s = g.map(t, ElemMap::Shift(1.0));
    let root = g.add(c, s);
    let vecs: Vec<&[f64]> = vec![&rf, &cf];
    let (a2, dirty) = a.apply_patch(&small_patch(&a)).expect("patch");
    for nt in 1..=3 {
        let pool = Pool::new(nt);
        let mut plan = bind(&g, root, &[&a, &b], &vecs, &pool);
        assert_eq!(
            plan.fused_nodes(),
            4,
            "three into the product, one into the transpose"
        );
        let report = plan
            .update_in(&[&a2, &b], &vecs, 0, &a, &dirty, &pool)
            .expect("update");
        assert!(report.rows_recomputed < report.rows_total, "{nt} threads");
        let fresh = bind(&g, root, &[&a2, &b], &vecs, &pool);
        assert!(
            bits_eq_f64(&root_of(&plan), &root_of(&fresh)),
            "{nt} threads: fused epilogues diverged from fresh bind"
        );
    }
}

/// A two-op chain where only one branch is touched: the untouched
/// branch must contribute an empty delta (no recomputation).
#[test]
fn untouched_branch_is_not_recomputed() {
    let a = rmat(4, 3, 41);
    let b = rmat(4, 3, 42);
    let mut g = ExprGraph::new();
    let sa = g.input();
    let sb = g.input();
    let prod = g.multiply(sa, sa);
    let root = g.add(prod, sb);
    let pool = Pool::new(1);
    let mut plan = bind(&g, root, &[&a, &b], &[], &pool);
    // Edit only B: the A·A node must not recompute a single row.
    let mut patch = RowPatch::new();
    patch.insert(5, 3, 2.5);
    let (a2, dirty) = b.apply_patch(&patch).unwrap();
    let report = plan
        .update_in(&[&a, &a2], &[], 1, &b, &dirty, &pool)
        .unwrap();
    // Recomputed rows: 1 for the Add node only.
    assert_eq!(report.rows_recomputed, 1, "only the Add row touched by B");
    let fresh = bind(&g, root, &[&a, &a2], &[], &pool);
    assert!(bits_eq_f64(&root_of(&plan), &root_of(&fresh)));
}

/// The headline claim: a one-row numeric edit through the MCL pipeline
/// (`normalize_cols(map(A·A))`) on a scale-10 R-MAT graph recomputes
/// fewer than 5% of the pipeline's rows.
#[test]
fn mcl_pipeline_one_row_edit_recomputes_under_5_percent() {
    let a = rmat(10, 4, 77); // 1024 rows
    let mut g = ExprGraph::new();
    let s = g.input();
    let prod = g.multiply(s, s);
    let infl = g.map(prod, ElemMap::AbsPow(2.0));
    let root = g.normalize_cols(infl);
    let pool = Pool::new(2);
    let mut plan = bind(&g, root, &[&a], &[], &pool);

    // Edit the lightest non-empty row to keep the honest fanout small
    // (the claim is about sparsity of propagation, not worst-case hubs).
    let r = (0..a.nrows())
        .filter(|&i| a.row_nnz(i) > 0)
        .min_by_key(|&i| a.row_nnz(i))
        .unwrap();
    let col = a.row_cols(r)[0];
    let mut patch = RowPatch::new();
    patch.insert(r, col, 123.456);
    let (a2, dirty) = a.apply_patch(&patch).unwrap();
    let report = plan.update_in(&[&a2], &[], 0, &a, &dirty, &pool).unwrap();

    assert!(report.rows_total >= 3 * a.nrows(), "3 non-input nodes");
    assert!(
        report.fraction() < 0.05,
        "one-row edit recomputed {}/{} rows ({:.2}%)",
        report.rows_recomputed,
        report.rows_total,
        report.fraction() * 100.0
    );

    // And the cheap update is still exactly right.
    let fresh = bind(&g, root, &[&a2], &[], &pool);
    assert!(bits_eq_f64(&root_of(&plan), &root_of(&fresh)));
}

/// A `Multiply` of two inputs with the listed rows of `A` recomputed,
/// bit for bit against a fresh bind — first over an unchanged `A`
/// (the rows are dirty by declaration only, so they are recomputed,
/// not copied), then after an edit of each of them to NaN or `-0.0`.
/// The `[[-1.0]] · [[0.0]]` pair is the signed-zero case a private
/// accumulator once got wrong (it seeded the column with `+0.0` and
/// added, yielding `+0.0` where every kernel assigns the first
/// product, `-0.0`); the R-MAT pair is the `delta_oracle` suite's.
#[test]
fn multiply_recomputes_listed_rows_exactly() {
    let sample = Csr::from_triplets(
        4,
        4,
        &[
            (0, 0, 1.0),
            (0, 2, 2.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 3, 5.0),
            (3, 2, 6.0),
        ],
    )
    .unwrap();
    let g500 = |seed| {
        spgemm_gen::rmat::generate_kind(
            spgemm_gen::RmatKind::G500,
            5,
            4,
            &mut spgemm_gen::rng(seed),
        )
    };
    let neg_one = Csr::from_triplets(1, 1, &[(0, 0, -1.0)]).unwrap();
    let stored_zero = Csr::from_triplets(1, 1, &[(0, 0, 0.0)]).unwrap();
    let cases = [
        (sample.clone(), sample, vec![0usize, 2]),
        (neg_one, stored_zero, vec![0]),
        (g500(7), g500(8), (0..32).step_by(3).collect()),
    ];
    let mut g = ExprGraph::new();
    let (x, y) = (g.input(), g.input());
    let root = g.multiply(x, y);
    let pool = Pool::new(2);
    for algo in [Algorithm::Hash, Algorithm::Auto] {
        for (k, (a, b, rows)) in cases.iter().enumerate() {
            let ctx = format!("{algo} case {k}");
            let fresh = |a: &Csr<f64>| {
                ExprPlan::new_in(&g, root, &[a, b], &[], algo, &pool).expect("fresh bind")
            };
            let mut plan = fresh(a);
            let listed = DirtyRows::from_rows(a.nrows(), rows.iter().copied());
            let report = plan
                .update_in(&[a, b], &[], 0, a, &listed, &pool)
                .expect("update");
            assert_eq!(report.rows_recomputed, rows.len(), "{ctx}");
            assert!(
                bits_eq_f64(&root_of(&plan), &root_of(&fresh(a))),
                "{ctx}: unchanged"
            );

            let mut patch = RowPatch::new();
            for (j, &r) in rows.iter().enumerate() {
                let v = if j % 2 == 0 { -0.0 } else { f64::NAN };
                match a.row_cols(r).first() {
                    Some(&c) => patch.update(r, c, v),
                    None => patch.insert(r, 0, v),
                };
            }
            let (a2, dirty) = a.apply_patch(&patch).expect("patch");
            plan.update_in(&[&a2, b], &[], 0, a, &dirty, &pool)
                .expect("update");
            assert!(
                bits_eq_f64(&root_of(&plan), &root_of(&fresh(&a2))),
                "{ctx}: edited"
            );
        }
    }
}
