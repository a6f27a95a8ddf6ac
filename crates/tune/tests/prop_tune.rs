//! Property tests of the tuning database: serialization round-trips
//! preserve every selector decision, and selection is a deterministic
//! function of (profile, context).

use proptest::prelude::*;
use spgemm::recipe::{AutoContext, OpKind, Pattern};
use spgemm::{Algorithm, OutputOrder};
use spgemm_tune::{
    AlgoScore, CellEntry, CellKey, GridBounds, MachineProfile, TunedSelector, PROFILE_VERSION,
};

fn algo_from_index(i: usize) -> Algorithm {
    Algorithm::ALL[i % Algorithm::ALL.len()]
}

fn op_from_index(i: usize) -> OpKind {
    [OpKind::Square, OpKind::LxU, OpKind::TallSkinny][i % 3]
}

/// Strategy: an arbitrary (but structurally valid) machine profile.
fn arb_profile() -> impl Strategy<Value = MachineProfile> {
    let arb_cell = (
        0usize..3,       // op
        prop::bool::ANY, // pattern uniform?
        0u8..6,          // ef bucket
        prop::bool::ANY, // sorted inputs
        prop::bool::ANY, // order sorted?
        proptest::collection::vec((0usize..9, 1.0f64..8.0, 1e-6f64..1.0), 1..=5),
    )
        .prop_map(
            |(op, uniform, ef_bucket, sorted_inputs, order_sorted, scores)| {
                let mut ranking: Vec<AlgoScore> = scores
                    .into_iter()
                    .map(|(ai, rel, secs)| AlgoScore {
                        algo: algo_from_index(ai),
                        rel_slowdown: rel,
                        total_secs: secs,
                        // exercise both the measured and unmeasured
                        // plan-path encodings
                        plan_rel_slowdown: if secs > 1e-3 { Some(rel * 1.5) } else { None },
                    })
                    .collect();
                // dedupe algorithms, keep first occurrence, rank ascending
                let mut seen = Vec::new();
                ranking.retain(|s| {
                    if seen.contains(&s.algo) {
                        false
                    } else {
                        seen.push(s.algo);
                        true
                    }
                });
                ranking.sort_by(|x, y| x.rel_slowdown.total_cmp(&y.rel_slowdown));
                let winner = ranking[0].algo;
                CellEntry {
                    key: CellKey {
                        op: op_from_index(op),
                        pattern: if uniform {
                            Pattern::Uniform
                        } else {
                            Pattern::Skewed
                        },
                        ef_bucket,
                        sorted_inputs,
                        order: if order_sorted {
                            OutputOrder::Sorted
                        } else {
                            OutputOrder::Unsorted
                        },
                    },
                    winner,
                    plan_winner: ranking
                        .iter()
                        .filter(|s| s.plan_rel_slowdown.is_some())
                        .min_by(|x, y| {
                            x.plan_rel_slowdown
                                .unwrap()
                                .total_cmp(&y.plan_rel_slowdown.unwrap())
                        })
                        .map(|s| s.algo),
                    ranking,
                }
            },
        );
    (
        6u32..14,
        proptest::collection::vec(arb_cell, 0..=12),
        1usize..=64,
        1.0f64..2.0,
    )
        .prop_map(|(log_rows, mut cells, threads, collision)| {
            // one entry per key: keep the first of any duplicate key
            let mut keys: Vec<CellKey> = Vec::new();
            cells.retain(|c| {
                if keys.contains(&c.key) {
                    false
                } else {
                    keys.push(c.key);
                    true
                }
            });
            MachineProfile {
                version: PROFILE_VERSION,
                hostname: "prop-host".into(),
                threads,
                collision_factor: collision,
                bounds: GridBounds {
                    nrows_min: 1 << (log_rows - 2),
                    nrows_max: 1 << log_rows,
                },
                cells,
            }
        })
}

/// Strategy: an arbitrary multiply context.
fn arb_ctx() -> impl Strategy<Value = AutoContext> {
    (
        0usize..3,
        prop::bool::ANY,
        4u32..16,
        1.0f64..64.0,
        0.0f64..4.0,
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(
            |(op, uniform, log_rows, ef, cv, sorted_inputs, order_sorted)| {
                let nrows = 1usize << log_rows;
                AutoContext {
                    op: op_from_index(op),
                    pattern: if uniform {
                        Pattern::Uniform
                    } else {
                        Pattern::Skewed
                    },
                    nrows,
                    ncols_a: nrows,
                    ncols_b: if op == 2 { (nrows / 16).max(1) } else { nrows },
                    nnz_a: (nrows as f64 * ef) as usize,
                    edge_factor: ef,
                    row_cv: cv,
                    sorted_inputs,
                    order: if order_sorted {
                        OutputOrder::Sorted
                    } else {
                        OutputOrder::Unsorted
                    },
                    elem_bytes: 8,
                    cost: Default::default(),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn serialization_round_trip_is_identity(profile in arb_profile()) {
        let text = profile.to_json();
        let back = MachineProfile::from_json(&text).unwrap();
        prop_assert_eq!(&profile, &back);
        // canonical form is stable
        prop_assert_eq!(text, back.to_json());
    }

    #[test]
    fn round_trip_preserves_every_selector_decision(
        profile in arb_profile(),
        ctxs in proptest::collection::vec(arb_ctx(), 1..=16),
    ) {
        let back = MachineProfile::from_json(&profile.to_json()).unwrap();
        let a = TunedSelector::new(profile);
        let b = TunedSelector::new(back);
        for ctx in &ctxs {
            prop_assert_eq!(a.select(ctx), b.select(ctx), "ctx {:?}", ctx);
        }
    }

    #[test]
    fn selection_is_deterministic(
        profile in arb_profile(),
        ctx in arb_ctx(),
    ) {
        let sel = TunedSelector::new(profile.clone());
        let first = sel.select(&ctx);
        for _ in 0..3 {
            prop_assert_eq!(sel.select(&ctx), first);
            // a freshly-built selector over an equal profile agrees too
            prop_assert_eq!(TunedSelector::new(profile.clone()).select(&ctx), first);
        }
    }

    #[test]
    fn selector_never_violates_input_contracts(
        profile in arb_profile(),
        ctx in arb_ctx(),
    ) {
        if let Some(pick) = TunedSelector::new(profile).select(&ctx) {
            prop_assert!(ctx.sorted_inputs || !pick.requires_sorted_inputs(),
                "picked {} for unsorted inputs", pick);
            prop_assert!(!ctx.order.is_sorted() || pick.honours_sorted_output(),
                "picked {} for a sorted-output request", pick);
        }
    }

    #[test]
    fn out_of_bounds_always_declines(
        profile in arb_profile(),
        ctx in arb_ctx(),
    ) {
        let mut far = ctx.clone();
        far.nrows = profile.bounds.nrows_max * spgemm_tune::SIZE_MARGIN * 2;
        prop_assert_eq!(TunedSelector::new(profile).select(&far), None);
    }
}
