//! Property-based tests of the RMA invariants: matrix consistency
//! (Definition 6.3), origins (Definition 6.6), closure, backend agreement,
//! and sort-policy equivalence.
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use rma_core::{Backend, RmaContext, RmaOp, RmaOptions, SortPolicy};
use rma_relation::{Relation, RelationBuilder};

/// A random relation with a unique string key `k` and `cols` float
/// application attributes `a0..`, plus a random physical row permutation.
fn arb_relation(rows: usize, cols: usize) -> impl Strategy<Value = Relation> {
    (
        proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, cols), rows),
        Just(rows),
    )
        .prop_perturb(move |(data, rows), mut rng| {
            let mut order: Vec<usize> = (0..rows).collect();
            // Fisher-Yates with proptest's rng for a random physical order
            for i in (1..rows).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            let keys: Vec<String> = order.iter().map(|i| format!("k{i:03}")).collect();
            let mut b = RelationBuilder::new().name("t").column("k", keys);
            for c in 0..cols {
                let col: Vec<f64> = order.iter().map(|&i| data[i][c]).collect();
                b = b.column(format!("a{c}"), col);
            }
            b.build().expect("valid relation")
        })
}

fn ctx_with(backend: Backend, sort: SortPolicy) -> RmaContext {
    RmaContext::new(RmaOptions {
        backend,
        sort_policy: sort,
        ..RmaOptions::default()
    })
}

// Matrix consistency for qqr: the result relation, sorted by its order
// schema, is reducible to QQR of the sorted input matrix.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn qqr_matrix_consistent(r in arb_relation(6, 3)) {
        let ctx = RmaContext::default();
        let out = ctx.qqr(&r, &["k"]).unwrap();
        // reduce both sides to matrices sorted by k
        let sorted_out = out.sorted_by(&["k"]).unwrap();
        let sorted_in = r.sorted_by(&["k"]).unwrap();
        let app: Vec<Vec<f64>> = (0..3)
            .map(|c| sorted_in.column(&format!("a{c}")).unwrap().to_f64_vec().unwrap())
            .collect();
        let (q_expect, _) = rma_linalg::bat::qqr(&app)
            .map(|q| (q, ()))
            .unwrap();
        for c in 0..3 {
            let got = sorted_out.column(&format!("a{c}")).unwrap().to_f64_vec().unwrap();
            for (g, e) in got.iter().zip(&q_expect[c]) {
                prop_assert!((g - e).abs() < 1e-8, "qqr cell mismatch: {g} vs {e}");
            }
        }
    }

    // Sort-avoidance produces the same relation as full sorting, up to row
    // order and floating-point noise (the base results are computed on a
    // permuted matrix, so last-ulp differences are expected).
    #[test]
    fn sort_policies_agree(r in arb_relation(7, 2)) {
        let fast = ctx_with(Backend::Auto, SortPolicy::Optimized);
        let slow = ctx_with(Backend::Auto, SortPolicy::Always);
        for op in [RmaOp::Qqr, RmaOp::Rqr, RmaOp::Dsv, RmaOp::Rnk] {
            let a = fast.unary(op, &r, &["k"]).unwrap();
            let b = slow.unary(op, &r, &["k"]).unwrap();
            prop_assert_eq!(a.schema(), b.schema());
            prop_assert_eq!(a.len(), b.len());
            let key = a.schema().names().next().unwrap().to_string();
            let a_s = a.sorted_by(&[&key]).unwrap();
            let b_s = b.sorted_by(&[&key]).unwrap();
            for (ca, cb) in a_s.columns().iter().zip(b_s.columns()) {
                if ca.data_type() == rma_storage::DataType::Float {
                    let (x, y) = (ca.to_f64_vec().unwrap(), cb.to_f64_vec().unwrap());
                    for (p, q) in x.iter().zip(&y) {
                        prop_assert!((p - q).abs() < 1e-8, "{op:?}: {p} vs {q}");
                    }
                } else {
                    prop_assert_eq!(ca, cb, "{:?} context differs", op);
                }
            }
        }
    }

    // BAT and dense kernels agree on every op both implement.
    #[test]
    fn backends_agree(r in arb_relation(5, 5)) {
        let bat = ctx_with(Backend::Bat, SortPolicy::Always);
        let dense = ctx_with(Backend::Dense, SortPolicy::Always);
        for op in [RmaOp::Qqr, RmaOp::Rqr, RmaOp::Tra, RmaOp::Rnk] {
            let a = bat.unary(op, &r, &["k"]).unwrap();
            let b = dense.unary(op, &r, &["k"]).unwrap();
            prop_assert_eq!(a.schema(), b.schema());
            for (ca, cb) in a.columns().iter().zip(b.columns()) {
                if ca.data_type() == rma_storage::DataType::Float {
                    let (va, vb) = (ca.to_f64_vec().unwrap(), cb.to_f64_vec().unwrap());
                    for (x, y) in va.iter().zip(&vb) {
                        prop_assert!((x - y).abs() < 1e-8, "{op:?}: {x} vs {y}");
                    }
                } else {
                    prop_assert_eq!(ca, cb);
                }
            }
        }
    }

    // inv round-trip: mmu(r, inv(r)) over RMA returns the identity matrix
    /// (on well-conditioned random square relations).
    #[test]
    fn inv_roundtrip(r in arb_relation(4, 4)) {
        // diagonal dominance => invertible
        let mut cols: Vec<Vec<f64>> = (0..4)
            .map(|c| r.column(&format!("a{c}")).unwrap().to_f64_vec().unwrap())
            .collect();
        let keys: Vec<rma_storage::Value> = r.column("k").unwrap().iter_values().collect();
        let sorted_keys = {
            let mut s: Vec<String> = keys.iter().map(|v| v.to_string()).collect();
            s.sort();
            s
        };
        for (j, col) in cols.iter_mut().enumerate() {
            // strengthen the diagonal of the *sorted* matrix: row index of
            // key k is its rank; add 500 where rank == j
            for (i, key) in keys.iter().enumerate() {
                let rank = sorted_keys.iter().position(|s| *s == key.to_string()).unwrap();
                if rank == j {
                    col[i] += 500.0;
                }
            }
        }
        let mut b = RelationBuilder::new().name("t").column(
            "k",
            keys.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
        );
        for (c, col) in cols.iter().enumerate() {
            b = b.column(format!("a{c}"), col.clone());
        }
        let r = b.build().unwrap();

        let ctx = RmaContext::default();
        let inv = ctx.inv(&r, &["k"]).unwrap();
        prop_assert_eq!(inv.schema(), r.schema());
        let prod = ctx.mmu(&r, &["k"], &inv, &["k"]).unwrap();
        let sorted = prod.sorted_by(&["k"]).unwrap();
        for (j, _) in cols.iter().enumerate() {
            let col = sorted.column(&format!("a{j}")).unwrap().to_f64_vec().unwrap();
            for (i, v) in col.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((v - expect).abs() < 1e-6, "identity cell ({i},{j}) = {v}");
            }
        }
    }

    // add is commutative up to column naming and row order.
    #[test]
    fn add_commutes(r in arb_relation(6, 2)) {
        let s = {
            // second relation with disjoint attribute names, same keys shifted
            let keys: Vec<String> = r
                .column("k").unwrap().iter_values().map(|v| v.to_string()).collect();
            let mut b = RelationBuilder::new().column("k2", keys);
            for c in 0..2 {
                let col = r.column(&format!("a{c}")).unwrap().to_f64_vec().unwrap();
                let shifted: Vec<f64> = col.iter().map(|x| x * 0.5 + 1.0).collect();
                b = b.column(format!("b{c}"), shifted);
            }
            b.build().unwrap()
        };
        let ctx = RmaContext::default();
        let ab = ctx.add(&r, &["k"], &s, &["k2"]).unwrap();
        let ba = ctx.add(&s, &["k2"], &r, &["k"]).unwrap();
        // compare cell multisets via sorted key order
        let ab_s = ab.sorted_by(&["k"]).unwrap();
        let ba_s = ba.sorted_by(&["k"]).unwrap();
        for c in 0..2 {
            let x = ab_s.column(&format!("a{c}")).unwrap().to_f64_vec().unwrap();
            let y = ba_s.column(&format!("b{c}")).unwrap().to_f64_vec().unwrap();
            for (p, q) in x.iter().zip(&y) {
                prop_assert!((p - q).abs() < 1e-10);
            }
        }
    }

    // Origins: every result of a unary op has the predicted schema
    /// (row-origin attributes followed by column origins).
    #[test]
    fn origin_schemas(r in arb_relation(5, 2)) {
        let ctx = RmaContext::default();
        // (r1,c1): U ◦ U̅
        let q = ctx.qqr(&r, &["k"]).unwrap();
        let names: Vec<String> = q.schema().names().map(str::to_string).collect();
        prop_assert_eq!(&names, &["k".to_string(), "a0".to_string(), "a1".to_string()]);
        // (c1,c1): (C) ◦ U̅
        let rq = ctx.rqr(&r, &["k"]).unwrap();
        let names: Vec<String> = rq.schema().names().map(str::to_string).collect();
        prop_assert_eq!(&names, &["C".to_string(), "a0".to_string(), "a1".to_string()]);
        // (c1,r1): (C) ◦ ▽U — columns are the sorted key values
        let t = ctx.tra(&r, &["k"]).unwrap();
        let names: Vec<String> = t.schema().names().map(str::to_string).collect();
        let mut expect = vec!["C".to_string()];
        let mut keys: Vec<String> = r.column("k").unwrap().iter_values().map(|v| v.to_string()).collect();
        keys.sort();
        expect.extend(keys);
        prop_assert_eq!(&names, &expect);
        // (1,1): (C, op)
        let d = ctx.rnk(&r, &["k"]).unwrap();
        let names: Vec<String> = d.schema().names().map(str::to_string).collect();
        prop_assert_eq!(&names, &["C".to_string(), "rnk".to_string()]);
    }

    // Double transpose returns the original application values with the
    /// order column renamed to C (Figure 10 generalised).
    #[test]
    fn double_transpose_roundtrip(r in arb_relation(5, 3)) {
        let ctx = RmaContext::default();
        let t1 = ctx.tra(&r, &["k"]).unwrap();
        let t2 = ctx.tra(&t1, &["C"]).unwrap();
        let orig = r.sorted_by(&["k"]).unwrap();
        let back = t2.sorted_by(&["C"]).unwrap();
        for c in 0..3 {
            let a = orig.column(&format!("a{c}")).unwrap().to_f64_vec().unwrap();
            let b = back.column(&format!("a{c}")).unwrap().to_f64_vec().unwrap();
            prop_assert_eq!(a, b);
        }
    }
}

/// Two int-keyed relations over the same `n` rows: key `k` holds a
/// duplicate, key `j` is unique. `spread` scales the keys: 1 keeps them in
/// the counting-scatter range (≤ 2·n), a large factor sends them through
/// the sort path.
fn dup_and_unique() -> impl Strategy<Value = (Vec<i64>, Vec<i64>)> {
    (3usize..40, prop_oneof![Just(1i64), Just(1_000_003i64)]).prop_perturb(
        |(n, spread), mut rng| {
            let mut ids: Vec<i64> = (0..n as i64).map(|i| (i - 1) * spread).collect();
            for i in (1..n).rev() {
                ids.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            let mut dup = ids.clone();
            let (a, b) = (rng.next_u64() as usize % n, rng.next_u64() as usize % n);
            dup[a] = dup[(a + 1 + b % (n - 1)) % n];
            (dup, ids)
        },
    )
}

/// A relation with int order attribute `key` and one float column `x_key`.
fn keyed(key: &str, keys: &[i64]) -> Relation {
    let x: Vec<f64> = (0..keys.len()).map(|i| i as f64 + 0.5).collect();
    RelationBuilder::new()
        .name("t")
        .column(key, keys.to_vec())
        .column(format!("x_{key}"), x)
        .build()
        .unwrap()
}

fn not_key(res: Result<Relation, rma_core::RmaError>) -> bool {
    matches!(res, Err(rma_core::RmaError::OrderSchemaNotKey(_)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // A duplicate order key fails with OrderSchemaNotKey on every path of
    // the order-schema pass: sorted (Full), physical (Skip, QQR), aligned
    // to the other operand, identity-aligned (the same relation twice, or
    // equal keys in separate storage), whichever operand holds it.
    #[test]
    fn duplicate_order_keys_fail_on_every_path((dup, uniq) in dup_and_unique()) {
        let ctx = RmaContext::default();
        let always = ctx_with(Backend::Auto, SortPolicy::Always);
        let d = keyed("k", &dup);
        let d2 = keyed("j", &dup);
        let u = keyed("j", &uniq);
        prop_assert!(not_key(ctx.qqr(&d, &["k"])));
        prop_assert!(not_key(ctx.inv(&d, &["k"])));
        prop_assert!(not_key(always.qqr(&d, &["k"])));
        let binary = [RmaOp::Add, RmaOp::Sub, RmaOp::Emu, RmaOp::Cpd, RmaOp::Sol, RmaOp::Mmu, RmaOp::Opd];
        for op in binary {
            for c in [&ctx, &always] {
                prop_assert!(not_key(c.binary(op, &d, &["k"], &u, &["j"])), "{op:?} dup left");
                prop_assert!(not_key(c.binary(op, &u, &["j"], &d, &["k"])), "{op:?} dup right");
                prop_assert!(not_key(c.binary(op, &d, &["k"], &d, &["k"])), "{op:?} same relation");
                prop_assert!(not_key(c.binary(op, &d, &["k"], &d2, &["j"])), "{op:?} equal keys");
            }
        }
    }

    // Operands with identical order keys align positionally without a
    // sort, and the answer equals the fully sorted one.
    #[test]
    fn identity_alignment_matches_sorting(r in arb_relation(7, 2)) {
        let fast = RmaContext::default();
        let slow = ctx_with(Backend::Auto, SortPolicy::Always);
        fast.reset_stats();
        let a = fast.cpd(&r, &["k"], &r, &["k"]).unwrap();
        prop_assert_eq!(fast.stats().sorts, 0, "self-aligned CPD must not sort");
        let b = slow.cpd(&r, &["k"], &r, &["k"]).unwrap();
        let close = |x: &Relation, y: &Relation| {
            x.columns().iter().zip(y.columns()).all(|(p, q)| match p.to_f64_vec() {
                Ok(pv) => pv.iter().zip(&q.to_f64_vec().unwrap()).all(|(s, t)| (s - t).abs() < 1e-8),
                Err(_) => p == q,
            })
        };
        prop_assert!(close(&a, &b));
        // equal keys in separate storage: one O(n) compare, no sort
        let copy = rma_relation::rename(&r.take(&(0..r.len()).collect::<Vec<_>>()), &[("k", "k2"), ("a0", "b0"), ("a1", "b1")]).unwrap();
        fast.reset_stats();
        let a = fast.add(&r, &["k"], &copy, &["k2"]).unwrap();
        prop_assert_eq!(fast.stats().sorts, 0, "identity-aligned ADD must not sort");
        let b = slow.add(&r, &["k"], &copy, &["k2"]).unwrap();
        prop_assert!(close(&a.sorted_by(&["k"]).unwrap(), &b.sorted_by(&["k"]).unwrap()));
    }
}
