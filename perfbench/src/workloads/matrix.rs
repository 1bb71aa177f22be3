//! `matrix_sql`: single relational matrix operations over tables already
//! in the catalog, one operand in key order and one shuffled.
//!
//! Each answer is checked against the same operation run directly on an
//! `RmaContext` once before the timed phase.

use super::{fingerprint, fingerprint_check, plain_bytes, scaled, ClosedLoop, PathRule, Query};
use rma_core::{RmaContext, RmaError, RmaOptions};
use rma_relation::{rename, Relation};

/// Relative tolerance between the SQL answer and the direct operation.
const TOL: f64 = 1e-9;

fn in_key_order(r: Relation) -> Relation {
    r.sorted_by(&["k0"]).expect("k0 exists")
}

fn rekeyed(r: Relation) -> Relation {
    rename(&r, &[("k0", "k")]).expect("k0 exists")
}

pub fn build(seed: u64, scale: f64) -> ClosedLoop {
    let u = rma_data::uniform_relation;
    // tall-skinny, stored in key order (QQR)
    let tall = in_key_order(u(scaled(20_000, scale, 200), 1, 8, seed));
    // square, shuffled (INV)
    let square = u(200, 1, 200, seed ^ 1);
    // MMU: a 2000×100 left operand in key order times a shuffled 100×50
    let left = in_key_order(u(scaled(2_000, scale, 100), 1, 100, seed ^ 2));
    let right = rekeyed(u(100, 1, 50, seed ^ 3));
    // CPD over the packed-integer publication counts
    let pubs = rma_data::publications(scaled(10_000, scale, 500), 60, seed);
    // the linear operations: ADD of a key-ordered and a shuffled operand,
    // TRA of a shuffled one
    let addl = in_key_order(u(scaled(100_000, scale, 1_000), 1, 10, seed ^ 4));
    let addr = rekeyed(u(scaled(100_000, scale, 1_000), 1, 10, seed ^ 5));
    let wide = u(scaled(2_000, scale, 100), 1, 50, seed ^ 6);

    let ctx = RmaContext::new(RmaOptions::default());
    type Direct = Box<dyn Fn(&RmaContext) -> Result<Relation, RmaError>>;
    let specs: Vec<(&'static str, &str, Direct, u64)> = vec![
        (
            "qqr",
            "SELECT * FROM QQR(tall BY k0)",
            Box::new({
                let r = tall.clone();
                move |c| c.qqr(&r, &["k0"])
            }),
            plain_bytes(&tall),
        ),
        (
            "inv",
            "SELECT * FROM INV(square BY k0)",
            Box::new({
                let r = square.clone();
                move |c| c.inv(&r, &["k0"])
            }),
            plain_bytes(&square),
        ),
        (
            "mmu",
            "SELECT * FROM MMU(lhs BY k0, rhs BY k)",
            Box::new({
                let (a, b) = (left.clone(), right.clone());
                move |c| c.mmu(&a, &["k0"], &b, &["k"])
            }),
            plain_bytes(&left) + plain_bytes(&right),
        ),
        (
            "cpd",
            "SELECT * FROM CPD(pubs BY author, pubs BY author)",
            Box::new({
                let r = pubs.clone();
                move |c| c.cpd(&r, &["author"], &r, &["author"])
            }),
            2 * plain_bytes(&pubs),
        ),
        (
            "add",
            "SELECT * FROM ADD(addl BY k0, addr BY k)",
            Box::new({
                let (a, b) = (addl.clone(), addr.clone());
                move |c| c.add(&a, &["k0"], &b, &["k"])
            }),
            plain_bytes(&addl) + plain_bytes(&addr),
        ),
        (
            "tra",
            "SELECT * FROM TRA(wide BY k0)",
            Box::new({
                let r = wide.clone();
                move |c| c.tra(&r, &["k0"])
            }),
            plain_bytes(&wide),
        ),
    ];
    let queries = specs
        .into_iter()
        .map(|(kind, sql, direct, input_bytes)| {
            let want = fingerprint(&direct(&ctx).expect("direct operation"));
            Query {
                kind,
                sql: sql.to_string(),
                check: fingerprint_check(want, TOL),
                input_bytes,
            }
        })
        .collect();
    ClosedLoop {
        tables: vec![
            ("tall", tall),
            ("square", square),
            ("lhs", left),
            ("rhs", right),
            ("pubs", pubs),
            ("addl", addl),
            ("addr", addr),
            ("wide", wide),
        ],
        options: RmaOptions::default(),
        queries,
        path: PathRule::DenseAndBat,
        tail_pct: 90.0,
    }
}
