//! `out_of_core`: a full sort, a high-cardinality aggregate and a large
//! join under a per-query memory budget well below their working sets, so
//! each takes its spilling implementation (external merge sort,
//! partitioned aggregate, grace hash join).
//!
//! Each answer's checksum must equal that of the same query run once
//! without a budget before the timed phase.

use super::{close, num, plain_bytes, scaled, Check, ClosedLoop, PathRule, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rma_core::serve::Server;
use rma_core::{RmaContext, RmaOptions};
use rma_relation::{Relation, RelationBuilder};
use rma_sql::Engine;

/// Per-query memory budget in bytes per `events` row. The operators' own
/// working-set estimates are 8 (sort), 32 (aggregate) and 48 (hash build,
/// per `dim` row) bytes per row, so each needs several times the budget.
const BUDGET_PER_ROW: usize = 2;

/// Relative tolerance for float sums whose association order differs
/// between the spilled and the in-memory operators.
const TOL: f64 = 1e-9;

/// `events(id, g, v)`: `g` a grouping and join key with about `rows / 2`
/// distinct values, `v` a float that is distinct on every row (so a sort
/// has one correct order); `dim(dk, w)` with one row per `g` value.
fn tables(rows: usize, seed: u64) -> (Relation, Relation) {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = (rows / 2).max(1) as i64;
    let offset: u32 = rng.gen_range(0..u64::from(u32::MAX)) as u32;
    let events = RelationBuilder::new()
        .column("id", (0..rows as i64).collect::<Vec<i64>>())
        .column(
            "g",
            (0..rows)
                .map(|_| rng.gen_range(0..keys))
                .collect::<Vec<i64>>(),
        )
        .column(
            "v",
            (0..rows as u32)
                // an odd multiplier permutes u32, so every v is distinct
                .map(|i| f64::from(i.wrapping_mul(2_654_435_761).wrapping_add(offset)) / 1e3)
                .collect::<Vec<f64>>(),
        )
        .build()
        .expect("events schema");
    let dim = RelationBuilder::new()
        .column("dk", (0..keys).collect::<Vec<i64>>())
        .column(
            "w",
            (0..keys)
                .map(|_| rng.gen_range(0.0..10_000.0))
                .collect::<Vec<f64>>(),
        )
        .build()
        .expect("dim schema");
    (events, dim)
}

const SORT_SQL: &str = "SELECT id, v FROM events ORDER BY v";
const AGG_SQL: &str = "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM events GROUP BY g";
const JOIN_SQL: &str =
    "SELECT COUNT(*) AS n, SUM(w) AS sw, SUM(v) AS sv FROM events JOIN dim ON g = dk";

/// Order-sensitive digest of a sorted answer: length, Σ position·id, and
/// whether `v` ascends.
fn sort_digest(r: &Relation) -> Result<(usize, i64, bool), String> {
    let ids = r.column("id").map_err(|e| e.to_string())?;
    let vs = r
        .column("v")
        .and_then(|c| c.to_f64_vec().map_err(Into::into))
        .map_err(|e| e.to_string())?;
    let mut weighted = 0i64;
    for (i, v) in ids.iter_values().enumerate() {
        let id = v.as_f64().ok_or("id is not numeric")? as i64;
        weighted = weighted.wrapping_add((i as i64 + 1).wrapping_mul(id));
    }
    Ok((r.len(), weighted, vs.windows(2).all(|w| w[0] < w[1])))
}

/// Digest of the grouped answer: group count, Σ n, Σ g·n, Σ s.
fn agg_digest(r: &Relation) -> Result<(usize, i64, i64, f64), String> {
    let col = |name: &str| {
        r.column(name)
            .and_then(|c| c.to_f64_vec().map_err(Into::into))
            .map_err(|e| e.to_string())
    };
    let (g, n, s) = (col("g")?, col("n")?, col("s")?);
    let count: i64 = n.iter().map(|&x| x as i64).sum();
    let weighted: i64 = g.iter().zip(&n).map(|(&g, &n)| g as i64 * n as i64).sum();
    Ok((r.len(), count, weighted, s.iter().sum()))
}

pub fn build(seed: u64, scale: f64) -> ClosedLoop {
    let rows = scaled(200_000, scale, 2_000);
    let (events, dim) = tables(rows, seed);

    // reference answers from an unbudgeted server
    let reference = Server::new(RmaContext::new(RmaOptions::default()));
    let s = reference.session();
    s.create_table("events", events.clone())
        .expect("fresh catalog");
    s.create_table("dim", dim.clone()).expect("fresh catalog");
    let mut e = Engine::session(&reference);
    let mut answer = |sql: &str| e.query(sql).expect("unbudgeted reference query");
    let want_sort = sort_digest(&answer(SORT_SQL)).expect("reference sort digest");
    assert!(want_sort.2, "reference sort is not ascending");
    let want_agg = agg_digest(&answer(AGG_SQL)).expect("reference aggregate digest");
    let join = answer(JOIN_SQL);
    let want_join: Vec<f64> = ["n", "sw", "sv"]
        .iter()
        .map(|c| num(&join, 0, c).expect("reference join answer"))
        .collect();
    assert_eq!(
        e.rma_context().stats().spill_bytes,
        0,
        "the unbudgeted reference spilled"
    );

    let sort_check: Check = Box::new(move |r| {
        let got = sort_digest(r)?;
        if got == want_sort {
            Ok(())
        } else {
            Err(format!("sort digest {got:?}, reference {want_sort:?}"))
        }
    });
    let agg_check: Check = Box::new(move |r| {
        let got = agg_digest(r)?;
        if (got.0, got.1, got.2) == (want_agg.0, want_agg.1, want_agg.2)
            && close(got.3, want_agg.3, TOL)
        {
            Ok(())
        } else {
            Err(format!("aggregate digest {got:?}, reference {want_agg:?}"))
        }
    });
    let join_check: Check = Box::new(move |r| {
        let got = [num(r, 0, "n")?, num(r, 0, "sw")?, num(r, 0, "sv")?];
        if got[0] == want_join[0]
            && close(got[1], want_join[1], TOL)
            && close(got[2], want_join[2], TOL)
        {
            Ok(())
        } else {
            Err(format!("join answer {got:?}, reference {want_join:?}"))
        }
    });

    let ev = plain_bytes(&events);
    let queries = vec![
        Query {
            kind: "external_sort",
            sql: SORT_SQL.to_string(),
            check: sort_check,
            input_bytes: ev,
        },
        Query {
            kind: "partitioned_aggregate",
            sql: AGG_SQL.to_string(),
            check: agg_check,
            input_bytes: ev,
        },
        Query {
            kind: "grace_join",
            sql: JOIN_SQL.to_string(),
            check: join_check,
            input_bytes: ev + plain_bytes(&dim),
        },
    ];
    ClosedLoop {
        tables: vec![("events", events), ("dim", dim)],
        options: RmaOptions {
            mem_budget: BUDGET_PER_ROW * rows,
            ..RmaOptions::default()
        },
        queries,
        path: PathRule::SpillEveryQuery,
        tail_pct: 75.0,
    }
}
