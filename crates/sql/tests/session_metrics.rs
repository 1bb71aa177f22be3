//! SQL session engines report what their queries did below the SQL layer
//! to the server's metrics registry — the same numbers their own
//! `ExecStats` carry.

use rma_core::serve::Server;
use rma_core::{RmaContext, RmaOptions};
use rma_relation::{Relation, RelationBuilder};
use rma_sql::Engine;
use rma_storage::Value;

/// `n` rows with shuffled distinct keys, so sorting is real work.
fn shuffled(n: i64) -> Relation {
    RelationBuilder::new()
        .column("id", (0..n).map(|i| (i * 7919) % n).collect::<Vec<i64>>())
        .column("v", (0..n).map(|i| (i % 97) as f64).collect::<Vec<f64>>())
        .build()
        .unwrap()
}

#[test]
fn sql_session_spills_reach_the_server_registry() {
    let server = Server::new(RmaContext::new(RmaOptions {
        mem_budget: 100_000,
        ..RmaOptions::default()
    }));
    let mut e = Engine::session(&server);
    e.register("t", shuffled(50_000)).unwrap();
    let r = e.query("SELECT id, v FROM t ORDER BY id").unwrap();
    assert_eq!(r.len(), 50_000);
    assert_eq!(r.cell(0, "id").unwrap(), Value::Int(0));
    assert_eq!(r.cell(49_999, "id").unwrap(), Value::Int(49_999));

    let spilled = e.rma_context().stats().spill_bytes;
    assert!(
        spilled > 0,
        "the sort must run out of core under the budget"
    );
    let snap = server.metrics_snapshot();
    assert_eq!(snap.sessions.len(), 1);
    assert_eq!(
        snap.sessions[0].spill_bytes, spilled,
        "session entry disagrees with the engine's own stats"
    );
    assert_eq!(snap.spill_bytes, spilled, "total disagrees");
}
