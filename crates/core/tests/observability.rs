//! Observability integration tests (PR 7): per-session [`ExecStats`]
//! attribution under concurrent sessions, `EXPLAIN ANALYZE` output
//! stability across worker-thread counts, and traced execution matching
//! the analyzed plan.

use rma_core::plan::Frame;
use rma_core::serve::Server;
use rma_core::{RmaContext, RmaOptions, TraceSession};
use rma_relation::par::MIN_PARALLEL_ROWS;
use rma_relation::{Expr, Relation, RelationBuilder};

fn matrix_table() -> Relation {
    RelationBuilder::new()
        .column("k", vec!["a", "b"])
        .column("v1", vec![2.0f64, 0.0])
        .column("v2", vec![0.0f64, 2.0])
        .build()
        .unwrap()
}

/// Each concurrent session's `ExecStats` count exactly the matrix
/// operations that session issued — no bleed between sessions sharing one
/// server (and one worker pool), and none into the server's base context.
#[test]
fn exec_stats_attribute_to_the_issuing_session_under_concurrency() {
    let server = Server::default();
    let admin = server.session();
    admin.create_table("m", matrix_table()).unwrap();

    let sessions: Vec<_> = (0..4).map(|_| server.session()).collect();
    std::thread::scope(|scope| {
        for (k, session) in sessions.iter().enumerate() {
            scope.spawn(move || {
                for _ in 0..=k {
                    session
                        .query(Frame::table("m").rma_unary(rma_core::RmaOp::Inv, &["k"]))
                        .unwrap();
                }
            });
        }
    });
    for (k, session) in sessions.iter().enumerate() {
        assert_eq!(
            session.stats().ops_run,
            (k + 1) as u32,
            "session {k} miscounted its matrix ops"
        );
    }
    assert_eq!(admin.stats().ops_run, 0);
    assert_eq!(server.context().stats().ops_run, 0);

    // the registry saw every query too (4 sessions: 1+2+3+4 queries)
    let snap = server.metrics_snapshot();
    assert_eq!(snap.queries, 10);
}

fn three_way_join_frame(n: i64) -> (Relation, Relation, Relation) {
    let build = |key: &str, val: &str| {
        RelationBuilder::new()
            .column(key, (0..n).collect::<Vec<_>>())
            .column(val, (0..n).map(|i| i % 9).collect::<Vec<_>>())
            .build()
            .unwrap()
    };
    (build("k", "x"), build("k2", "y"), build("k3", "z"))
}

fn analyzed(threads: usize) -> String {
    let ctx = RmaContext::new(RmaOptions {
        threads,
        ..RmaOptions::default()
    });
    let (a, b, c) = three_way_join_frame(3000);
    Frame::scan(a)
        .select(Expr::col("x").lt(Expr::lit(5i64)))
        .join(Frame::scan(b), &[("k", "k2")])
        .join(Frame::scan(c), &[("k2", "k3")])
        .order_by(&["k"], &[true])
        .explain_analyze(&ctx)
        .unwrap()
}

/// Strip the run-dependent fields — wall time always varies, and morsel
/// counts legitimately differ with the worker-thread count — leaving the
/// tree shape, estimates, actual row counts, and q-errors.
fn normalize(text: &str) -> String {
    text.lines()
        .map(|line| {
            line.split(' ')
                .map(|tok| {
                    if tok.starts_with("time=") {
                        "time=*"
                    } else if tok.starts_with("morsels=") {
                        "morsels=*"
                    } else {
                        tok
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// EXPLAIN ANALYZE renders the identical tree — same nodes, same actual
/// rows, same q-errors — at 1 and 4 worker threads: plans execute
/// operator-at-a-time at every thread count, so profiles are comparable
/// across configurations.
#[test]
fn explain_analyze_is_stable_across_thread_counts() {
    let serial = analyzed(1);
    let parallel = analyzed(4);
    assert_eq!(
        normalize(&serial),
        normalize(&parallel),
        "EXPLAIN ANALYZE diverged between 1 and 4 threads:\n--- 1 thread\n{serial}\n--- 4 threads\n{parallel}"
    );
    // every node line carries the analyze columns
    for line in serial.lines() {
        assert!(line.contains("actual="), "missing actuals: {line}");
        assert!(line.contains("time="), "missing time: {line}");
        assert!(line.contains("morsels="), "missing morsels: {line}");
        assert!(line.contains("q_err="), "missing q-error: {line}");
    }
    // the 3-way join tree is all there
    assert_eq!(serial.matches("JoinOn").count(), 2, "{serial}");
    // the scan of `a` feeds 3000 rows into the filter, which keeps x<5
    assert!(serial.contains("actual=3000"), "{serial}");
}

/// A traced `collect` runs the plan `EXPLAIN ANALYZE` profiles: a
/// Scan→Select→Project chain over a morsel-parallel input executes as its
/// own operators — `exec.select` and `exec.project` spans, no fused
/// `pipeline.*` span — and the Select dispatches exactly the morsel count
/// the analyzed run prints for it.
#[test]
fn traced_execution_is_the_plan_explain_analyze_profiles() {
    let ctx = RmaContext::new(RmaOptions {
        threads: 2,
        ..RmaOptions::default()
    });
    let n = 3 * MIN_PARALLEL_ROWS as i64 + 11;
    let r = RelationBuilder::new()
        .column("k", (0..n).collect::<Vec<_>>())
        .column("x", (0..n).map(|i| i % 7).collect::<Vec<_>>())
        .build()
        .unwrap();
    let frame = Frame::scan(r)
        .select(Expr::col("x").lt(Expr::lit(3i64)))
        .project_exprs(vec![(
            Expr::col("k").mul(Expr::lit(2i64)),
            "k2".to_string(),
        )]);
    let kept = (0..n).filter(|i| i % 7 < 3).count() as u64;

    let session = TraceSession::start();
    let out = frame.collect(&ctx).unwrap();
    let spans = session.finish();
    assert_eq!(out.len() as u64, kept);

    assert!(
        spans.iter().all(|s| !s.name.starts_with("pipeline.")),
        "a fused pipeline ran instead of the plan's operators"
    );
    // this is the binary's only trace session, but its other tests run
    // plans concurrently: this plan's spans are the ones producing its
    // (unique) output row count
    let ours = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name && s.rows_out == kept)
            .collect::<Vec<_>>()
    };
    let selects = ours("exec.select");
    assert_eq!(selects.len(), 1, "exactly one traced Select: {selects:?}");
    assert_eq!(ours("exec.project").len(), 1, "exactly one traced Project");

    let analyzed = frame.explain_analyze(&ctx).unwrap();
    let select_line = analyzed
        .lines()
        .find(|l| l.trim_start().starts_with("Select"))
        .unwrap_or_else(|| panic!("no Select line in\n{analyzed}"));
    let morsels: u64 = select_line
        .split(' ')
        .find_map(|tok| tok.strip_prefix("morsels="))
        .and_then(|m| m.parse().ok())
        .unwrap_or_else(|| panic!("no morsel count on {select_line}"));
    assert!(
        morsels > 1,
        "the Select must run morsel-parallel: {select_line}"
    );
    assert_eq!(
        selects[0].morsels, morsels,
        "traced Select and EXPLAIN ANALYZE disagree:\n{analyzed}"
    );
}

/// The morsel count is what an operator dispatched, not a guess at its
/// serial fallback: on a 2-thread pool over 2,000 rows, a top-k whose k is
/// within a factor 4 of the input and a Select whose predicate reads no
/// column both run serially, and both print `morsels=1`.
#[test]
fn serial_fallbacks_report_one_morsel() {
    let ctx = RmaContext::new(RmaOptions {
        threads: 2,
        ..RmaOptions::default()
    });
    let r = RelationBuilder::new()
        .column("x", (0..2000i64).rev().collect::<Vec<_>>())
        .build()
        .unwrap();
    let line_of = |text: &str, node: &str| -> String {
        text.lines()
            .find(|l| l.trim_start().starts_with(node))
            .unwrap_or_else(|| panic!("no {node} line in\n{text}"))
            .to_string()
    };
    let top_k = Frame::scan(r.clone())
        .order_by(&["x"], &[true])
        .limit(600)
        .explain_analyze(&ctx)
        .unwrap();
    let line = line_of(&top_k, "TopK");
    assert!(line.contains(" morsels=1 "), "serial top-k: {line}");

    let select = Frame::scan(r)
        .select(Expr::lit(1i64).eq(Expr::lit(1i64)))
        .explain_analyze(&ctx)
        .unwrap();
    let line = line_of(&select, "Select");
    assert!(line.contains(" morsels=1 "), "serial select: {line}");
}
