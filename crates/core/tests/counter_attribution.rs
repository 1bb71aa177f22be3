//! Exact counter attribution across concurrent sessions: forced decode
//! sinks are charged to the query that filled the decode cache, never to
//! a session that happened to run at the same time.
//!
//! This binary holds a single test on purpose: it compares one session's
//! count with the process-wide total
//! ([`rma_storage::decode_sink_events`]), which any other test running in
//! the same process could move.

use rma_core::plan::Frame;
use rma_core::serve::Server;
use rma_core::{RmaContext, RmaOptions};
use rma_relation::{Relation, RelationBuilder};
use rma_storage::{decode_sink_events, Encoding};
use std::sync::atomic::{AtomicBool, Ordering};

/// A key plus a blocked integer-valued float column: the catalog ingests
/// `amount` as RLE, and QQR needs it as plain floats (a forced decode).
fn matrix_table(rows: usize) -> Relation {
    RelationBuilder::new()
        .column(
            "k",
            (0..rows as i64)
                .map(|i| (i * 7919) % rows as i64)
                .collect::<Vec<_>>(),
        )
        .column(
            "amount",
            (0..rows).map(|i| ((i / 64) % 6) as f64).collect::<Vec<_>>(),
        )
        .build()
        .unwrap()
}

/// Distinct strings: too many values to dictionary-encode, so the column
/// stays plain and sorting it decodes nothing.
fn names_table(rows: usize) -> Relation {
    RelationBuilder::new()
        .column(
            "name",
            (0..rows)
                .map(|i| format!("name-{:06}", (i * 7919) % rows))
                .collect::<Vec<_>>(),
        )
        .build()
        .unwrap()
}

#[test]
fn decode_sinks_are_charged_only_to_the_decoding_session() {
    // serial pool: the serial dense path is the one that fills the decode
    // cache (see the compressed-execution tests)
    let server = Server::new(RmaContext::new(RmaOptions {
        threads: 1,
        ..RmaOptions::default()
    }));
    let admin = server.session();
    const TABLES: usize = 8;
    for t in 0..TABLES {
        admin
            .create_table(&format!("m{t}"), matrix_table(4096))
            .unwrap();
    }
    admin.create_table("s", names_table(20_000)).unwrap();
    let pin = admin.pin();
    let amount = pin.get("m0").unwrap().relation().column("amount").unwrap();
    assert_eq!(amount.encoding(), Encoding::Rle);
    let name = pin.get("s").unwrap().relation().column("name").unwrap();
    assert_eq!(name.encoding(), Encoding::Plain);

    let heavy = server.session();
    let quiet: Vec<_> = (0..3).map(|_| server.session()).collect();
    let heavy_done = AtomicBool::new(false);
    let total0 = decode_sink_events();
    let analyzed: Vec<String> = std::thread::scope(|scope| {
        let quiet_runs: Vec<_> = quiet
            .iter()
            .map(|s| {
                let heavy_done = &heavy_done;
                scope.spawn(move || {
                    let sorted = || Frame::table("s").order_by(&["name"], &[true]);
                    let mut texts = Vec::new();
                    let mut rounds = 0;
                    while rounds < 2 || !heavy_done.load(Ordering::Acquire) {
                        assert_eq!(s.query(sorted()).unwrap().len(), 20_000);
                        texts.push(
                            sorted()
                                .explain_analyze_with(s.context(), &s.pin())
                                .unwrap(),
                        );
                        rounds += 1;
                    }
                    texts
                })
            })
            .collect();
        for t in 0..TABLES {
            let q = Frame::table(format!("m{t}").as_str())
                .project(&["k", "amount"])
                .qqr(&["k"]);
            assert_eq!(heavy.query(q).unwrap().len(), 4096);
        }
        heavy_done.store(true, Ordering::Release);
        quiet_runs
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let total = decode_sink_events() - total0;

    let snap = server.metrics_snapshot();
    // sessions register in open order: admin, heavy, then the quiet ones
    let heavy_sinks = snap.sessions[1].decode_sinks;
    assert!(heavy_sinks > 0, "QQR over RLE storage must decode");
    assert_eq!(
        heavy_sinks, total,
        "the decoding session is charged every sink the process saw"
    );
    for (i, m) in snap.sessions[2..].iter().enumerate() {
        assert_eq!(m.decode_sinks, 0, "quiet session {i} was charged a sink");
    }
    for s in &quiet {
        assert_eq!(s.stats().decode_sinks, 0);
    }
    for text in &analyzed {
        assert!(
            !text.contains(" sinks="),
            "a quiet session's EXPLAIN ANALYZE shows a sink:\n{text}"
        );
    }
}
