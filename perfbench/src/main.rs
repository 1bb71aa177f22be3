//! The repository benchmark: SQL text through serving sessions
//! (`rma_sql::Engine::session` on a `rma_core::serve::Server`), on four
//! workloads, with a separate traced run for a per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mixed_sql --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it is the run's record: metadata, per-query-type figures, and
//! the metrics that do not apply to every workload. See `README.md`.

mod stats;
mod trace;
mod workloads;

use rma_core::serve::{MetricsSnapshot, Server};
use rma_core::{ExecStats, KernelUsed, PoolStats, RmaContext};
use rma_relation::Relation;
use stats::{geomean, median, peak_rss_mb, summarize, Json, Summary};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Breakdown, Client, StmtEffect, Tracer};
use workloads::{serve, ClosedLoop, PathRule, Query};

/// Every workload, with the reason it is in the benchmark.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "mixed_sql",
        "the paper's end-to-end claim (s8.6): mixed relational and matrix SQL, where relational preparation dominates",
    ),
    (
        "matrix_sql",
        "single matrix operations through SQL: order-schema sorting, BAT-dense copies and both kernel families do the work",
    ),
    (
        "serve_rw",
        "the only workload on the catalog commit and ingest-encoding write path, with concurrent reads of the same table",
    ),
    (
        "out_of_core",
        "the spill layer (external sort, partitioned aggregate, grace join) under a memory budget below the working set",
    ),
];

/// Set-ups per run; `setup_s` is their median. A traced run makes as many,
/// so its untraced phase starts from the same process state as an
/// untraced run's window.
const SETUPS: usize = 5;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies every table's row count (1 = the benchmark's scale).
    pub scale: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    if !(args.seconds > 0.0 && args.scale > 0.0) {
        return Err("--seconds and --scale must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // spill files go to a directory of the checkout, removed at exit
    let tmp = Path::new(".perfbench-tmp");
    if let Err(e) = std::fs::create_dir_all(tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let tmp = tmp.canonicalize().expect("directory just created");
    // set before any thread exists; the engine's spill files honour TMPDIR
    std::env::set_var("TMPDIR", &tmp);
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&tmp);
    for f in &outcome.failures {
        eprintln!("perfbench: {f}");
    }
    println!("{}", outcome.record);
    println!("{}", outcome.result);
    ExitCode::SUCCESS
}

/// One run's output.
pub struct Outcome {
    pub record: Json,
    pub result: Json,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

pub fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "mixed_sql" => run_closed(args, workloads::mixed::build(args.seed, args.scale)),
        "matrix_sql" => run_closed(args, workloads::matrix::build(args.seed, args.scale)),
        "out_of_core" => run_closed(args, workloads::ooc::build(args.seed, args.scale)),
        "serve_rw" => run_serve(args),
        other => unreachable!("workload {other} passed argument checks"),
    }
}

// ---------------------------------------------------------------------
// closed loops (mixed_sql, matrix_sql, out_of_core) and every set-up
// ---------------------------------------------------------------------

struct Sample {
    kind: usize,
    ms: f64,
    effect: StmtEffect,
}

#[derive(Default)]
struct LoopOut {
    samples: Vec<Sample>,
    failures: Vec<String>,
    cycles: usize,
}

enum Stop {
    /// Whole cycles until this much time has passed (at least one).
    After(Duration),
    Cycles(usize),
}

fn closed_loop(client: &mut Client, queries: &[Query], stop: Stop) -> LoopOut {
    let mut out = LoopOut::default();
    let start = Instant::now();
    loop {
        let more = match stop {
            Stop::After(d) => out.cycles == 0 || start.elapsed() < d,
            Stop::Cycles(n) => out.cycles < n,
        };
        if !more {
            return out;
        }
        for (kind, q) in queries.iter().enumerate() {
            let t = Instant::now();
            let (res, effect) = client.run(&q.sql);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let checked = res
                .and_then(|r| r.relation())
                .map_err(|e| e.to_string())
                .and_then(|r| (q.check)(&r));
            if let Err(e) = checked {
                out.failures.push(format!("{}: {e}", q.kind));
            }
            out.samples.push(Sample { kind, ms, effect });
        }
        out.cycles += 1;
    }
}

/// Load `tables` into a fresh server's catalog through
/// `Session::create_table`, with a span per table when traced.
fn install(
    server: &Server,
    tables: Vec<(&'static str, Relation)>,
    mut tracer: Option<&mut Tracer>,
) {
    let session = server.session();
    for (name, rel) in tables {
        let span = tracer.as_mut().map(|t| {
            let q = t.next_query();
            t.open("serve.catalog.install", None, q)
        });
        session.create_table(name, rel).expect("fresh catalog");
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.close(id);
        }
    }
}

struct Setup {
    server: Server,
    client: Client,
    secs: f64,
    warm: LoopOut,
}

/// Catalog ingest plus one warm-up cycle, timed together. Cloning the
/// inputs happens before the clock starts.
fn setup_closed(w: &ClosedLoop, install_tracer: Option<&mut Tracer>) -> Setup {
    let tables: Vec<(&'static str, Relation)> =
        w.tables.iter().map(|(n, r)| (*n, r.clone())).collect();
    let server = Server::new(RmaContext::new(w.options.clone()));
    let start = Instant::now();
    install(&server, tables, install_tracer);
    let mut client = Client::new(&server, None);
    let warm = closed_loop(&mut client, &w.queries, Stop::Cycles(1));
    Setup {
        secs: start.elapsed().as_secs_f64(),
        server,
        client,
        warm,
    }
}

/// The statements that show the workload did not take the path it is
/// meant to measure.
fn path_violations(rule: PathRule, queries: &[Query], samples: &[Sample]) -> Vec<String> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut flag = |msg: String| *counts.entry(msg).or_default() += 1;
    for s in samples {
        let kind = queries[s.kind].kind;
        match rule {
            PathRule::RmaEveryQuery if s.effect.rma_ops == 0 => {
                flag(format!("path: {kind} ran no relational matrix operation"))
            }
            PathRule::SpillEveryQuery if s.effect.spill_bytes == 0 => {
                flag(format!("path: {kind} did not spill"))
            }
            _ => {}
        }
        if rule != PathRule::SpillEveryQuery && s.effect.spill_bytes > 0 {
            flag(format!("path: {kind} spilled on a workload that must not"));
        }
    }
    if rule == PathRule::DenseAndBat {
        let used = |k: KernelUsed| samples.iter().any(|s| s.effect.kernel == Some(k));
        if !used(KernelUsed::Dense) {
            flag("path: no statement ran a dense kernel".to_string());
        }
        if !used(KernelUsed::Bat) {
            flag("path: no statement ran a BAT kernel".to_string());
        }
    }
    counts
        .into_iter()
        .map(|(m, n)| format!("{m} ({n}x)"))
        .collect()
}

/// Per-type summaries of read latencies: `(kind, summary)`.
fn per_type(
    kinds: &[&'static str],
    samples: impl Iterator<Item = (usize, f64)>,
    tail_pct: f64,
) -> Vec<(&'static str, Summary)> {
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    for (k, ms) in samples {
        by_kind[k].push(ms);
    }
    kinds
        .iter()
        .zip(by_kind)
        .filter(|(_, v)| !v.is_empty())
        .map(|(k, v)| (*k, summarize(&v, tail_pct)))
        .collect()
}

fn run_closed(args: &Args, w: ClosedLoop) -> Outcome {
    let kinds: Vec<&'static str> = w.queries.iter().map(|q| q.kind).collect();
    let mut rec = Record::new(args);
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let s = setup_closed(&w, None);
        setups.push(s.secs);
        rec.statements(&s.warm.samples, &s.warm.failures);
        rec.violations(path_violations(w.path, &w.queries, &s.warm.samples));
        kept = Some(s);
    }
    let Setup {
        server, mut client, ..
    } = kept.expect("at least one set-up");
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let measured = closed_loop(
        &mut client,
        &w.queries,
        Stop::After(Duration::from_secs_f64(window)),
    );
    rec.statements(&measured.samples, &measured.failures);
    rec.violations(path_violations(w.path, &w.queries, &measured.samples));
    let reads = per_type(
        &kinds,
        measured.samples.iter().map(|s| (s.kind, s.ms)),
        w.tail_pct,
    );
    rec.per_type("reads", &reads);
    let read_ms: Vec<f64> = measured.samples.iter().map(|s| s.ms).collect();

    if !args.trace {
        let snap = server.metrics_snapshot();
        rec.end_to_end(&setups, &read_ms, &reads, &snap);
        return rec.finish();
    }
    drop(client);
    drop(server);

    // traced phase: a fresh set-up (its ingest traced), then the same
    // number of cycles as the untraced window
    let epoch = Instant::now();
    let sinks0 = rma_storage::decode_sink_events();
    let mut install_tracer = Tracer::new(epoch, 0);
    let s = setup_closed(&w, Some(&mut install_tracer));
    rec.statements(&s.warm.samples, &s.warm.failures);
    let Setup {
        server, mut client, ..
    } = s;
    client.set_tracer(Tracer::new(epoch, 1));
    let before = Probe::take(&server, &[client.stats()]);
    let traced = closed_loop(&mut client, &w.queries, Stop::Cycles(measured.cycles));
    let after = Probe::take(&server, &[client.stats()]);
    rec.statements(&traced.samples, &traced.failures);
    rec.violations(path_violations(w.path, &w.queries, &traced.samples));

    let mut phase = Breakdown::default();
    phase.add(client.tracer().expect("traced client"));
    let mut setup = Breakdown::default();
    setup.add(&install_tracer);
    let effects: Vec<StmtEffect> = traced.samples.iter().map(|s| s.effect).collect();
    let input_bytes: u64 = traced
        .samples
        .iter()
        .map(|s| w.queries[s.kind].input_bytes)
        .sum();
    let traced_ms: Vec<f64> = traced.samples.iter().map(|s| s.ms).collect();
    rec.layers(&Layers {
        phase: &phase,
        setup: &setup,
        before: &before,
        after: &after,
        effects: &effects,
        input_bytes,
        decode_sinks: rma_storage::decode_sink_events() - sinks0,
        untraced_ms: &read_ms,
        traced_ms: &traced_ms,
    });
    rec.finish()
}

// ---------------------------------------------------------------------
// serve_rw
// ---------------------------------------------------------------------

fn run_serve(args: &Args) -> Outcome {
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let batches = ((window * serve::RATE).round() as usize).max(1);
    let w = Arc::new(serve::build(args.seed, args.scale, batches));
    let setup_loop = w.setup();
    let kinds: Vec<&'static str> = setup_loop.queries.iter().map(|q| q.kind).collect();
    let mut rec = Record::new(args);
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let s = setup_closed(&setup_loop, None);
        setups.push(s.secs);
        rec.statements(&s.warm.samples, &s.warm.failures);
        kept = Some(s.server);
    }
    let server = kept.expect("at least one set-up");
    let measured = serve::run_phase(&server, &w, batches, None);
    rec.serve_phase(&measured);
    rec.failures(serve::check_final(&server, &w, batches));
    rec.violations(spilled(&measured.exec));
    let reads = per_type(
        &kinds,
        measured.reads.iter().map(|r| (r.kind, r.ms)),
        serve::READ_TAIL_PCT,
    );
    rec.per_type("reads", &reads);
    let writes = summarize(&measured.inserts, serve::INSERT_TAIL_PCT);
    rec.per_type("inserts", &[("insert", writes)]);
    rec.put("insert_p50_ms", Json::metric(writes.median, "ms"));
    rec.put("insert_tail_ms", Json::metric(writes.tail, "ms"));
    rec.put("insert_tail_percentile", Json::Num(writes.tail_pct));
    rec.put("insert_samples", Json::from(writes.n));
    rec.put("insert_samples_beyond_tail", Json::from(writes.beyond));
    rec.put(
        "writer_lateness_ms",
        Json::obj([
            ("p50", Json::Num(median(&measured.lateness))),
            (
                "max",
                Json::Num(measured.lateness.iter().copied().fold(0.0, f64::max)),
            ),
        ]),
    );
    rec.put("insert_rate_per_s", Json::Num(serve::RATE));
    rec.put("insert_batch_rows", Json::from(serve::BATCH));
    let read_ms: Vec<f64> = measured.reads.iter().map(|r| r.ms).collect();

    if !args.trace {
        let snap = server.metrics_snapshot();
        rec.end_to_end(&setups, &read_ms, &reads, &snap);
        return rec.finish();
    }
    drop(server);

    let epoch = Instant::now();
    let sinks0 = rma_storage::decode_sink_events();
    let mut install_tracer = Tracer::new(epoch, 0);
    let s = setup_closed(&setup_loop, Some(&mut install_tracer));
    rec.statements(&s.warm.samples, &s.warm.failures);
    let server = s.server;
    let before = Probe::take(&server, &[]);
    let traced = serve::run_phase(
        &server,
        &w,
        batches,
        Some((Tracer::new(epoch, 1), Tracer::new(epoch, 2))),
    );
    let after = Probe::take(&server, &traced.exec);
    rec.serve_phase(&traced);
    rec.failures(serve::check_final(&server, &w, batches));
    rec.violations(spilled(&traced.exec));

    let mut phase = Breakdown::default();
    for t in &traced.tracers {
        phase.add(t);
    }
    let mut setup = Breakdown::default();
    setup.add(&install_tracer);
    let traced_ms: Vec<f64> = traced.reads.iter().map(|r| r.ms).collect();
    rec.layers(&Layers {
        phase: &phase,
        setup: &setup,
        before: &before,
        after: &after,
        effects: &[],
        input_bytes: 0,
        decode_sinks: rma_storage::decode_sink_events() - sinks0,
        untraced_ms: &read_ms,
        traced_ms: &traced_ms,
    });
    rec.finish()
}

fn spilled(exec: &[ExecStats]) -> Vec<String> {
    let bytes: u64 = exec.iter().map(|s| s.spill_bytes).sum();
    if bytes > 0 {
        vec![format!("path: serve_rw spilled {bytes} bytes")]
    } else {
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// records and metrics
// ---------------------------------------------------------------------

/// Counters the program exposes, read at a phase boundary. `exec` sums
/// the statistics of the phase's sessions.
struct Probe {
    at: Instant,
    pool: PoolStats,
    metrics: MetricsSnapshot,
    exec: ExecStats,
}

impl Probe {
    fn take(server: &Server, sessions: &[ExecStats]) -> Probe {
        let mut exec = ExecStats::default();
        for s in sessions {
            exec.copy_in += s.copy_in;
            exec.copy_out += s.copy_out;
            exec.compute += s.compute;
            exec.sort += s.sort;
            exec.ops_run += s.ops_run;
            exec.sorts += s.sorts;
            exec.spill_bytes += s.spill_bytes;
            exec.spill_partitions += s.spill_partitions;
        }
        Probe {
            at: Instant::now(),
            pool: server.context().pool_stats(),
            metrics: server.metrics_snapshot(),
            exec,
        }
    }
}

/// Everything the per-layer metrics are computed from.
struct Layers<'a> {
    /// Spans of the traced phase's statements.
    phase: &'a Breakdown,
    /// Spans of the traced set-up's catalog ingest.
    setup: &'a Breakdown,
    before: &'a Probe,
    after: &'a Probe,
    /// Per statement of the phase (closed loops only).
    effects: &'a [StmtEffect],
    /// Plain bytes the phase's statements read (closed loops only).
    input_bytes: u64,
    /// Forced decodes from the start of the traced set-up (first touches
    /// included) to the end of the phase.
    decode_sinks: u64,
    untraced_ms: &'a [f64],
    traced_ms: &'a [f64],
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("stored_bytes_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of the traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sql.parse.busy_s", "s"),
    ("sql.parse.calls", "count"),
    ("sql.plan.busy_s", "s"),
    ("sql.optimize.busy_s", "s"),
    ("core.plan.exec.busy_s", "s"),
    ("core.plan.exec.relational_s", "s"),
    ("core.plan.exec.rows_out", "count"),
    ("core.plan.materialize.busy_s", "s"),
    ("core.rma.ops", "count"),
    ("core.rma.sorts", "count"),
    ("core.rma.sort_share", "ratio"),
    ("core.rma.copy_in_share", "ratio"),
    ("core.rma.copy_out_share", "ratio"),
    ("core.rma.transform_share", "ratio"),
    ("core.rma.dense_ops", "count"),
    ("core.rma.bat_ops", "count"),
    ("linalg.kernel_share", "ratio"),
    ("relation.par.busy_s", "s"),
    ("relation.par.queue_wait_s", "s"),
    ("relation.par.jobs", "count"),
    ("relation.par.utilization", "ratio"),
    ("relation.spill.bytes", "bytes"),
    ("relation.spill.partitions", "count"),
    ("relation.spill.bytes_per_input_byte", "ratio"),
    ("storage.encoding.decode_sinks", "count"),
    ("storage.encoding.encoded_bytes", "bytes"),
    ("storage.encoding.plain_bytes", "bytes"),
    ("serve.catalog.install_s", "s"),
    ("serve.catalog.refresh.busy_s", "s"),
    ("serve.insert.share", "ratio"),
    ("serve.insert.prepare_share", "ratio"),
    ("serve.insert.commit_share", "ratio"),
    ("serve.insert.conflicts", "count"),
    ("serve.insert.retries", "count"),
    ("trace.statements", "count"),
    ("trace.statement_glue_s", "s"),
    ("trace.overhead_share", "ratio"),
];

fn per_layer_values(l: &Layers) -> BTreeMap<&'static str, f64> {
    let (b, a) = (l.before, l.after);
    let p = l.phase;
    let secs = |d: Duration| d.as_secs_f64();
    let exec_s = p.self_s("core.plan.exec");
    let rma_s = p.counter("core.plan.exec.rma_ns") as f64 / 1e9;
    let copy = secs(a.exec.copy_in - b.exec.copy_in) + secs(a.exec.copy_out - b.exec.copy_out);
    let kernel = secs(a.exec.compute - b.exec.compute);
    let wall = secs(a.at - b.at);
    let threads = a.pool.threads.max(1) as f64;
    let pool_busy = secs(a.pool.busy.saturating_sub(b.pool.busy));
    let spill = (a.exec.spill_bytes - b.exec.spill_bytes) as f64;
    let kernels = |k: &[KernelUsed]| {
        l.effects
            .iter()
            .filter(|e| e.kernel.is_some_and(|x| k.contains(&x)))
            .count() as f64
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    // layers only some workloads reach are reported as shares of the
    // traced statements' time, so none of the times reads a constant 0
    let statement_s = p.total_s("statement");
    let share = |s: f64| {
        if statement_s > 0.0 {
            s / statement_s
        } else {
            0.0
        }
    };
    let mut m = BTreeMap::new();
    let mut put = |k: &'static str, v: f64| {
        m.insert(k, v);
    };
    put("sql.parse.busy_s", p.self_s("sql.parse"));
    put("sql.parse.calls", p.calls("sql.parse") as f64);
    put("sql.plan.busy_s", p.self_s("sql.plan"));
    put("sql.optimize.busy_s", p.self_s("sql.optimize"));
    put("core.plan.exec.busy_s", exec_s);
    put("core.plan.exec.relational_s", (exec_s - rma_s).max(0.0));
    put(
        "core.plan.exec.rows_out",
        p.counter("core.plan.exec.rows_out") as f64,
    );
    put(
        "core.plan.materialize.busy_s",
        p.self_s("core.plan.materialize"),
    );
    put("core.rma.ops", f64::from(a.exec.ops_run - b.exec.ops_run));
    put("core.rma.sorts", f64::from(a.exec.sorts - b.exec.sorts));
    put(
        "core.rma.sort_share",
        share(secs(a.exec.sort - b.exec.sort)),
    );
    put(
        "core.rma.copy_in_share",
        share(secs(a.exec.copy_in - b.exec.copy_in)),
    );
    put(
        "core.rma.copy_out_share",
        share(secs(a.exec.copy_out - b.exec.copy_out)),
    );
    put(
        "core.rma.transform_share",
        if copy + kernel > 0.0 {
            copy / (copy + kernel)
        } else {
            0.0
        },
    );
    put(
        "core.rma.dense_ops",
        kernels(&[KernelUsed::Dense, KernelUsed::DenseFallback]),
    );
    put("core.rma.bat_ops", kernels(&[KernelUsed::Bat]));
    put("linalg.kernel_share", share(kernel));
    put("relation.par.busy_s", pool_busy);
    put(
        "relation.par.queue_wait_s",
        secs(a.pool.queue_wait.saturating_sub(b.pool.queue_wait)),
    );
    put(
        "relation.par.jobs",
        (a.pool.jobs_run - b.pool.jobs_run) as f64,
    );
    put("relation.par.utilization", pool_busy / (threads * wall));
    put("relation.spill.bytes", spill);
    put(
        "relation.spill.partitions",
        (a.exec.spill_partitions - b.exec.spill_partitions) as f64,
    );
    put(
        "relation.spill.bytes_per_input_byte",
        if l.input_bytes > 0 {
            spill / l.input_bytes as f64
        } else {
            0.0
        },
    );
    put("storage.encoding.decode_sinks", l.decode_sinks as f64);
    put(
        "storage.encoding.encoded_bytes",
        a.metrics.storage_encoded_bytes as f64,
    );
    put(
        "storage.encoding.plain_bytes",
        a.metrics.storage_plain_bytes as f64,
    );
    put(
        "serve.catalog.install_s",
        l.setup.self_s("serve.catalog.install"),
    );
    put(
        "serve.catalog.refresh.busy_s",
        p.self_s("serve.catalog.refresh"),
    );
    put("serve.insert.share", share(p.total_s("serve.insert")));
    put(
        "serve.insert.prepare_share",
        share(p.self_s("serve.insert.prepare")),
    );
    put(
        "serve.insert.commit_share",
        share(p.self_s("serve.insert.commit")),
    );
    put(
        "serve.insert.conflicts",
        (a.metrics.conflicts - b.metrics.conflicts) as f64,
    );
    put(
        "serve.insert.retries",
        (a.metrics.retries - b.metrics.retries) as f64,
    );
    put("trace.statements", p.statements as f64);
    put("trace.statement_glue_s", p.self_s("statement"));
    put(
        "trace.overhead_share",
        mean(l.traced_ms) / mean(l.untraced_ms) - 1.0,
    );
    m
}

/// The run's record and result, built up as the run goes.
struct Record {
    fields: Vec<(String, Json)>,
    metrics: Vec<(String, Json)>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Record {
    fn new(args: &Args) -> Record {
        let why = WORKLOADS
            .iter()
            .find(|(w, _)| *w == args.workload)
            .map_or("", |(_, why)| *why);
        let hw = std::thread::available_parallelism().map_or(0, |n| n.get());
        let fields = vec![
            ("record".to_string(), Json::str("perfbench")),
            ("workload".to_string(), Json::str(&args.workload)),
            ("why".to_string(), Json::str(why)),
            ("git_sha".to_string(), Json::str(git_sha())),
            ("hw_threads".to_string(), Json::from(hw)),
            (
                "pool_threads".to_string(),
                Json::from(rma_core::default_threads()),
            ),
            ("seed".to_string(), Json::Int(args.seed as i64)),
            ("scale".to_string(), Json::Num(args.scale)),
            ("seconds".to_string(), Json::Num(args.seconds)),
            ("trace".to_string(), Json::Bool(args.trace)),
        ];
        Record {
            fields,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn put(&mut self, key: &str, v: Json) {
        self.fields.push((key.to_string(), v));
    }

    fn statements(&mut self, samples: &[Sample], failures: &[String]) {
        self.attempted += samples.len();
        self.failed += failures.len();
        self.failures.extend(failures.iter().cloned());
    }

    fn serve_phase(&mut self, p: &serve::Phase) {
        self.attempted += p.reads.len() + p.inserts.len();
        self.failed += p.failures.len();
        self.failures.extend(p.failures.iter().cloned());
    }

    /// Failed checks that are statements of their own.
    fn failures(&mut self, f: Vec<String>) {
        self.attempted += 1;
        self.failed += f.len().min(1);
        self.failures.extend(f);
    }

    /// Path-assertion failures: the run is not correct, though every
    /// statement may have answered correctly.
    fn violations(&mut self, v: Vec<String>) {
        self.failures.extend(v);
    }

    fn per_type(&mut self, key: &str, types: &[(&'static str, Summary)]) {
        let obj = Json::obj(types.iter().map(|(k, s)| {
            (
                *k,
                Json::obj([
                    ("n", Json::from(s.n)),
                    ("p50_ms", Json::Num(s.median)),
                    ("tail_ms", Json::Num(s.tail)),
                    ("tail_percentile", Json::Num(s.tail_pct)),
                    ("samples_beyond_tail", Json::from(s.beyond)),
                ]),
            )
        }));
        self.put(key, obj);
    }

    fn end_to_end(
        &mut self,
        setups: &[f64],
        read_ms: &[f64],
        reads: &[(&str, Summary)],
        snap: &MetricsSnapshot,
    ) {
        let read_s: f64 = read_ms.iter().sum::<f64>() / 1e3;
        let values = [
            median(setups),
            read_ms.len() as f64 / read_s,
            geomean(reads.iter().map(|(_, s)| s.median)),
            geomean(reads.iter().map(|(_, s)| s.tail)),
            snap.storage_encoded_bytes as f64 / snap.storage_plain_bytes.max(1) as f64,
            peak_rss_mb().unwrap_or(f64::NAN),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            self.metrics.push((name.to_string(), Json::metric(v, unit)));
        }
        self.put("setup_samples", Json::from(setups.len()));
    }

    fn layers(&mut self, l: &Layers) {
        let values = per_layer_values(l);
        for (name, unit) in PER_LAYER {
            self.metrics
                .push((name.to_string(), Json::metric(values[name], unit)));
        }
        let spans = Json::obj(l.phase.self_ns.iter().map(|(name, ns)| {
            (
                *name,
                Json::obj([
                    ("self_s", Json::Num(*ns as f64 / 1e9)),
                    ("calls", Json::from(l.phase.calls(name))),
                ]),
            )
        }));
        self.put("self_time_by_span", spans);
        let (b, a) = (&l.before.exec, &l.after.exec);
        self.put(
            "rma_phase_s",
            Json::obj([
                ("sort", Json::Num((a.sort - b.sort).as_secs_f64())),
                ("copy_in", Json::Num((a.copy_in - b.copy_in).as_secs_f64())),
                (
                    "copy_out",
                    Json::Num((a.copy_out - b.copy_out).as_secs_f64()),
                ),
                ("kernel", Json::Num((a.compute - b.compute).as_secs_f64())),
            ]),
        );
        self.put("spans_recorded", Json::from(l.phase.spans + l.setup.spans));
    }

    fn finish(mut self) -> Outcome {
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        self.put("error_rate", Json::metric(error_rate, "ratio"));
        self.put("attempted", Json::from(self.attempted));
        self.put("failed", Json::from(self.failed));
        self.put(
            "failures",
            Json::Arr(self.failures.iter().take(20).map(Json::str).collect()),
        );
        self.put("metrics", Json::Obj(self.metrics.clone()));
        let result = Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(self.metrics)),
        ]);
        Outcome {
            record: Json::Obj(self.fields),
            result,
            failures: self.failures,
        }
    }
}

/// The checked-out commit, from `.git` in the working directory when there
/// is one.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(reference) {
        return sha.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload and its oracles end to end at a tiny scale, untraced
    /// and traced.
    #[test]
    fn every_workload_runs_correctly_at_tiny_scale() {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: 0.5,
                    trace,
                    scale: 0.05,
                };
                let out = run(&args);
                assert!(
                    out.correct(),
                    "{workload} trace={trace}: {:?}",
                    out.failures
                );
                let names: Vec<&str> = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                }
                .iter()
                .map(|(n, _)| *n)
                .collect();
                let Json::Obj(top) = &out.result else {
                    panic!("result is an object")
                };
                let Some((_, Json::Obj(metrics))) = top.iter().find(|(k, _)| k == "metrics") else {
                    panic!("result has metrics")
                };
                let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(got, names, "{workload} trace={trace}");
            }
        }
    }

    /// `BENCHMARK.json` at the repository root declares exactly what this
    /// program prints, in the same order.
    #[test]
    fn benchmark_json_matches_the_program() {
        let spec = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let mut at = 0;
        let mut expect = |needle: String| {
            let found = spec[at..]
                .find(&needle)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks (or misorders) {needle}"));
            at += found + needle.len();
        };
        for (name, why) in WORKLOADS {
            expect(format!(r#"{{"name": "{name}", "why": "{why}"}}"#));
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            expect(format!(r#"{{"name": "{name}", "unit": "{unit}""#));
        }
        assert_eq!(
            spec.matches(r#""name":"#).count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload serve_rw --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve_rw --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve_rw --seed")).is_err());
    }
}
