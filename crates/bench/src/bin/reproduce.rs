//! Regenerate every table and figure of the paper's evaluation (§8).
//!
//! ```text
//! reproduce [--scale N] [--check] [fig13|...|fig18|scaling|pipeline|joinorder|sort|concurrency|profile|robustness|spill|compress|all]
//! ```
//!
//! `--scale N` divides the paper's cardinalities by `N` (default 100) so a
//! full run finishes on a laptop. Absolute times differ from the paper (its
//! testbed was a 12-core Xeon with MKL); the *shapes* — who wins, by what
//! factor, where the crossovers are — are the reproduction target; each
//! figure prints its table to standard output, and the engine benches also
//! write their `BENCH_*.json` records.
//!
//! `--check` turns the engine benches (`pipeline`, `joinorder`, `sort`)
//! into a regression gate: every emitted speedup is compared against its
//! committed floor (the `FLOOR_*` constants below) and the process exits
//! non-zero if any falls short — so a perf win, once landed, cannot
//! silently regress. Floors that require real hardware parallelism (the
//! parallel-vs-serial sort/top-k ones) are skipped, loudly, below
//! `GATE_MIN_HW` hardware threads; checksum parity is always asserted.

use rma_bench::workloads::{
    run_conferences_covariance, run_journeys_regression, run_scidb_comparison, run_trip_count,
    run_trips_ols, trip_count_tables, SystemKind,
};
use rma_core::{Backend, RmaContext, RmaOptions, SortPolicy};
use std::time::{Duration, Instant};

/// Committed speedup floors for `--check` (per bench record). Parity
/// (1.0×) is the regression line: the engine's lazy pipeline, join
/// reordering, and parallel sort/top-k must never be *slower* than the
/// baseline they replaced; typical measured values are far higher (see the
/// BENCH_*.json artifacts).
const FLOOR_PIPELINE: f64 = 1.0;
/// Reordered vs written join order at the bench's skew: floor at parity.
const FLOOR_JOINORDER: f64 = 1.0;
/// Parallel vs serial full sort (armed at ≥ `GATE_MIN_HW` hardware threads).
const FLOOR_SORT: f64 = 1.0;
/// Parallel vs serial top-k (armed at ≥ `GATE_MIN_HW` hardware threads).
/// Deliberately below parity: the gated top-k run is sub-millisecond at
/// --scale 400, so even best-of-5 minima carry scheduler noise on a shared
/// 4-vCPU runner — the floor catches real regressions (serial fallback,
/// quadratic merge), not timer jitter. The sort floor stays at parity; its
/// ~40 ms runs are stable.
const FLOOR_TOPK: f64 = 0.9;
/// Concurrent sessions vs one serial session on the serving layer (armed
/// at ≥ `GATE_MIN_HW` hardware threads). Six budget-1 session threads on a
/// ≥4-core machine typically land ≥2×; the committed floor is conservative
/// because a shared runner's spare cores are not guaranteed.
const FLOOR_CONCURRENCY: f64 = 1.2;
/// Minimum hardware threads before the parallel-vs-serial floors arm.
/// Below this the pool can be oversubscribed (workers > cores) and
/// sub-parity results are legitimate — e.g. a 2-worker sort on 1 core, or
/// a sub-millisecond top-k on a noisy 2-core shared runner — so gating
/// would only measure the scheduler.
const GATE_MIN_HW: usize = 4;

/// Tracing overhead: traced vs untraced run of the same workload,
/// expressed as a speedup (untraced / traced); the floor is the
/// "profiling overhead ≤ 5%" contract. Armed at ≥ `GATE_MIN_HW`
/// hardware threads like the other parallel floors: the workload runs on
/// the pool, and when workers outnumber cores the run-to-run scheduler
/// jitter of the ~20 ms runs exceeds the 5% band in both directions.
const FLOOR_PROFILE: f64 = 0.95;

/// Resource governance overhead: a governed query (active deadline +
/// memory budget, so every morsel claim polls the guard and every
/// materialization point charges the accountant) vs the identical
/// ungoverned query, expressed as a speedup (ungoverned / governed). The
/// floor is the "governance costs ≤ 5%" contract; the poll is one relaxed
/// atomic load per morsel and the charges are a handful of `fetch_add`s
/// per operator, so typical measured values sit at parity.
const FLOOR_ROBUSTNESS: f64 = 0.95;

/// Out-of-core throughput: a join/sort forced through the spill path by a
/// tiny budget vs the identical unbudgeted in-memory run, expressed as a
/// ratio (in-memory time / spilled time, so smaller = slower spill). Disk
/// runs are legitimately slower — partitioning writes every input row out
/// and reads it back — so this floor only catches a collapse of the spill
/// path, not a slowdown. Checksum parity is asserted unconditionally.
const FLOOR_SPILL: f64 = 0.05;

/// Storage compression on the few-distinct workload: plain bytes over
/// encoded bytes across the catalog after ingest-side encoding. The
/// workload (clustered low-cardinality strings, long integer runs, small
/// value ranges) compresses far better than 2× in practice; the committed
/// floor is the "compression pays" contract.
const FLOOR_COMPRESS_RATIO: f64 = 2.0;

/// Encoded-kernel throughput vs the identical query over plain storage
/// (plain time / encoded time). The encoded kernels — per-code dictionary
/// predicate LUTs, run-at-a-time RLE aggregation — must never be slower
/// than decode-then-run; typical measured values are well above parity.
const FLOOR_COMPRESS_SPEED: f64 = 1.0;

/// The `--check` regression gate: collects floor violations across bench
/// targets and fails the process at the end of the run.
struct Gate {
    check: bool,
    failures: Vec<String>,
    checked: usize,
    /// Floors skipped this run, as `bench — reason` lines (printed in the
    /// final summary and embedded in each bench's JSON record).
    skipped: Vec<String>,
}

impl Gate {
    /// Record one emitted speedup against its committed floor, returning
    /// the gate status for the bench's JSON record: `"checked"`,
    /// `"skipped: <reason>"`, or `"off"` outside `--check`.
    /// `needs_parallelism` marks parallel-vs-serial speedups, which are
    /// meaningless without enough cores and skipped (loudly) there.
    fn record(&mut self, bench: &str, speedup: f64, floor: f64, needs_parallelism: bool) -> String {
        if needs_parallelism && hardware_threads() < GATE_MIN_HW {
            let reason = format!(
                "needs hardware parallelism: {} hardware thread(s), need {GATE_MIN_HW}",
                hardware_threads()
            );
            if self.check {
                println!("(--check: skipping `{bench}` floor — {reason})");
                self.skipped.push(format!("{bench} — {reason}"));
            }
            return format!("skipped: {reason}");
        }
        if !self.check {
            return "off".to_string();
        }
        self.checked += 1;
        if speedup < floor {
            self.failures.push(format!(
                "{bench}: speedup {speedup:.3} below committed floor {floor:.2}"
            ));
        }
        "checked".to_string()
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 100usize;
    let mut check = false;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--scale" {
            scale = it
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die("--scale needs a positive integer"));
            if scale == 0 {
                die("--scale must be >= 1")
            }
        } else if a == "--check" {
            check = true;
        } else {
            targets.push(a.to_lowercase());
        }
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        targets = [
            "fig13",
            "tab4",
            "tab5",
            "tab6",
            "tab7",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "scaling",
            "pipeline",
            "joinorder",
            "sort",
            "concurrency",
            "profile",
            "robustness",
            "spill",
            "compress",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    let mut gate = Gate {
        check,
        failures: Vec::new(),
        checked: 0,
        skipped: Vec::new(),
    };
    println!("# RMA reproduction — scale 1/{scale} of the paper's sizes\n");
    for t in &targets {
        match t.as_str() {
            "fig13" => fig13(scale),
            "tab4" => tab4(scale),
            "tab5" => tab5(scale),
            "tab6" => tab6(scale),
            "tab7" => tab7(scale),
            "fig14" => fig14(scale),
            "fig15" => fig15(scale),
            "fig16" => fig16(scale),
            "fig17" => fig17(scale),
            "fig18" => fig18(scale),
            "scaling" => scaling(scale),
            "pipeline" => pipeline(scale, &mut gate),
            "joinorder" => joinorder(scale, &mut gate),
            "sort" => sort_bench(scale, &mut gate),
            "concurrency" => concurrency(scale, &mut gate),
            "profile" => profile(scale, &mut gate),
            "robustness" => robustness(scale, &mut gate),
            "spill" => spill_bench(scale, &mut gate),
            "compress" => compress_bench(scale, &mut gate),
            other => eprintln!("unknown target `{other}` (skipped)"),
        }
    }
    if check {
        if !gate.failures.is_empty() {
            for f in &gate.failures {
                eprintln!("--check FAILED: {f}");
            }
            std::process::exit(1);
        } else if gate.checked == 0 {
            // a green gate that verified nothing must say so
            println!(
                "--check: no floors checked ({} skipped; did the run include a gated bench?)",
                gate.skipped.len()
            );
        } else {
            println!(
                "--check: {} floor(s) at or above their committed values ({} skipped)",
                gate.checked,
                gate.skipped.len()
            );
        }
        for s in &gate.skipped {
            println!("--check: skipped {s}");
        }
    }
}

/// Best-of-N timing for gated benches: minima are far more stable than
/// single runs on shared CI machines, which matters because `--check`
/// compares each speedup against a hard floor. Asserts the checksum is
/// identical across repeats.
fn best_of(reps: usize, f: &dyn Fn() -> (Duration, i64)) -> (Duration, i64) {
    let (mut best_t, check) = f();
    for _ in 1..reps {
        let (t, c) = f();
        assert_eq!(c, check, "bench checksum diverged between repeats");
        best_t = best_t.min(t);
    }
    (best_t, check)
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

fn ctx(sort: SortPolicy) -> RmaContext {
    RmaContext::new(RmaOptions {
        backend: Backend::Auto,
        sort_policy: sort,
        ..RmaOptions::default()
    })
}

/// Fig. 13: cost of maintaining contextual information — add and qqr over
/// relations with one application column and many order columns, sorted vs
/// optimised.
fn fig13(scale: usize) {
    println!("## Figure 13 — handling contextual information");
    for (rows, attr_points) in [
        (100_000 / scale.max(1), vec![200usize, 400, 600, 800, 1000]),
        (1_000_000 / scale.max(1), vec![20, 40, 60, 80, 100]),
    ] {
        let rows = rows.max(100);
        println!("### {rows} tuples");
        println!(
            "{:>8} {:>12} {:>16} {:>12} {:>16}",
            "#order", "add(s)", "add rel-sort(s)", "qqr(s)", "qqr no-sort(s)"
        );
        for &attrs in &attr_points {
            let r = rma_data::uniform_relation(rows, attrs, 1, 13);
            let s = {
                let renames: Vec<(String, String)> =
                    std::iter::once(("a0".to_string(), "b0".to_string()))
                        .chain((0..attrs).map(|k| (format!("k{k}"), format!("j{k}"))))
                        .collect();
                let refs: Vec<(&str, &str)> = renames
                    .iter()
                    .map(|(a, b)| (a.as_str(), b.as_str()))
                    .collect();
                rma_relation::rename(&r, &refs).expect("rename")
            };
            let order: Vec<String> = (0..attrs).map(|k| format!("k{k}")).collect();
            let order_refs: Vec<&str> = order.iter().map(String::as_str).collect();
            let s_order: Vec<String> = (0..attrs).map(|k| format!("j{k}")).collect();
            let s_order_refs: Vec<&str> = s_order.iter().map(String::as_str).collect();

            let t = Instant::now();
            ctx(SortPolicy::Always)
                .add(&r, &order_refs, &s, &s_order_refs)
                .expect("add");
            let add_full = t.elapsed();
            let t = Instant::now();
            ctx(SortPolicy::Optimized)
                .add(&r, &order_refs, &s, &s_order_refs)
                .expect("add");
            let add_rel = t.elapsed();
            let t = Instant::now();
            ctx(SortPolicy::Always).qqr(&r, &order_refs).expect("qqr");
            let qqr_full = t.elapsed();
            let t = Instant::now();
            ctx(SortPolicy::Optimized)
                .qqr(&r, &order_refs)
                .expect("qqr");
            let qqr_skip = t.elapsed();
            println!(
                "{attrs:>8} {:>12} {:>16} {:>12} {:>16}",
                secs(add_full),
                secs(add_rel),
                secs(qqr_full),
                secs(qqr_skip)
            );
        }
    }
    println!();
}

/// Table 4: add over wide relations (1K–10K application attributes).
fn tab4(scale: usize) {
    println!("## Table 4 — add over wide relations");
    let rows = 1000usize;
    let max_attrs = (10_000 / scale.max(1)).max(100);
    let step = max_attrs / 10;
    println!("{:>8} {:>10}", "#attr", "sec");
    let mut attrs = step;
    while attrs <= max_attrs {
        let (a, b) = wide_pair(rows, attrs);
        let t = Instant::now();
        ctx(SortPolicy::Optimized)
            .add(&a, &["k0"], &b, &["k"])
            .expect("add");
        println!("{attrs:>8} {:>10}", secs(t.elapsed()));
        attrs += step;
    }
    println!();
}

fn wide_pair(rows: usize, attrs: usize) -> (rma_relation::Relation, rma_relation::Relation) {
    let a = rma_data::wide_relation(rows, attrs, 4);
    let b = rma_data::wide_relation(rows, attrs, 5);
    let b = rma_relation::rename(&b, &[("k0", "k")]).expect("rename");
    (a, b)
}

/// Table 5: add over sparse relations, zero share 0%–100%.
fn tab5(scale: usize) {
    println!("## Table 5 — add over sparse relations (zero-run compressed)");
    let rows = (5_000_000 / scale.max(1)).max(10_000);
    println!("{:>6} {:>12} {:>14}", "%zero", "dense(s)", "compressed(s)");
    for pct in (0..=100).step_by(10) {
        let (a, b) = rma_data::sparse_pair(rows, 10, pct as f64 / 100.0, 100 + pct as u64);
        // dense columnar add through RMA
        let t = Instant::now();
        ctx(SortPolicy::Optimized)
            .add(&a, &["lk"], &b, &["rk"])
            .expect("add");
        let dense = t.elapsed();
        // compressed add on the storage layer (MonetDB's compression role)
        let t = Instant::now();
        let mut compressed_total = Duration::ZERO;
        for c in 0..10 {
            let ca = a
                .column(&format!("l{c}"))
                .expect("col")
                .to_f64_vec()
                .expect("num");
            let cb = b
                .column(&format!("r{c}"))
                .expect("col")
                .to_f64_vec()
                .expect("num");
            let ca = rma_storage::Rle::encode(&ca);
            let cb = rma_storage::Rle::encode(&cb);
            let t2 = Instant::now();
            std::hint::black_box(rma_storage::encoding::rle_add_f64(&ca, &cb));
            compressed_total += t2.elapsed();
        }
        let _ = t.elapsed();
        println!(
            "{pct:>6} {:>12} {:>14}",
            secs(dense),
            secs(compressed_total)
        );
    }
    println!();
}

/// Table 6: qqr — R simulator vs RMA+ across sizes.
fn tab6(scale: usize) {
    println!("## Table 6 — qqr runtimes, R vs RMA+");
    println!(
        "{:>10} {:>6} {:>10} {:>10} {:>12}",
        "tuples", "attrs", "R(s)", "RMA+(s)", "RMA+ kernel"
    );
    for tuples in [5_000_000 / scale.max(1), 50_000_000 / scale.max(1)] {
        let tuples = tuples.max(10_000);
        for attrs in [10usize, 40, 70] {
            let r = rma_data::uniform_relation(tuples, 1, attrs, 6);
            // R: copy into row-major matrix, Householder QR, copy back
            let eng = rma_bench::MatEngine::new(rma_bench::MatFlavor::RMatrix);
            let cols: Vec<String> = (0..attrs).map(|c| format!("a{c}")).collect();
            let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            let mut times = rma_bench::SimTimes::default();
            let t = Instant::now();
            let m = eng.enter(&r, &col_refs, &mut times);
            let q = rma_linalg::dense::qr(&m).expect("qr").q;
            eng.exit(q, &mut times);
            let r_time = t.elapsed();
            // RMA+: auto policy decides dense vs BAT by the memory budget
            let c = ctx(SortPolicy::Optimized);
            let t = Instant::now();
            c.qqr(&r, &["k0"]).expect("qqr");
            let rma_time = t.elapsed();
            let kernel = match c.stats().last_kernel {
                Some(rma_core::KernelUsed::Bat) => "BAT",
                _ => "MKL",
            };
            println!(
                "{tuples:>10} {attrs:>6} {:>10} {:>10} {:>12}",
                secs(r_time),
                secs(rma_time),
                kernel
            );
        }
    }
    println!();
}

/// Table 7: add followed by a selection — RMA+ vs the SciDB simulator.
fn tab7(scale: usize) {
    println!("## Table 7 — add + selection, RMA+ vs SciDB");
    println!(
        "{:>10} {:>10} {:>10} {:>8}",
        "tuples", "RMA+(s)", "SciDB(s)", "ratio"
    );
    for tuples in [1_000_000, 5_000_000, 10_000_000, 15_000_000] {
        let tuples = (tuples / scale.max(1)).max(10_000);
        let (a, b) = trip_count_tables(tuples, 10, 7);
        let (rma_t, scidb_t, _, _) = run_scidb_comparison(&a, &b, 10_000.0);
        println!(
            "{tuples:>10} {:>10} {:>10} {:>8.1}",
            secs(rma_t),
            secs(scidb_t),
            scidb_t.as_secs_f64() / rma_t.as_secs_f64()
        );
    }
    println!();
}

/// Fig. 14: share of runtime spent on data transformation.
fn fig14(scale: usize) {
    println!("## Figure 14 — data transformation share (%)");
    let ops: [(&str, rma_core::RmaOp); 6] = [
        ("ADD", rma_core::RmaOp::Add),
        ("EMU", rma_core::RmaOp::Emu),
        ("MMU", rma_core::RmaOp::Mmu),
        ("QQR", rma_core::RmaOp::Qqr),
        ("DSV", rma_core::RmaOp::Dsv),
        ("VSV", rma_core::RmaOp::Vsv),
    ];
    for rows in [
        100_000 / scale.max(1),
        300_000 / scale.max(1),
        500_000 / scale.max(1),
    ] {
        let rows = rows.max(2_000);
        let r = rma_data::uniform_relation(rows, 1, 50, 14);
        let s = {
            let mut renames = vec![("k0".to_string(), "k".to_string())];
            renames.extend((0..50).map(|c| (format!("a{c}"), format!("b{c}"))));
            let refs: Vec<(&str, &str)> = renames
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            rma_relation::rename(&r, &refs).expect("rename")
        };
        print!("{rows:>9} rows: ");
        for (name, op) in ops {
            let c = RmaContext::with_backend(Backend::Dense);
            match op {
                rma_core::RmaOp::Add | rma_core::RmaOp::Emu => {
                    c.binary(op, &r, &["k0"], &s, &["k"]).expect("binary");
                }
                rma_core::RmaOp::Mmu => {
                    // square 50×50 second operand: r's app columns (50) must
                    // match s2's tuple count
                    let s2 = rma_data::uniform_relation(50, 1, 50, 15);
                    c.binary(op, &r, &["k0"], &s2, &["k0"]).expect("mmu");
                }
                _ => {
                    c.unary(op, &r, &["k0"]).expect("unary");
                }
            }
            let share = c.stats().transform_share() * 100.0;
            print!("{name}={share:>4.0} ");
        }
        println!();
    }
    println!("(RMA+ dense path; the BAT path has share 0 by construction)\n");
}

fn print_reports(title: &str, reports: &[rma_bench::WorkloadReport]) {
    println!("{title}");
    println!(
        "{:>10} {:>10} {:>12} {:>10} {:>10} {:>14}",
        "system", "prep(s)", "transform(s)", "matrix(s)", "total(s)", "check"
    );
    for r in reports {
        println!(
            "{:>10} {:>10} {:>12} {:>10} {:>10} {:>14.4}",
            r.system.name(),
            secs(r.prep),
            secs(r.transform),
            secs(r.matrix),
            secs(r.total()),
            r.check
        );
    }
    println!();
}

const SYSTEMS: [SystemKind; 4] = [
    SystemKind::RmaAuto,
    SystemKind::Aida,
    SystemKind::R,
    SystemKind::Madlib,
];

/// Fig. 15: trips OLS across systems and RMA backends.
fn fig15(scale: usize) {
    println!("## Figure 15 — Trips (ordinary linear regression)");
    for millions in [3.1f64, 6.5, 10.5, 14.5] {
        let n = ((millions * 1e6) as usize / scale.max(1)).max(20_000);
        let trips = rma_data::trips(n, 120, 15);
        let stations = rma_data::stations(120, 15 ^ 0x5a5a);
        let mut reports: Vec<_> = SYSTEMS
            .iter()
            .map(|&s| run_trips_ols(s, &trips, &stations, 50))
            .collect();
        reports.push(run_trips_ols(SystemKind::RmaBat, &trips, &stations, 50));
        reports.push(run_trips_ols(SystemKind::RmaMkl, &trips, &stations, 50));
        print_reports(&format!("### {n} trips"), &reports);
    }
}

/// Fig. 16: journeys multiple regression.
fn fig16(scale: usize) {
    println!("## Figure 16 — Journeys (multiple linear regression)");
    let n = (15_000_000 / scale.max(1)).max(30_000);
    let journeys = rma_data::journeys(n, 60, 16);
    let stations = rma_data::stations(60, 16 ^ 0xa5a5);
    for hops in 1..=5usize {
        let mut reports: Vec<_> = SYSTEMS
            .iter()
            .map(|&s| run_journeys_regression(s, &journeys, &stations, hops))
            .collect();
        reports.push(run_journeys_regression(
            SystemKind::RmaBat,
            &journeys,
            &stations,
            hops,
        ));
        reports.push(run_journeys_regression(
            SystemKind::RmaMkl,
            &journeys,
            &stations,
            hops,
        ));
        print_reports(&format!("### journeys of {hops} trip(s)"), &reports);
    }
}

/// Fig. 17: conference covariance.
fn fig17(scale: usize) {
    println!("## Figure 17 — Conferences (covariance)");
    let sizes = [
        (337_363usize, 266usize),
        (550_085, 519),
        (722_891, 744),
        (876_559, 882),
    ];
    for (authors, confs) in sizes {
        let authors = (authors / scale.max(1)).max(2_000);
        let confs = (confs / (scale.max(1) / 10).max(1)).clamp(30, 900);
        let pubs = rma_data::publications(authors, confs, 17);
        let rankings = rma_data::rankings(confs, 17);
        let mut reports: Vec<_> = [SystemKind::RmaAuto, SystemKind::Aida, SystemKind::R]
            .iter()
            .map(|&s| run_conferences_covariance(s, &pubs, &rankings))
            .collect();
        reports.push(run_conferences_covariance(
            SystemKind::RmaBat,
            &pubs,
            &rankings,
        ));
        reports.push(run_conferences_covariance(
            SystemKind::RmaMkl,
            &pubs,
            &rankings,
        ));
        print_reports(
            &format!("### {authors} authors × {confs} conferences"),
            &reports,
        );
    }
}

/// Thread scaling (PR 2): the morsel-driven engine's fixed
/// scan→select→aggregate workload at 1/2/4/8 worker threads.
fn scaling(scale: usize) {
    println!("## Thread scaling — morsel-driven scan→select→aggregate");
    let rows = (40_000_000 / scale.max(1)).max(200_000);
    let table = rma_bench::thread_scaling_table(rows, 42);
    println!("### {rows} rows, 64 groups");
    println!("{:>8} {:>12} {:>10}", "threads", "time(s)", "speedup");
    // warm up (page in the table) and establish the serial baseline
    let _ = rma_bench::run_thread_scaling(&table, 1);
    let (base, check1) = rma_bench::run_thread_scaling(&table, 1);
    println!("{:>8} {:>12} {:>10.2}", 1, secs(base), 1.0);
    let mut records = vec![format!(
        "{{\"threads\": 1, \"rows\": {rows}, \"time_s\": {:.6}, \"speedup\": 1.0}}",
        base.as_secs_f64()
    )];
    for threads in [2usize, 4, 8] {
        let (t, check) = rma_bench::run_thread_scaling(&table, threads);
        assert_eq!(
            check, check1,
            "parallel result diverged at {threads} threads"
        );
        let speedup = base.as_secs_f64() / t.as_secs_f64();
        println!("{:>8} {:>12} {:>10.2}", threads, secs(t), speedup);
        records.push(format!(
            "{{\"threads\": {threads}, \"rows\": {rows}, \"time_s\": {:.6}, \"speedup\": {:.3}}}",
            t.as_secs_f64(),
            speedup
        ));
    }
    let json = format!("[\n  {}\n]\n", records.join(",\n  "));
    std::fs::write("BENCH_scaling.json", &json).expect("write BENCH_scaling.json");
    println!("(recorded in BENCH_scaling.json; target: ≥1.5× at 4 threads on a ≥4-core machine)\n");
}

/// Late materialization (PR 3): the Scan→Select→Project→Join chain at
/// 1% / 10% / 90% selectivity, eager copy-per-operator execution vs the
/// selection-vector pipeline. Emits BENCH_pipeline.json.
fn pipeline(scale: usize, gate: &mut Gate) {
    println!("## Pipeline — late materialization (Scan→Select→Project→Join)");
    let rows = (20_000_000 / scale.max(1)).max(100_000);
    let (fact, dim) = rma_bench::pipeline_tables(rows, 1000, 33);
    println!("### {rows} fact rows × 1000 dimension rows");
    println!(
        "{:>6} {:>12} {:>12} {:>8}",
        "%keep", "eager(s)", "lazy(s)", "speedup"
    );
    let mut records = Vec::new();
    for pct in [1usize, 10, 90] {
        let cutoff = (pct * 10) as i64; // f is uniform in 0..1000
                                        // warm-up pass (page in the tables), then best-of-3 per mode
        let _ = rma_bench::run_pipeline(&fact, &dim, cutoff, false);
        let (eager_t, eager_check) =
            best_of(3, &|| rma_bench::run_pipeline(&fact, &dim, cutoff, true));
        let (lazy_t, lazy_check) =
            best_of(3, &|| rma_bench::run_pipeline(&fact, &dim, cutoff, false));
        assert_eq!(
            eager_check, lazy_check,
            "eager and lazy pipelines diverged at {pct}% selectivity"
        );
        let speedup = eager_t.as_secs_f64() / lazy_t.as_secs_f64();
        println!(
            "{pct:>6} {:>12} {:>12} {speedup:>8.2}",
            secs(eager_t),
            secs(lazy_t)
        );
        let gate_status = gate.record(&format!("pipeline@{pct}%"), speedup, FLOOR_PIPELINE, false);
        records.push(format!(
            "{{\"selectivity\": {:.2}, \"rows\": {rows}, \"eager_s\": {:.6}, \"lazy_s\": {:.6}, \"speedup\": {:.3}, \"gate\": \"{gate_status}\"}}",
            pct as f64 / 100.0,
            eager_t.as_secs_f64(),
            lazy_t.as_secs_f64(),
            speedup
        ));
    }
    let json = format!("[\n  {}\n]\n", records.join(",\n  "));
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("(recorded in BENCH_pipeline.json; target: ≥2x at 1% selectivity)\n");
}

/// Cost-based join ordering (PR 4): the star-schema multi-join whose
/// written order joins the largest dimension first, executed with the
/// join-order enumerator off (written order) and on (cost-based order).
/// Emits BENCH_joinorder.json.
fn joinorder(scale: usize, gate: &mut Gate) {
    println!("## Join ordering — cost-based vs written order");
    let rows = (1_000_000 / scale.max(1)).max(20_000);
    let (fact, big, mid, small) = rma_bench::joinorder_tables(rows, 77);
    println!(
        "### {rows} fact rows × ({}, {}, {}) dimension rows, filter keeps ~1%",
        big.len(),
        mid.len(),
        small.len()
    );
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "#ways", "written(s)", "reordered(s)", "speedup"
    );
    let mut records = Vec::new();
    for ways in [3usize, 4] {
        // warm-up pass (page in the tables), then best-of-3 per mode
        let _ = rma_bench::run_joinorder(&fact, &big, &mid, &small, ways, true);
        let (written_t, written_check) = best_of(3, &|| {
            rma_bench::run_joinorder(&fact, &big, &mid, &small, ways, false)
        });
        let (reordered_t, reordered_check) = best_of(3, &|| {
            rma_bench::run_joinorder(&fact, &big, &mid, &small, ways, true)
        });
        assert_eq!(
            written_check, reordered_check,
            "join reordering changed the {ways}-way result"
        );
        let speedup = written_t.as_secs_f64() / reordered_t.as_secs_f64();
        println!(
            "{ways:>6} {:>14} {:>14} {speedup:>8.2}",
            secs(written_t),
            secs(reordered_t)
        );
        let gate_status = gate.record(
            &format!("joinorder@{ways}way"),
            speedup,
            FLOOR_JOINORDER,
            false,
        );
        records.push(format!(
            "{{\"ways\": {ways}, \"rows\": {rows}, \"written_s\": {:.6}, \"reordered_s\": {:.6}, \"speedup\": {:.3}, \"gate\": \"{gate_status}\"}}",
            written_t.as_secs_f64(),
            reordered_t.as_secs_f64(),
            speedup
        ));
    }
    let json = format!("[\n  {}\n]\n", records.join(",\n  "));
    std::fs::write("BENCH_joinorder.json", &json).expect("write BENCH_joinorder.json");
    println!("(recorded in BENCH_joinorder.json; target: reordered ≥2x at 1M rows)\n");
}

/// Parallel sort / top-k (PR 5): `ORDER BY` and `ORDER BY .. LIMIT k`
/// through the lazy plan, serial (1 thread) vs the worker pool's parallel
/// sort (key-range buckets sorted per pool item) and top-k (per-worker
/// bounded heaps merged at the barrier). Asserts checksum parity and emits
/// BENCH_sort.json.
fn sort_bench(scale: usize, gate: &mut Gate) {
    println!("## Sort — pooled parallel sort / top-k vs serial");
    let rows = (80_000_000 / scale.max(1)).max(200_000);
    let threads = rma_core::default_threads().max(2);
    let hw = hardware_threads();
    let table = rma_bench::sort_table(rows, 55);
    println!("### {rows} rows, {threads} worker threads, k = 100");
    println!(
        "{:>6} {:>12} {:>12} {:>8}",
        "op", "serial(s)", "parallel(s)", "speedup"
    );
    // warm-up pass (pages in the table, spins up the pool), then
    // best-of-5 per mode (the runs are cheap; see `best_of`)
    let mut records = Vec::new();
    {
        let _ = rma_bench::run_sort(&table, threads);
        let (serial_t, serial_check) = best_of(5, &|| rma_bench::run_sort(&table, 1));
        let (par_t, par_check) = best_of(5, &|| rma_bench::run_sort(&table, threads));
        assert_eq!(
            serial_check, par_check,
            "parallel sort result diverged from serial"
        );
        let speedup = serial_t.as_secs_f64() / par_t.as_secs_f64();
        println!(
            "{:>6} {:>12} {:>12} {speedup:>8.2}",
            "sort",
            secs(serial_t),
            secs(par_t)
        );
        let gate_status = gate.record("sort", speedup, FLOOR_SORT, true);
        records.push(format!(
            "{{\"op\": \"sort\", \"rows\": {rows}, \"threads\": {threads}, \"hardware_threads\": {hw}, \"serial_s\": {:.6}, \"parallel_s\": {:.6}, \"speedup\": {:.3}, \"checksum_match\": true, \"gate\": \"{gate_status}\"}}",
            serial_t.as_secs_f64(),
            par_t.as_secs_f64(),
            speedup
        ));
    }
    {
        let k = 100usize;
        let _ = rma_bench::run_topk(&table, threads, k);
        let (serial_t, serial_check) = best_of(5, &|| rma_bench::run_topk(&table, 1, k));
        let (par_t, par_check) = best_of(5, &|| rma_bench::run_topk(&table, threads, k));
        assert_eq!(
            serial_check, par_check,
            "parallel top-k result diverged from serial"
        );
        let speedup = serial_t.as_secs_f64() / par_t.as_secs_f64();
        println!(
            "{:>6} {:>12} {:>12} {speedup:>8.2}",
            "topk",
            secs(serial_t),
            secs(par_t)
        );
        let gate_status = gate.record("topk", speedup, FLOOR_TOPK, true);
        records.push(format!(
            "{{\"op\": \"topk\", \"rows\": {rows}, \"k\": {k}, \"threads\": {threads}, \"hardware_threads\": {hw}, \"serial_s\": {:.6}, \"parallel_s\": {:.6}, \"speedup\": {:.3}, \"checksum_match\": true, \"gate\": \"{gate_status}\"}}",
            serial_t.as_secs_f64(),
            par_t.as_secs_f64(),
            speedup
        ));
    }
    let json = format!("[\n  {}\n]\n", records.join(",\n  "));
    std::fs::write("BENCH_sort.json", &json).expect("write BENCH_sort.json");
    println!(
        "(recorded in BENCH_sort.json; target: parallel ≥{FLOOR_SORT}x serial at --scale 400+)\n"
    );
}

/// A relation of `n` rows whose only column holds the distinct values
/// `2i - n + 2`, which sum to exactly `n`: every consistent snapshot of the
/// bench table (a base plus any number of such batches) satisfies
/// `SUM(x) == COUNT(*)`, so the per-query consistency checksum is a single
/// equality — while ingest finds no runs to fold, so `SUM(x)` scans every
/// row.
fn spread(n: usize) -> rma_relation::Relation {
    let n = n as i64;
    rma_relation::RelationBuilder::new()
        .column("x", (0..n).map(|i| 2 * i - n + 2).collect::<Vec<i64>>())
        .build()
        .expect("relation")
}

/// Assert ingest kept the bench table's `x` column plain or bit-packed: a
/// run-length encoded column would let `SUM(x)` fold runs instead of
/// scanning rows, and the bench would stop measuring its workload.
fn assert_scans_rows(server: &rma_core::serve::Server) {
    let snap = server.catalog().snapshot();
    let enc = snap
        .get("t")
        .and_then(|t| t.relation().column("x").ok().map(|c| c.encoding()));
    assert!(
        enc.is_some_and(|e| e != rma_storage::Encoding::Rle),
        "bench column t.x is {enc:?}, not a per-row scan"
    );
}

/// `(COUNT(*), SUM(x))` of the bench table through one session, asserting
/// the snapshot-consistency checksum.
fn serve_count_sum(s: &rma_core::Session) -> (i64, i64) {
    use rma_relation::AggSpec;
    let r = s
        .query(
            rma_core::Frame::table("t")
                .aggregate(&[], vec![AggSpec::count_star("n"), AggSpec::sum("x", "s")]),
        )
        .expect("aggregate");
    let n = match r.column("n").expect("n").get(0) {
        rma_storage::Value::Int(v) => v,
        other => panic!("unexpected count {other:?}"),
    };
    let sum = match r.column("s").expect("s").get(0) {
        rma_storage::Value::Int(v) => v,
        rma_storage::Value::Null => 0,
        other => panic!("unexpected sum {other:?}"),
    };
    assert_eq!(
        n, sum,
        "torn read: aggregate matches no committed generation"
    );
    (n, sum)
}

/// Concurrent serving (PR 6): N writer + M reader sessions on one server
/// vs the identical workload issued sequentially through a single session.
/// Sessions run with a budget of one seat, so the speedup isolates what
/// the serving layer adds — snapshot reads that never block on writers and
/// fair scheduling across sessions — rather than intra-query parallelism.
/// Every reader query asserts the consistency checksum (`SUM == COUNT`
/// over a column of distinct values built to sum to its row count) and the
/// final row count is the cross-run checksum. Emits BENCH_concurrency.json.
fn concurrency(scale: usize, gate: &mut Gate) {
    use rma_core::serve::Server;

    const READERS: usize = 4;
    const WRITERS: usize = 2;
    const QUERIES_PER_READER: usize = 60;
    const BATCHES_PER_WRITER: usize = 30;
    const BATCH_ROWS: usize = 128;

    let rows = (8_000_000 / scale.max(1)).max(400_000);
    let inserted = WRITERS * BATCHES_PER_WRITER * BATCH_ROWS;
    let queries = READERS * QUERIES_PER_READER;
    let hw = hardware_threads();
    println!("## Serving — concurrent sessions vs one serial session");
    println!(
        "### {rows} base rows; {WRITERS} writers × {BATCHES_PER_WRITER} batches × {BATCH_ROWS} rows; {READERS} readers × {QUERIES_PER_READER} aggregate queries"
    );

    let serial_run = |rows: usize| -> (Duration, i64) {
        let server = Server::default();
        let s = server.session_with_budget(1);
        s.create_table("t", spread(rows)).expect("create");
        assert_scans_rows(&server);
        let t = Instant::now();
        for _ in 0..WRITERS * BATCHES_PER_WRITER {
            s.insert("t", &spread(BATCH_ROWS)).expect("insert");
        }
        for _ in 0..queries {
            serve_count_sum(&s);
        }
        let elapsed = t.elapsed();
        (elapsed, serve_count_sum(&s).0)
    };

    let concurrent_run = |rows: usize| -> (Duration, i64) {
        let server = Server::default();
        let admin = server.session_with_budget(1);
        admin.create_table("t", spread(rows)).expect("create");
        assert_scans_rows(&server);
        let t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..WRITERS {
                let s = server.session_with_budget(1);
                scope.spawn(move || {
                    for _ in 0..BATCHES_PER_WRITER {
                        s.insert("t", &spread(BATCH_ROWS)).expect("insert");
                    }
                });
            }
            for _ in 0..READERS {
                let s = server.session_with_budget(1);
                scope.spawn(move || {
                    for _ in 0..QUERIES_PER_READER {
                        serve_count_sum(&s);
                    }
                });
            }
        });
        let elapsed = t.elapsed();
        (elapsed, serve_count_sum(&admin).0)
    };

    // warm-up (pages the allocator, spins up a pool), then best-of-3
    let _ = concurrent_run(rows);
    let (serial_t, serial_check) = best_of(3, &|| serial_run(rows));
    let (conc_t, conc_check) = best_of(3, &|| concurrent_run(rows));
    assert_eq!(
        serial_check, conc_check,
        "serial and concurrent runs committed different tables"
    );
    assert_eq!(serial_check, (rows + inserted) as i64, "rows went missing");
    let speedup = serial_t.as_secs_f64() / conc_t.as_secs_f64();
    println!(
        "{:>10} {:>12} {:>12} {:>8}",
        "sessions", "serial(s)", "concurrent(s)", "speedup"
    );
    println!(
        "{:>10} {:>12} {:>12} {speedup:>8.2}",
        READERS + WRITERS,
        secs(serial_t),
        secs(conc_t)
    );
    let gate_status = gate.record("concurrency", speedup, FLOOR_CONCURRENCY, true);
    let json = format!(
        "[\n  {{\"rows\": {rows}, \"readers\": {READERS}, \"writers\": {WRITERS}, \"queries\": {queries}, \"inserted_rows\": {inserted}, \"hardware_threads\": {hw}, \"serial_s\": {:.6}, \"concurrent_s\": {:.6}, \"speedup\": {:.3}, \"checksum_match\": true, \"gate\": \"{gate_status}\"}}\n]\n",
        serial_t.as_secs_f64(),
        conc_t.as_secs_f64(),
        speedup
    );
    std::fs::write("BENCH_concurrency.json", &json).expect("write BENCH_concurrency.json");
    println!(
        "(recorded in BENCH_concurrency.json; target: ≥2x on a multi-core runner, committed floor {FLOOR_CONCURRENCY}x)\n"
    );
}

/// Query profiling overhead (PR 7): the morsel-driven
/// scan→select→aggregate workload untraced vs under an active
/// [`TraceSession`](rma_core::TraceSession). The untraced run pays one
/// relaxed atomic load per instrumentation point; the traced run records
/// every operator/pool span. The committed contract is overhead ≤ 5%
/// (speedup = untraced/traced ≥ `FLOOR_PROFILE`). Emits
/// BENCH_profile.json plus the last traced run's Chrome-trace JSON
/// (BENCH_profile_trace.json — load it in Perfetto or chrome://tracing).
fn profile(scale: usize, gate: &mut Gate) {
    use std::cell::RefCell;

    println!("## Profile — span-recording overhead (untraced vs traced)");
    let rows = (20_000_000 / scale.max(1)).max(200_000);
    let threads = rma_core::default_threads().max(2);
    let table = rma_bench::thread_scaling_table(rows, 91);
    println!("### {rows} rows, {threads} worker threads, best of 5");

    // warm-up (pages in the table, spins up the pool)
    let _ = rma_bench::run_thread_scaling(&table, threads);
    let (untraced_t, untraced_check) =
        best_of(5, &|| rma_bench::run_thread_scaling(&table, threads));

    let spans: RefCell<Vec<rma_core::Span>> = RefCell::new(Vec::new());
    let (traced_t, traced_check) = best_of(5, &|| {
        let session = rma_core::TraceSession::start();
        let out = rma_bench::run_thread_scaling(&table, threads);
        *spans.borrow_mut() = session.finish();
        out
    });
    assert_eq!(untraced_check, traced_check, "tracing changed the result");
    let spans = spans.into_inner();
    assert!(!spans.is_empty(), "traced run recorded no spans");

    let speedup = untraced_t.as_secs_f64() / traced_t.as_secs_f64();
    let overhead_pct = (traced_t.as_secs_f64() / untraced_t.as_secs_f64() - 1.0) * 100.0;
    println!(
        "{:>12} {:>12} {:>10} {:>10}",
        "untraced(s)", "traced(s)", "overhead", "#spans"
    );
    println!(
        "{:>12} {:>12} {:>9.1}% {:>10}",
        secs(untraced_t),
        secs(traced_t),
        overhead_pct,
        spans.len()
    );
    let gate_status = gate.record("profile", speedup, FLOOR_PROFILE, true);

    let trace_json = rma_core::chrome_trace_json(&spans);
    std::fs::write("BENCH_profile_trace.json", &trace_json)
        .expect("write BENCH_profile_trace.json");
    let json = format!(
        "[\n  {{\"rows\": {rows}, \"threads\": {threads}, \"untraced_s\": {:.6}, \"traced_s\": {:.6}, \"speedup\": {:.3}, \"overhead_pct\": {:.2}, \"spans\": {}, \"checksum_match\": true, \"gate\": \"{gate_status}\"}}\n]\n",
        untraced_t.as_secs_f64(),
        traced_t.as_secs_f64(),
        speedup,
        overhead_pct,
        spans.len()
    );
    std::fs::write("BENCH_profile.json", &json).expect("write BENCH_profile.json");
    println!(
        "(recorded in BENCH_profile.json; traced timeline in BENCH_profile_trace.json; \
         committed floor: overhead ≤ {:.0}%)\n",
        (1.0 - FLOOR_PROFILE) * 100.0
    );
}

/// Resource governor (PR 8): the governed query path — the cooperative-
/// cancellation poll at every morsel claim plus memory accounting at
/// materialization points — against the identical ungoverned query
/// (throughput parity, floor `FLOOR_ROBUSTNESS`), and the latency of
/// cancelling a running scan from another thread (the kill must land
/// within about one morsel's work of the signal). Emits
/// BENCH_robustness.json.
fn robustness(scale: usize, gate: &mut Gate) {
    use rma_core::serve::Server;
    use rma_relation::AggSpec;
    use std::sync::Mutex;

    println!("## Robustness — governed vs ungoverned queries, cancel latency");
    let rows = (10_000_000 / scale.max(1)).max(1_000_000);
    let threads = rma_core::default_threads().max(2);
    let hw = hardware_threads();
    println!(
        "### {rows} rows, {} worker threads, best of 5 interleaved",
        rma_core::default_threads()
    );

    let sum_frame = || rma_core::Frame::table("t").aggregate(&[], vec![AggSpec::sum("x", "s")]);
    let sum_cell = |r: &rma_relation::Relation| -> i64 {
        match r.column("s").expect("s").get(0) {
            rma_storage::Value::Int(v) => v,
            other => panic!("unexpected sum {other:?}"),
        }
    };
    let setup = |governed: bool| -> rma_core::Session {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", spread(rows)).expect("create");
        assert_scans_rows(&server);
        if governed {
            // limits far from tripping: the run pays the full governance
            // machinery (admission estimate, guard mint, per-morsel
            // polls, charges) but never the kill path
            s.set_mem_budget(u64::MAX / 2);
            s.set_deadline(Some(Duration::from_secs(3600)));
        }
        s
    };
    let run = |s: &rma_core::Session| -> (Duration, i64) {
        let t = Instant::now();
        let r = s.query(sum_frame()).expect("query");
        (t.elapsed(), sum_cell(&r))
    };

    // steady-state parity: one session per mode, the first (untimed) query
    // pages the table in and fills the lazy per-table statistics cache,
    // then best-of-5 with the modes interleaved pairwise so clock drift
    // (frequency scaling, a noisy neighbour) hits both runs equally
    let ungoverned = setup(false);
    let governed = setup(true);
    let _ = run(&ungoverned);
    let _ = run(&governed);
    let (mut ungoverned_t, mut governed_t) = (Duration::MAX, Duration::MAX);
    let (mut check_u, mut check_g) = (0i64, 0i64);
    for _ in 0..5 {
        let (tu, cu) = run(&ungoverned);
        let (tg, cg) = run(&governed);
        ungoverned_t = ungoverned_t.min(tu);
        governed_t = governed_t.min(tg);
        (check_u, check_g) = (cu, cg);
    }
    assert_eq!(check_u, check_g, "the governor changed the query result");
    assert_eq!(check_u, rows as i64, "aggregate lost rows");
    let parity = ungoverned_t.as_secs_f64() / governed_t.as_secs_f64();
    println!(
        "{:>14} {:>14} {:>8}",
        "ungoverned(s)", "governed(s)", "parity"
    );
    println!(
        "{:>14} {:>14} {parity:>8.2}",
        secs(ungoverned_t),
        secs(governed_t)
    );
    // sub-millisecond single-core timings are too noisy to gate honestly;
    // like the profile-overhead floor, parity arms on real hardware
    let parity_gate = gate.record("robustness.governed", parity, FLOOR_ROBUSTNESS, true);

    // cancel latency: kill a governed scan mid-flight from another thread.
    // Workers notice at their next morsel claim, so the bound is about one
    // morsel's work; two plus a scheduling margin keeps the gate honest
    // without measuring the OS scheduler.
    let server = Server::default();
    let s = server.session();
    s.create_table("t", spread(rows)).expect("create");
    assert_scans_rows(&server);
    s.set_mem_budget(u64::MAX / 2);
    s.set_deadline(Some(Duration::from_secs(3600)));
    let cancel_after = governed_t / 4;
    let cancelled_at: Mutex<Option<Duration>> = Mutex::new(None);
    let t0 = Instant::now();
    let result = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(cancel_after);
            s.cancel();
            *cancelled_at.lock().expect("cancel clock") = Some(t0.elapsed());
        });
        s.query(sum_frame())
    });
    let elapsed = t0.elapsed();
    let signal_at = cancelled_at
        .lock()
        .expect("cancel clock")
        .unwrap_or(elapsed);
    let morsel_est =
        governed_t.as_secs_f64() / rma_relation::morsel_count(threads, rows).max(1) as f64;
    let (latency_s, bound_s, cancel_gate) = match result {
        Err(rma_core::PlanError::Rma(rma_core::RmaError::Cancelled)) => {
            let latency = elapsed.saturating_sub(signal_at).as_secs_f64();
            let bound = 2.0 * morsel_est + 0.010;
            let status = gate.record(
                "robustness.cancel_latency",
                if latency > 0.0 {
                    bound / latency
                } else {
                    f64::INFINITY
                },
                1.0,
                true,
            );
            println!(
                "cancel: signalled at {:.4}s, query returned {latency:.4}s later (bound {bound:.4}s)",
                signal_at.as_secs_f64()
            );
            (latency, bound, status)
        }
        Ok(_) => {
            // the scan outran the canceller (serial pool or tiny scale):
            // no latency to measure, but say so loudly
            let reason = "query completed before the cancel landed";
            println!("cancel: {reason}");
            if gate.check {
                gate.skipped
                    .push(format!("robustness.cancel_latency — {reason}"));
            }
            (0.0, 0.0, format!("skipped: {reason}"))
        }
        Err(e) => panic!("cancelled query returned an unexpected error: {e:?}"),
    };

    let json = format!(
        "[\n  {{\"bench\": \"governed_parity\", \"rows\": {rows}, \"hardware_threads\": {hw}, \"ungoverned_s\": {:.6}, \"governed_s\": {:.6}, \"speedup\": {:.3}, \"checksum_match\": true, \"gate\": \"{parity_gate}\"}},\n  {{\"bench\": \"cancel_latency\", \"rows\": {rows}, \"hardware_threads\": {hw}, \"latency_s\": {latency_s:.6}, \"bound_s\": {bound_s:.6}, \"gate\": \"{cancel_gate}\"}}\n]\n",
        ungoverned_t.as_secs_f64(),
        governed_t.as_secs_f64(),
        parity,
    );
    std::fs::write("BENCH_robustness.json", &json).expect("write BENCH_robustness.json");
    println!(
        "(recorded in BENCH_robustness.json; committed floor: governed ≥ {FLOOR_ROBUSTNESS}x ungoverned)\n"
    );
}

/// Out-of-core execution (PR 9): a join and a sort forced through the
/// spill path by a tiny memory budget against the identical unbudgeted
/// in-memory runs. Checksum parity is always asserted (the spilled result
/// must be the in-memory result); the throughput ratios gate at
/// `FLOOR_SPILL` — disk is slower, the floor catches a collapse, not a
/// slowdown. Emits BENCH_spill.json.
fn spill_bench(scale: usize, gate: &mut Gate) {
    use rma_core::serve::Server;

    println!("## Spill — budgeted (out-of-core) vs unbudgeted (in-memory) queries");
    let rows = (2_000_000 / scale.max(1)).max(200_000);
    let custs = 997usize;
    let hw = hardware_threads();
    // 16 KiB: under the 48 B × 997 join build and far under the
    // 8 B × rows sort permutation, so both operators must go to disk
    let budget = 16u64 * 1024;
    println!("### {rows} orders × {custs} customers, budget {budget} B, best of 3 interleaved");

    let orders = rma_relation::RelationBuilder::new()
        .name("o")
        .column(
            "cust",
            (0..rows as i64)
                .map(|i| i % custs as i64)
                .collect::<Vec<i64>>(),
        )
        .column(
            "amount",
            (0..rows as i64)
                .map(|i| (i % 8191) as f64)
                .collect::<Vec<f64>>(),
        )
        .column("oid", (0..rows as i64).collect::<Vec<i64>>())
        .build()
        .expect("orders");
    let customers = rma_relation::RelationBuilder::new()
        .name("c")
        .column("cid", (0..custs as i64).collect::<Vec<i64>>())
        .build()
        .expect("customers");
    let server = Server::default();
    let mem = server.session();
    mem.create_table("o", orders).expect("create o");
    mem.create_table("c", customers).expect("create c");
    let spilled = server.session();
    spilled.set_mem_budget(budget);

    // order-free checksum for the join (partition-wise execution permutes
    // rows), order-sensitive for the sort (the order IS the result)
    let sum_oids = |r: &rma_relation::Relation| -> i64 {
        let col = r.column("oid").expect("oid");
        (0..r.len()).fold(0i64, |acc, i| match col.get(i) {
            rma_storage::Value::Int(v) => acc.wrapping_add(v),
            other => panic!("unexpected oid {other:?}"),
        })
    };
    let fnv_oids = |r: &rma_relation::Relation| -> i64 {
        let col = r.column("oid").expect("oid");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..r.len() {
            match col.get(i) {
                rma_storage::Value::Int(v) => h = (h ^ v as u64).wrapping_mul(0x100_0000_01b3),
                other => panic!("unexpected oid {other:?}"),
            }
        }
        h as i64
    };
    type Checksum<'a> = &'a dyn Fn(&rma_relation::Relation) -> i64;
    let cases: [(&str, rma_core::Frame, Checksum); 2] = [
        (
            "join",
            rma_core::Frame::table("o").join(rma_core::Frame::table("c"), &[("cust", "cid")]),
            &sum_oids,
        ),
        (
            "sort",
            rma_core::Frame::table("o").order_by(&["amount", "oid"], &[true, true]),
            &fnv_oids,
        ),
    ];

    println!(
        "{:>6} {:>14} {:>12} {:>8}",
        "query", "in-memory(s)", "spilled(s)", "ratio"
    );
    let mut records = Vec::new();
    for (name, frame, checksum) in &cases {
        let run = |s: &rma_core::Session| -> (Duration, i64) {
            let t = Instant::now();
            let r = s.query(frame.clone()).expect("query");
            (t.elapsed(), checksum(&r))
        };
        // warm both paths (page-in, statistics cache), then interleave so
        // clock drift hits both modes equally
        let _ = run(&mem);
        let _ = run(&spilled);
        let (mut mem_t, mut spill_t) = (Duration::MAX, Duration::MAX);
        let (mut check_m, mut check_s) = (0i64, 0i64);
        for _ in 0..3 {
            let (tm, cm) = run(&mem);
            let (ts, cs) = run(&spilled);
            mem_t = mem_t.min(tm);
            spill_t = spill_t.min(ts);
            (check_m, check_s) = (cm, cs);
        }
        assert_eq!(
            check_m, check_s,
            "spilled {name} diverged from the in-memory result"
        );
        let ratio = mem_t.as_secs_f64() / spill_t.as_secs_f64();
        println!(
            "{name:>6} {:>14} {:>12} {ratio:>8.2}",
            secs(mem_t),
            secs(spill_t)
        );
        let status = gate.record(&format!("spill.{name}"), ratio, FLOOR_SPILL, true);
        records.push(format!(
            "  {{\"bench\": \"spill_{name}\", \"rows\": {rows}, \"hardware_threads\": {hw}, \
             \"budget_bytes\": {budget}, \"in_memory_s\": {:.6}, \"spilled_s\": {:.6}, \
             \"ratio\": {ratio:.3}, \"checksum_match\": true, \"gate\": \"{status}\"}}",
            mem_t.as_secs_f64(),
            spill_t.as_secs_f64(),
        ));
    }

    let snap = server.metrics_snapshot();
    assert!(
        snap.spill_bytes > 0 && snap.spill_partitions > 0,
        "the budgeted session never spilled — the bench measured nothing"
    );
    assert_eq!(
        rma_relation::live_spill_files(),
        0,
        "spill temp files leaked after the bench"
    );
    println!(
        "spilled {} bytes across {} partitions; no temp files left behind",
        snap.spill_bytes, snap.spill_partitions
    );
    let json = format!("[\n{}\n]\n", records.join(",\n"));
    std::fs::write("BENCH_spill.json", &json).expect("write BENCH_spill.json");
    println!(
        "(recorded in BENCH_spill.json; committed floor: spilled ≥ {FLOOR_SPILL}x in-memory)\n"
    );
}

/// Compression: ingest-side encoding footprint plus encoded-kernel
/// execution (dictionary-predicate filter, run-at-a-time RLE aggregate)
/// vs the identical queries over plain storage. Asserts checksum parity,
/// and that the encoded queries never force a `decode()` sink. Emits
/// BENCH_compress.json.
fn compress_bench(scale: usize, gate: &mut Gate) {
    use rma_core::serve::Server;
    use rma_relation::Expr;

    println!("## Compression — encoded storage and encoded-kernel execution");
    let rows = (2_000_000 / scale.max(1)).max(200_000);
    let hw = hardware_threads();
    println!("### {rows} rows, few-distinct workload, best of 5 interleaved");

    // clustered low-cardinality strings (dictionary), long integer runs
    // (RLE), a small value range (bit-packing), and blocked floats (RLE)
    const REGIONS: [&str; 8] = [
        "east", "west", "north", "south", "centre", "coast", "inland", "border",
    ];
    let orders = rma_relation::RelationBuilder::new()
        .name("t")
        .column(
            "region",
            (0..rows)
                .map(|i| REGIONS[(i / 1024) % 8])
                .collect::<Vec<&str>>(),
        )
        .column(
            "status",
            (0..rows as i64)
                .map(|i| (i / 1000) % 5)
                .collect::<Vec<i64>>(),
        )
        .column(
            "qty",
            (0..rows as i64)
                .map(|i| (i * 37) % 251)
                .collect::<Vec<i64>>(),
        )
        .column(
            "amount",
            (0..rows)
                .map(|i| ((i / 512) % 16) as f64)
                .collect::<Vec<f64>>(),
        )
        .build()
        .expect("orders");
    let plain = orders.clone();

    let server = Server::default();
    let session = server.session();
    session.create_table("t", orders).expect("create t");

    // catalog footprint straight from the serve metrics: the table was
    // encoded at ingest, the baseline relation never entered the catalog
    let snap = server.metrics_snapshot();
    let ratio = snap.storage_plain_bytes as f64 / snap.storage_encoded_bytes.max(1) as f64;
    println!(
        "storage: {} B encoded vs {} B plain — {ratio:.2}x compression",
        snap.storage_encoded_bytes, snap.storage_plain_bytes
    );
    let ratio_status = gate.record("compress.ratio", ratio, FLOOR_COMPRESS_RATIO, false);

    let first_value = |r: &rma_relation::Relation, col: &str| -> i64 {
        match r.column(col).expect("agg column").get(0) {
            rma_storage::Value::Int(v) => v,
            rma_storage::Value::Float(f) => f.round() as i64,
            other => panic!("unexpected aggregate value {other:?}"),
        }
    };
    let cases: [(&str, &str, rma_core::Frame, rma_core::Frame); 2] = [
        (
            "dictfilter",
            "n",
            rma_core::Frame::table("t")
                .filter(Expr::col("region").eq(Expr::lit("west")))
                .aggregate(&[], vec![rma_relation::AggSpec::count_star("n")]),
            rma_core::Frame::scan(plain.clone())
                .filter(Expr::col("region").eq(Expr::lit("west")))
                .aggregate(&[], vec![rma_relation::AggSpec::count_star("n")]),
        ),
        (
            "rleagg",
            "s",
            rma_core::Frame::table("t")
                .aggregate(&[], vec![rma_relation::AggSpec::sum("amount", "s")]),
            rma_core::Frame::scan(plain)
                .aggregate(&[], vec![rma_relation::AggSpec::sum("amount", "s")]),
        ),
    ];

    println!(
        "{:>10} {:>12} {:>12} {:>8}",
        "query", "plain(s)", "encoded(s)", "speedup"
    );
    let mut records = vec![format!(
        "  {{\"bench\": \"compress_ratio\", \"rows\": {rows}, \"encoded_bytes\": {}, \
         \"plain_bytes\": {}, \"ratio\": {ratio:.3}, \"gate\": \"{ratio_status}\"}}",
        snap.storage_encoded_bytes, snap.storage_plain_bytes
    )];
    for (name, out_col, enc, pl) in &cases {
        // first encoded run before any warm-up: the decode cache is cold,
        // so a kernel that cannot stay on the encoded form would sink here
        let sinks0 = rma_storage::decode_sink_events();
        let first = session.query(enc.clone()).expect("encoded query");
        let first_sinks = rma_storage::decode_sink_events().saturating_sub(sinks0);
        assert_eq!(
            first_sinks, 0,
            "encoded `{name}` forced {first_sinks} decode sink(s) — a kernel fell off the encoded path"
        );
        let check_first = first_value(&first, out_col);

        let run = |f: &rma_core::Frame| -> (Duration, i64) {
            let t = Instant::now();
            let r = session.query(f.clone()).expect("query");
            (t.elapsed(), first_value(&r, out_col))
        };
        let _ = run(pl); // warm the plain path too
        let (mut plain_t, mut enc_t) = (Duration::MAX, Duration::MAX);
        let (mut check_p, mut check_e) = (0i64, 0i64);
        for _ in 0..5 {
            let (tp, cp) = run(pl);
            let (te, ce) = run(enc);
            plain_t = plain_t.min(tp);
            enc_t = enc_t.min(te);
            (check_p, check_e) = (cp, ce);
        }
        assert_eq!(
            check_e, check_first,
            "encoded checksum unstable across runs"
        );
        assert_eq!(
            check_p, check_e,
            "encoded `{name}` diverged from the plain result"
        );
        let speedup = plain_t.as_secs_f64() / enc_t.as_secs_f64();
        println!(
            "{name:>10} {:>12} {:>12} {speedup:>8.2}",
            secs(plain_t),
            secs(enc_t)
        );
        let status = gate.record(
            &format!("compress.{name}"),
            speedup,
            FLOOR_COMPRESS_SPEED,
            false,
        );
        records.push(format!(
            "  {{\"bench\": \"compress_{name}\", \"rows\": {rows}, \"hardware_threads\": {hw}, \
             \"plain_s\": {:.6}, \"encoded_s\": {:.6}, \"speedup\": {speedup:.3}, \
             \"decode_sinks\": {first_sinks}, \"checksum_match\": true, \"gate\": \"{status}\"}}",
            plain_t.as_secs_f64(),
            enc_t.as_secs_f64(),
        ));
    }

    let snap = server.metrics_snapshot();
    assert_eq!(
        snap.decode_sinks, 0,
        "the bench session forced decode sinks — encoded kernels regressed"
    );
    let json = format!("[\n{}\n]\n", records.join(",\n"));
    std::fs::write("BENCH_compress.json", &json).expect("write BENCH_compress.json");
    println!(
        "(recorded in BENCH_compress.json; committed floors: ratio ≥ {FLOOR_COMPRESS_RATIO}x, \
         encoded ≥ {FLOOR_COMPRESS_SPEED}x plain)\n"
    );
}

/// Fig. 18: trip count addition.
fn fig18(scale: usize) {
    println!("## Figure 18 — Trip count (matrix addition)");
    for millions in [1usize, 5, 10, 15] {
        let n = (millions * 1_000_000 / scale.max(1)).max(20_000);
        let (y1, y2) = trip_count_tables(n, 10, 18);
        let mut reports: Vec<_> = SYSTEMS
            .iter()
            .map(|&s| run_trip_count(s, &y1, &y2))
            .collect();
        reports.push(run_trip_count(SystemKind::RmaBat, &y1, &y2));
        reports.push(run_trip_count(SystemKind::RmaMkl, &y1, &y2));
        print_reports(&format!("### {n} riders"), &reports);
    }
}
