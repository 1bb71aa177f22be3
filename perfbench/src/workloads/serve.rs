//! `serve_rw`: one writer and one reader session on a shared server.
//!
//! The writer is an open loop: a fixed number of 64-row SQL `INSERT`s
//! into `trips` on a fixed schedule, each timed from when it was due. The
//! reader is a closed loop of filter, `GROUP BY` and top-k reads over the
//! high-cardinality float `duration` column. Every read carries the
//! table's row count, which must be the base plus a whole number of
//! batches that never goes backwards; the read's other figures must match
//! that many batches exactly.

use super::{close, num, plain_bytes, scaled, Check, ClosedLoop, PathRule, Query};
use crate::trace::{Client, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rma_core::serve::Server;
use rma_core::{ExecStats, RmaOptions};
use rma_relation::Relation;
use rma_storage::Encoding;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const BATCH: usize = 64;
/// Writer schedule: `INSERT` statements per second.
pub const RATE: f64 = 4.0;
/// Tail percentiles of read and insert latency: the highest that a run of
/// the benchmark's length leaves ten samples beyond.
pub const READ_TAIL_PCT: f64 = 95.0;
pub const INSERT_TAIL_PCT: f64 = 90.0;
const STATIONS: usize = 120;
/// The filter read counts trips longer than this (seconds).
const LONG_TRIP: f64 = 1500.0;
const TOP_K: usize = 10;
/// Float sums are compared to this relative tolerance (the engine sums in
/// a different order than the oracle).
const TOL: f64 = 1e-9;

/// The reader's cycle: (query type, SQL).
pub fn reads() -> [(&'static str, String); 3] {
    [
        (
            "filter",
            format!(
                "SELECT * FROM (SELECT COUNT(*) AS n FROM trips) a CROSS JOIN \
                 (SELECT COUNT(*) AS hits, SUM(duration) AS s FROM trips \
                 WHERE duration > {LONG_TRIP:?}) b"
            ),
        ),
        (
            "group_by",
            "SELECT start_station, COUNT(*) AS n, SUM(duration) AS s FROM trips \
             GROUP BY start_station"
                .to_string(),
        ),
        (
            "top_k",
            format!(
                "SELECT * FROM (SELECT id, duration FROM trips ORDER BY duration DESC \
                 LIMIT {TOP_K}) t CROSS JOIN (SELECT COUNT(*) AS n FROM trips) c"
            ),
        ),
    ]
}

/// What the table holds after `k` batches.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    rows: usize,
    sum: f64,
    long: usize,
    long_sum: f64,
    max: f64,
}

impl Totals {
    fn add(mut self, durations: &[f64]) -> Totals {
        for &d in durations {
            self.rows += 1;
            self.sum += d;
            if d > LONG_TRIP {
                self.long += 1;
                self.long_sum += d;
            }
            self.max = self.max.max(d);
        }
        self
    }
}

pub struct ServeRw {
    pub trips: Relation,
    /// The writer's statements, in schedule order.
    pub inserts: Vec<String>,
    /// `totals[k]`: the table after `k` batches.
    totals: Vec<Totals>,
}

/// `inserts`: how many batches the writer's schedule holds.
pub fn build(seed: u64, scale: f64, inserts: usize) -> ServeRw {
    let trips = rma_data::trips(scaled(400_000, scale, 5_000), STATIONS, seed);
    let base: Vec<f64> = trips
        .column("duration")
        .and_then(|c| c.to_f64_vec().map_err(Into::into))
        .expect("duration is a float column");
    let mut totals = vec![Totals::default().add(&base)];
    // a stream of its own: the base table is drawn from `seed` itself
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1275);
    let mut sqls = Vec::with_capacity(inserts);
    let mut next_id = trips.len();
    for _ in 0..inserts {
        let mut rows = Vec::with_capacity(BATCH);
        let mut durations = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let start = 6000 + rng.gen_range(0..STATIONS);
            let end = 6000 + rng.gen_range(0..STATIONS);
            let month = rng.gen_range(4..=10);
            let day = rng.gen_range(1..=28);
            let member = if rng.gen_bool(0.8) { "TRUE" } else { "FALSE" };
            let duration: f64 = rng.gen_range(30.0..6030.0);
            durations.push(duration);
            rows.push(format!(
                "({next_id}, {start}, {end}, '2017-{month:02}-{day:02}', {member}, {duration:?})"
            ));
            next_id += 1;
        }
        let last = *totals.last().expect("base totals");
        totals.push(last.add(&durations));
        sqls.push(format!("INSERT INTO trips VALUES {}", rows.join(", ")));
    }
    ServeRw {
        trips,
        inserts: sqls,
        totals,
    }
}

impl ServeRw {
    /// The set-up of the workload as a closed loop: the base table, and one
    /// cycle of reads that must see no inserted batch.
    pub fn setup(self: &Arc<Self>) -> ClosedLoop {
        let queries = reads()
            .into_iter()
            .enumerate()
            .map(|(kind, (name, sql))| {
                let w = Arc::clone(self);
                let check: Check = Box::new(move |r| match w.check_read(kind, r)? {
                    0 => Ok(()),
                    k => Err(format!("saw {k} batches before any insert")),
                });
                Query {
                    kind: name,
                    sql,
                    check,
                    input_bytes: plain_bytes(&self.trips),
                }
            })
            .collect();
        ClosedLoop {
            tables: vec![("trips", self.trips.clone())],
            options: RmaOptions::default(),
            queries,
            path: PathRule::FullScan,
            tail_pct: READ_TAIL_PCT,
        }
    }

    pub fn base_rows(&self) -> usize {
        self.totals[0].rows
    }

    /// The number of batches a read saw, from its row count.
    fn batches(&self, rows: f64) -> Result<usize, String> {
        let base = self.base_rows() as f64;
        let k = (rows - base) / BATCH as f64;
        if k < 0.0 || k.fract() != 0.0 || k as usize >= self.totals.len() {
            return Err(format!(
                "row count {rows} is not the base {base} plus whole batches"
            ));
        }
        Ok(k as usize)
    }

    /// Check read `kind` (an index into [`reads`]); returns the batch count
    /// it saw.
    pub fn check_read(&self, kind: usize, r: &Relation) -> Result<usize, String> {
        match kind {
            0 => {
                let k = self.batches(num(r, 0, "n")?)?;
                let want = self.totals[k];
                let (hits, s) = (num(r, 0, "hits")?, num(r, 0, "s")?);
                if hits != want.long as f64 || !close(s, want.long_sum, TOL) {
                    return Err(format!(
                        "filter after {k} batches: ({hits}, {s}), expected ({}, {})",
                        want.long, want.long_sum
                    ));
                }
                Ok(k)
            }
            1 => {
                let col = |c: &str| {
                    r.column(c)
                        .and_then(|c| c.to_f64_vec().map_err(Into::into))
                        .map_err(|e| e.to_string())
                };
                let rows: f64 = col("n")?.iter().sum();
                let k = self.batches(rows)?;
                let s: f64 = col("s")?.iter().sum();
                if !close(s, self.totals[k].sum, TOL) {
                    return Err(format!(
                        "group sums after {k} batches: {s}, expected {}",
                        self.totals[k].sum
                    ));
                }
                Ok(k)
            }
            _ => {
                let k = self.batches(num(r, 0, "n")?)?;
                let d = r
                    .column("duration")
                    .and_then(|c| c.to_f64_vec().map_err(Into::into))
                    .map_err(|e| e.to_string())?;
                let sorted = d.windows(2).all(|w| w[0] >= w[1]);
                if d.len() != TOP_K || !sorted || d[0] != self.totals[k].max {
                    return Err(format!(
                        "top-k after {k} batches: {d:?}, expected {TOP_K} descending from {}",
                        self.totals[k].max
                    ));
                }
                Ok(k)
            }
        }
    }
}

/// One timed statement.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub kind: usize,
    pub ms: f64,
}

/// What one phase of the workload did.
pub struct Phase {
    pub reads: Vec<Timed>,
    /// Insert latency from each statement's scheduled send time.
    pub inserts: Vec<f64>,
    /// How late the writer sent each statement (ms).
    pub lateness: Vec<f64>,
    pub failures: Vec<String>,
    pub tracers: Vec<Tracer>,
    /// Each session's execution statistics (writer first).
    pub exec: Vec<ExecStats>,
}

/// Run the writer's first `batches` statements on schedule against the
/// server, with a reader until the writer is done. With `tracers`, both
/// sessions are traced (writer first).
pub fn run_phase(
    server: &Server,
    w: &ServeRw,
    batches: usize,
    tracers: Option<(Tracer, Tracer)>,
) -> Phase {
    let (wt, rt) = match tracers {
        Some((a, b)) => (Some(a), Some(b)),
        None => (None, None),
    };
    let done = AtomicBool::new(false);
    let (writer, reader) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut client = Client::new(server, wt);
            let (mut lat, mut late, mut fails) = (Vec::new(), Vec::new(), Vec::new());
            let t0 = Instant::now();
            for (i, sql) in w.inserts[..batches].iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                late.push(due.elapsed().as_secs_f64() * 1e3);
                let (res, _) = client.run(sql);
                lat.push(due.elapsed().as_secs_f64() * 1e3);
                match res {
                    Ok(rma_sql::QueryResult::Done { rows_affected }) if rows_affected == BATCH => {}
                    other => fails.push(format!("insert {i}: {other:?}")),
                }
            }
            done.store(true, Ordering::Release);
            (lat, late, fails, client.stats(), client.into_tracer())
        });
        let reader = s.spawn(|| {
            let mut client = Client::new(server, rt);
            let (mut timed, mut fails) = (Vec::new(), Vec::new());
            let mut seen = 0usize;
            let reads_sql = reads();
            'outer: loop {
                for (kind, (name, sql)) in reads_sql.iter().enumerate() {
                    let t = Instant::now();
                    let (res, _) = client.run(sql);
                    timed.push(Timed {
                        kind,
                        ms: t.elapsed().as_secs_f64() * 1e3,
                    });
                    let checked = res
                        .and_then(|r| r.relation())
                        .map_err(|e| e.to_string())
                        .and_then(|r| w.check_read(kind, &r));
                    match checked {
                        Ok(k) if k >= seen => seen = k,
                        Ok(k) => fails.push(format!("{name}: saw {k} batches after {seen}")),
                        Err(e) => fails.push(format!("{name}: {e}")),
                    }
                    if done.load(Ordering::Acquire) {
                        break 'outer;
                    }
                }
            }
            (timed, fails, client.stats(), client.into_tracer())
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let (inserts, lateness, mut failures, wstats, wt) = writer;
    let (reads, rfails, rstats, rt) = reader;
    failures.extend(rfails);
    Phase {
        reads,
        inserts,
        lateness,
        failures,
        tracers: wt.into_iter().chain(rt).collect(),
        exec: vec![wstats, rstats],
    }
}

/// After the writer's first `batches` statements: the table must hold
/// exactly the base plus that many batches, and `duration` must not be
/// run-length encoded (the reads must aggregate real float data).
pub fn check_final(server: &Server, w: &ServeRw, batches: usize) -> Vec<String> {
    let mut fails = Vec::new();
    let mut client = Client::new(server, None);
    let (res, _) = client.run("SELECT COUNT(*) AS n FROM trips");
    let want = w.base_rows() + BATCH * batches;
    match res.and_then(|r| r.relation()) {
        Ok(r) => match num(&r, 0, "n") {
            Ok(n) if n == want as f64 => {}
            other => fails.push(format!("final count {other:?}, expected {want}")),
        },
        Err(e) => fails.push(format!("final count: {e}")),
    }
    let snap = server.catalog().snapshot();
    let enc = snap
        .get("trips")
        .and_then(|t| t.relation().column("duration").ok().map(|c| c.encoding()));
    if enc == Some(Encoding::Rle) || enc.is_none() {
        fails.push(format!(
            "trips.duration encoding is {enc:?}, not a plain float scan"
        ));
    }
    fails
}
