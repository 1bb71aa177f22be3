//! The serving layer's metrics registry: per-session counters plus
//! pool-level gauges, snapshot-able as plain structs and dumpable as JSON.
//!
//! Every [`Session`](super::Session) (and every SQL engine opened through
//! `Engine::session`) registers its context's [`Counters`] store with its
//! server's [`MetricsRegistry`]; the session counts into that store on the
//! query/write path and its queries roll their own counters into it — all
//! atomics, no locks on the hot path. A [`MetricsSnapshot`] combines the
//! per-session counters, their totals, the worker pool's [`PoolStats`],
//! and a pool-utilization estimate (busy worker time over
//! `threads × uptime`); [`MetricsSnapshot::to_json`] renders it without
//! any serialization dependency, for CI artifacts and ad-hoc dashboards.

use rma_relation::PoolStats;
use rma_storage::{Counter, CounterSnapshot, Counters};
use std::ops::Deref;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Plain-data snapshot of one session's counters, readable as fields
/// (`m.spill_bytes`) through `Deref`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Registry-assigned session id (1-based, in open order).
    pub id: u64,
    /// The session's counters.
    pub counts: CounterSnapshot,
}

impl Deref for SessionMetrics {
    type Target = CounterSnapshot;

    fn deref(&self) -> &CounterSnapshot {
        &self.counts
    }
}

/// Server-wide engine metrics: what every session did, what the pool is
/// doing, since when. The counter totals across sessions read as fields
/// (`snap.conflicts`) through `Deref`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-session counters, in session-open order.
    pub sessions: Vec<SessionMetrics>,
    /// Every counter summed across sessions (`decode_sinks` 0 = every
    /// query ran fully on encoded storage).
    pub totals: CounterSnapshot,
    /// Catalog storage footprint as physically held (encoded forms
    /// included), in bytes, at snapshot time.
    pub storage_encoded_bytes: u64,
    /// What the same catalog would occupy fully decoded, in bytes — the
    /// denominator of the live compression ratio.
    pub storage_plain_bytes: u64,
    /// The worker pool's counters and gauges (queue depth, wait, busy).
    pub pool: PoolStats,
    /// Time since the registry (= the server) was created.
    pub uptime: Duration,
    /// Busy worker time over `threads × uptime`, clamped to `[0, 1]` — a
    /// coarse "how loaded is the pool" figure.
    pub utilization: f64,
}

impl Deref for MetricsSnapshot {
    type Target = CounterSnapshot;

    fn deref(&self) -> &CounterSnapshot {
        &self.totals
    }
}

/// `"name":value` for every counter, comma-separated, in enum order.
fn write_counts(out: &mut String, counts: &CounterSnapshot) {
    use std::fmt::Write;
    for (i, c) in Counter::ALL.into_iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{}\":{}", c.name(), counts[c]);
    }
}

impl MetricsSnapshot {
    /// Render the snapshot as a self-contained JSON object (hand-rolled —
    /// every field is numeric, so no escaping is needed).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(512 + self.sessions.len() * 384);
        let _ = write!(out, "{{\"uptime_ms\":{},", self.uptime.as_millis());
        write_counts(&mut out, &self.totals);
        let _ = write!(
            out,
            ",\"storage_encoded_bytes\":{},\"storage_plain_bytes\":{},",
            self.storage_encoded_bytes, self.storage_plain_bytes
        );
        let _ = write!(
            out,
            "\"pool\":{{\"threads\":{},\"threads_spawned\":{},\"jobs_run\":{},\
             \"jobs_panicked\":{},\"queue_depth\":{},\"queue_wait_us\":{},\"busy_us\":{},\
             \"utilization\":{:.4}}},",
            self.pool.threads,
            self.pool.threads_spawned,
            self.pool.jobs_run,
            self.pool.jobs_panicked,
            self.pool.queue_depth,
            self.pool.queue_wait.as_micros(),
            self.pool.busy.as_micros(),
            self.utilization
        );
        out.push_str("\"sessions\":[");
        for (i, s) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":{},", s.id);
            write_counts(&mut out, &s.counts);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// The per-server metrics registry: assigns session ids, holds every
/// session context's counter store, and produces [`MetricsSnapshot`]s.
#[derive(Debug)]
pub struct MetricsRegistry {
    started: Instant,
    /// Session `i + 1`'s counter store at index `i`.
    sessions: Mutex<Vec<Arc<Counters>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            started: Instant::now(),
            sessions: Mutex::new(Vec::new()),
        }
    }
}

impl MetricsRegistry {
    /// Register a session's counter store (once per session); returns the
    /// session's id (1-based, in open order).
    pub fn register_session(&self, counters: Arc<Counters>) -> u64 {
        let mut sessions = self.sessions.lock().expect("metrics registry poisoned");
        sessions.push(counters);
        sessions.len() as u64
    }

    /// Snapshot every session's counters together with the given pool
    /// stats (the server passes its pool's; see `Server::metrics`).
    pub fn snapshot(&self, pool: PoolStats) -> MetricsSnapshot {
        let sessions: Vec<SessionMetrics> = self
            .sessions
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .zip(1..)
            .map(|(c, id)| SessionMetrics {
                id,
                counts: c.snapshot(),
            })
            .collect();
        let totals = Counters::default();
        for s in &sessions {
            totals.add_all(&s.counts);
        }
        let uptime = self.started.elapsed();
        let capacity = pool.threads as f64 * uptime.as_secs_f64();
        let utilization = if capacity > 0.0 {
            (pool.busy.as_secs_f64() / capacity).clamp(0.0, 1.0)
        } else {
            0.0
        };
        MetricsSnapshot {
            totals: totals.snapshot(),
            // storage footprint is a catalog property, filled in by
            // `Server::metrics_snapshot` (the registry has no catalog)
            storage_encoded_bytes: 0,
            storage_plain_bytes: 0,
            sessions,
            pool,
            uptime,
            utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Register a fresh counter store, as a session does.
    fn open(reg: &MetricsRegistry) -> (u64, Arc<Counters>) {
        let c = Arc::new(Counters::default());
        (reg.register_session(Arc::clone(&c)), c)
    }

    #[test]
    fn registry_assigns_ids_and_totals() {
        let reg = MetricsRegistry::default();
        let (ida, a) = open(&reg);
        let (idb, b) = open(&reg);
        assert_eq!((ida, idb), (1, 2));
        a.record_query();
        a.record_rows(10);
        b.record_query();
        b.record_query();
        b.record_conflict();
        let snap = reg.snapshot(PoolStats {
            threads: 4,
            ..PoolStats::default()
        });
        assert_eq!(snap.sessions.len(), 2);
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.rows, 10);
        assert_eq!(snap.conflicts, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.sessions[1].queries, 2);
        assert!(snap.utilization >= 0.0 && snap.utilization <= 1.0);
    }

    #[test]
    fn json_dump_is_wellformed() {
        let reg = MetricsRegistry::default();
        let (_, s) = open(&reg);
        s.record_query();
        s.record_rows(7);
        let json = reg
            .snapshot(PoolStats {
                threads: 2,
                jobs_run: 5,
                ..PoolStats::default()
            })
            .to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"queries\":1"));
        assert!(json.contains("\"rows\":7"));
        assert!(json.contains("\"jobs_run\":5"));
        assert!(json.contains("\"sessions\":[{\"id\":1,"));
        // braces balance (proxy for well-formedness without a JSON parser)
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn governor_counters_roll_up() {
        let reg = MetricsRegistry::default();
        let (_, a) = open(&reg);
        let (_, b) = open(&reg);
        a.add(Counter::QueriesCancelled, 1);
        a.add(Counter::DeadlineKills, 1);
        a.add(Counter::DeadlineKills, 1);
        b.add(Counter::MemRejections, 1);
        b.add(Counter::WorkerPanics, 1);
        b.add(Counter::SpillBytes, 4096);
        b.add(Counter::SpillPartitions, 8);
        b.add(Counter::SpillBytes, 1024);
        b.add(Counter::SpillPartitions, 2);
        let snap = reg.snapshot(PoolStats {
            jobs_panicked: 3,
            ..PoolStats::default()
        });
        assert_eq!(snap.queries_cancelled, 1);
        assert_eq!(snap.deadline_kills, 2);
        assert_eq!(snap.mem_rejections, 1);
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.sessions[0].deadline_kills, 2);
        assert_eq!(snap.sessions[1].worker_panics, 1);
        assert_eq!(snap.spill_bytes, 5120);
        assert_eq!(snap.spill_partitions, 10);
        assert_eq!(snap.sessions[1].spill_bytes, 5120);
        let json = snap.to_json();
        assert!(json.contains("\"queries_cancelled\":1"));
        assert!(json.contains("\"deadline_kills\":2"));
        assert!(json.contains("\"mem_rejections\":1"));
        assert!(json.contains("\"worker_panics\":1"));
        assert!(json.contains("\"jobs_panicked\":3"));
        assert!(json.contains("\"spill_bytes\":5120"));
        assert!(json.contains("\"spill_partitions\":10"));
    }

    #[test]
    fn empty_registry_snapshot() {
        let reg = MetricsRegistry::default();
        let snap = reg.snapshot(PoolStats::default());
        assert!(snap.sessions.is_empty());
        assert_eq!(snap.queries, 0);
        assert_eq!(snap.utilization, 0.0);
        assert!(snap.to_json().contains("\"sessions\":[]"));
    }
}
