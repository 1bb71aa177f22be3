//! Servers and sessions: concurrent query front ends over the versioned
//! catalog and the shared worker pool.

use super::catalog::{CatalogSnapshot, VersionedCatalog};
use super::metrics::{MetricsRegistry, MetricsSnapshot};
use super::{serve, Backoff, ServeError};
use crate::context::{ExecStats, RmaContext};
use crate::error::RmaError;
use crate::plan::{stats, Frame, PlanError};
use rma_relation::{par::fault::FaultPlan, QueryGuard, Relation, SessionTicket};
use rma_storage::{Counter, Counters};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The default per-session seat budget: half the pool (at least two seats
/// when the pool has more than one thread), so two heavy sessions saturate
/// the machine but a single one always leaves room for others.
fn default_budget(pool_threads: usize) -> usize {
    if pool_threads <= 1 {
        1
    } else {
        (pool_threads / 2).max(2)
    }
}

/// A serving endpoint: one versioned catalog plus one base execution
/// context (and with it one worker pool) shared by every session. Cheap to
/// clone — clones serve the same catalog. `Sync`: hand `Arc<Server>` or a
/// clone to each connection thread and open a [`Session`] per connection.
#[derive(Debug, Clone, Default)]
pub struct Server {
    catalog: Arc<VersionedCatalog>,
    ctx: Arc<RmaContext>,
    metrics: Arc<MetricsRegistry>,
}

impl Server {
    /// A server with an empty catalog executing on `ctx`'s worker pool.
    pub fn new(ctx: RmaContext) -> Self {
        Server {
            catalog: Arc::new(VersionedCatalog::new()),
            ctx: Arc::new(ctx),
            metrics: Arc::new(MetricsRegistry::default()),
        }
    }

    /// The shared versioned catalog.
    pub fn catalog(&self) -> &Arc<VersionedCatalog> {
        &self.catalog
    }

    /// The server's base execution context (sessions fork it).
    pub fn context(&self) -> &RmaContext {
        &self.ctx
    }

    /// The server's metrics registry. Frontends that build their own
    /// session objects (e.g. the SQL engine) register their context's
    /// counter store here; everything opened through [`Server::session`]
    /// registers automatically.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Snapshot the server's engine metrics: per-session counters, their
    /// totals, the worker pool's gauges (queue depth, queue-wait and
    /// busy time, utilization), and the catalog's storage footprint as
    /// physically held vs fully decoded (the live compression ratio).
    /// JSON via [`MetricsSnapshot::to_json`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot(self.ctx.pool().stats());
        let catalog = self.catalog.snapshot();
        for name in catalog.table_names() {
            let Some(tab) = catalog.get(name) else {
                continue;
            };
            for c in tab.relation().columns() {
                snap.storage_encoded_bytes += c.encoded_bytes() as u64;
                snap.storage_plain_bytes += c.plain_bytes() as u64;
            }
        }
        snap
    }

    /// The seat budget [`Server::session`] assigns: half the pool, at
    /// least two seats on a multi-threaded pool. Frontends building their
    /// own session objects (e.g. the SQL engine) use this to match.
    pub fn default_budget(&self) -> usize {
        default_budget(self.ctx.pool().threads())
    }

    /// Open a session with the default seat budget (half the pool).
    pub fn session(&self) -> Session {
        self.session_with_budget(self.default_budget())
    }

    /// Open a session whose morsel jobs may occupy at most `seats` pool
    /// workers at once (`0` = no limit). Every session gets a fresh
    /// [`SessionTicket`] — the fair scheduler interleaves jobs across
    /// tickets by stride, so sessions share the pool proportionally
    /// regardless of submission order.
    pub fn session_with_budget(&self, seats: usize) -> Session {
        let ctx = self.ctx.fork();
        Session {
            catalog: Arc::clone(&self.catalog),
            id: self.metrics.register_session(Arc::clone(ctx.counters())),
            ctx,
            ticket: SessionTicket::new(seats),
            deadline_ns: AtomicU64::new(0),
            mem_budget: AtomicU64::new(0),
            write_retry_limit: AtomicU32::new(DEFAULT_WRITE_RETRIES),
            active: Mutex::new(None),
            fault: Mutex::new(None),
        }
    }
}

/// `ctx.into()`: promote an execution context to a serving endpoint with
/// an empty catalog — the serve-layer spelling of "start sessions here".
impl From<RmaContext> for Server {
    fn from(ctx: RmaContext) -> Self {
        Server::new(ctx)
    }
}

/// Default cap on optimistic-commit attempts before
/// [`ServeError::Contention`] (see [`Session::set_write_retry_limit`]).
pub(crate) const DEFAULT_WRITE_RETRIES: u32 = 16;

/// One client's handle onto a [`Server`]: issues queries against pinned
/// catalog snapshots and writes through the first-committer-wins protocol.
///
/// A session is `Sync` (queries may be issued from several threads of one
/// client), but the intended concurrency unit is one session per
/// connection: the session's [`SessionTicket`] is what the fair scheduler
/// budgets, and its forked context's counter store is what its
/// [`ExecStats`] and its server metrics attribute to.
#[derive(Debug)]
pub struct Session {
    catalog: Arc<VersionedCatalog>,
    /// Registry-assigned id of this session's metrics entry.
    id: u64,
    ctx: RmaContext,
    ticket: SessionTicket,
    /// Per-query deadline in nanoseconds (0 = none).
    deadline_ns: AtomicU64,
    /// Per-query memory budget in bytes (0 = inherit the context option,
    /// which itself defaults to unlimited).
    mem_budget: AtomicU64,
    /// Optimistic-commit attempts before [`ServeError::Contention`].
    write_retry_limit: AtomicU32,
    /// The guard of the query currently executing on this session, so
    /// [`Session::cancel`] can reach it from another thread.
    active: Mutex<Option<QueryGuard>>,
    /// One-shot fault plan armed for the next query
    /// ([`Session::inject_fault`], tests only).
    fault: Mutex<Option<FaultPlan>>,
}

impl Session {
    /// Run a [`Frame`] query against a snapshot pinned at call time: the
    /// query sees every table as of one catalog version, unaffected by
    /// concurrent commits, and resolves named scans
    /// ([`Frame::table`]) through the pin. The session's ticket is active
    /// for the duration, so all morsel jobs the plan submits are seat-
    /// budgeted and fairly scheduled.
    pub fn query(&self, frame: Frame) -> Result<Relation, PlanError> {
        self.query_at(&self.pin(), frame)
    }

    /// Run a query against an explicitly pinned snapshot (several queries
    /// against one pin see the identical database state).
    ///
    /// The whole governor pipeline runs here:
    ///
    /// 1. **Admission**: with a memory budget set, the PR 4 cost model
    ///    pre-estimates the result footprint and rejects hopeless queries
    ///    before they touch the pool (`RmaError::ResourceExhausted`) —
    ///    unless the plan contains a spillable operator
    ///    ([`crate::plan::spillable`]), in which case it is admitted and
    ///    runs out-of-core under the budget.
    /// 2. **Execution under a guard**: a fresh [`QueryGuard`] (deadline +
    ///    budget, plus any armed fault plan) governs every morsel claim
    ///    and operator boundary; [`Session::cancel`] reaches it from any
    ///    thread.
    /// 3. **Panic containment and accounting** ([`serve`]): an operator
    ///    panic is returned as `RmaError::WorkerPanicked`, every governor
    ///    action is counted, and the query's own counters (spill, decode
    ///    sinks) roll up into the session's store.
    pub fn query_at(&self, snap: &CatalogSnapshot, frame: Frame) -> Result<Relation, PlanError> {
        let counters = self.ctx.counters();
        counters.record_query();
        let budget = self.effective_mem_budget();
        if budget > 0 {
            let est = stats::estimate(frame.logical_plan(), snap);
            // result footprint ≈ rows × columns × 8-byte cells; columns
            // default to 1 when the estimator lost track of the schema
            let est_bytes = (est.rows.max(0.0) as u64)
                .saturating_mul(est.cols.len().max(1) as u64)
                .saturating_mul(8);
            // a plan with a spillable operator (join / sort / keyed
            // aggregation) is admitted even over the estimate: the
            // out-of-core operators bound its resident working set, so
            // "too big for memory" now means "runs spilled", not "rejected"
            if est_bytes > budget && !crate::plan::spillable(frame.logical_plan()) {
                counters.add(Counter::MemRejections, 1);
                return Err(PlanError::Rma(RmaError::ResourceExhausted {
                    needed: est_bytes,
                    budget,
                }));
            }
        }
        let deadline_ns = self.deadline_ns.load(Ordering::Relaxed);
        let deadline = (deadline_ns > 0).then(|| Duration::from_nanos(deadline_ns));
        let guard = match self
            .fault
            .lock()
            .expect("session fault slot poisoned")
            .take()
        {
            Some(plan) => QueryGuard::with_fault(deadline, budget, plan),
            None => QueryGuard::with_limits(deadline, budget),
        };
        *self.active.lock().expect("session guard slot poisoned") = Some(guard.clone());
        let out = serve(
            &self.ctx,
            guard,
            || {
                let _seat = self.ticket.activate();
                frame.collect_with(&self.ctx, snap)
            },
            |e| match e {
                PlanError::Rma(e) => Some(e),
                _ => None,
            },
        );
        *self.active.lock().expect("session guard slot poisoned") = None;
        let out = out?;
        counters.record_rows(out.len() as u64);
        Ok(out)
    }

    /// Cancel the query currently executing on this session, if any:
    /// its workers stop claiming morsels within one morsel's work and the
    /// query returns `RmaError::Cancelled`. Callable from any thread;
    /// returns whether a running query was actually signalled. A session
    /// with no query in flight is untouched (cancellation does not latch).
    pub fn cancel(&self) -> bool {
        match &*self.active.lock().expect("session guard slot poisoned") {
            Some(g) => {
                g.cancel();
                true
            }
            None => false,
        }
    }

    /// Set (or clear) the per-query deadline applied to subsequent
    /// queries. Measured from each query's start.
    pub fn set_deadline(&self, deadline: Option<Duration>) {
        self.deadline_ns.store(
            deadline.map_or(0, |d| (d.as_nanos() as u64).max(1)),
            Ordering::Relaxed,
        );
    }

    /// Set the per-query memory budget in bytes (`0` = inherit
    /// `RmaOptions::mem_budget`, itself 0-as-unlimited by default).
    pub fn set_mem_budget(&self, bytes: u64) {
        self.mem_budget.store(bytes, Ordering::Relaxed);
    }

    /// The budget queries of this session are held to: the session
    /// override when set, else the context option.
    fn effective_mem_budget(&self) -> u64 {
        match self.mem_budget.load(Ordering::Relaxed) {
            0 => self.ctx.options.mem_budget as u64,
            b => b,
        }
    }

    /// Cap the optimistic-commit attempts of [`Session::insert`] (default
    /// 16). `0` behaves as 1: always at least one attempt, never infinite.
    pub fn set_write_retry_limit(&self, attempts: u32) {
        self.write_retry_limit.store(attempts, Ordering::Relaxed);
    }

    /// Arm a one-shot fault plan for the next query on this session
    /// (deterministic robustness testing; see
    /// [`rma_relation::par::fault`]).
    pub fn inject_fault(&self, plan: FaultPlan) {
        *self.fault.lock().expect("session fault slot poisoned") = Some(plan);
    }

    /// Pin the current catalog state (O(1), lock-free thereafter).
    pub fn pin(&self) -> CatalogSnapshot {
        self.catalog.snapshot()
    }

    /// Append `rows` to a table through the optimistic commit loop:
    /// pin → prepare the successor generation
    /// ([`Relation::appended`]) → first-committer-wins commit; on a
    /// [`ServeError::WriteConflict`] the loop re-pins and re-prepares
    /// after a decorrelated-jitter [`Backoff`] sleep, so concurrent
    /// appenders all land (in some serial order) without ever blocking
    /// readers. Attempts are capped by
    /// [`Session::set_write_retry_limit`] (default 16); exhausting the
    /// cap returns [`ServeError::Contention`] rather than looping
    /// unboundedly under pathological write pressure. Returns the
    /// catalog version that installed the rows.
    pub fn insert(&self, table: &str, rows: &Relation) -> Result<u64, ServeError> {
        let limit = self.write_retry_limit.load(Ordering::Relaxed).max(1);
        let mut backoff = Backoff::default();
        for attempt in 1..=limit {
            let snap = self.pin();
            let Some(generation) = snap.get(table) else {
                return Err(ServeError::NoSuchTable(table.to_string()));
            };
            let next = generation
                .relation()
                .appended(rows)
                .map_err(|_| ServeError::NoSuchTable(table.to_string()))?;
            match self.catalog.commit(table, generation.generation(), next) {
                Ok(version) => return Ok(version),
                Err(ServeError::WriteConflict { .. }) => {
                    self.ctx.counters().record_conflict();
                    if attempt < limit {
                        backoff.sleep();
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(ServeError::Contention {
            table: table.to_string(),
            retries: limit,
        })
    }

    /// Create a table (errors if the name exists).
    pub fn create_table(&self, name: &str, rel: Relation) -> Result<u64, ServeError> {
        self.catalog.create(name, rel)
    }

    /// Create or overwrite a table unconditionally.
    pub fn create_or_replace(&self, name: &str, rel: Relation) -> u64 {
        self.catalog.create_or_replace(name, rel)
    }

    /// Drop a table (errors if absent). Pinned readers keep their view.
    pub fn drop_table(&self, name: &str) -> Result<u64, ServeError> {
        self.catalog.drop_table(name)
    }

    /// The session's scheduling ticket.
    pub fn ticket(&self) -> &SessionTicket {
        &self.ticket
    }

    /// The session's id in the server's
    /// [`MetricsRegistry`](super::MetricsRegistry).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session's counter store (its context's): execution counters
    /// plus queries, rows, conflicts and governor actions — the same store
    /// the server's [`MetricsRegistry`](super::MetricsRegistry) snapshots.
    pub fn counters(&self) -> &Arc<Counters> {
        self.ctx.counters()
    }

    /// The session's private execution context (shared pool, own stats).
    pub fn context(&self) -> &RmaContext {
        &self.ctx
    }

    /// Execution statistics of **this session only** — concurrent sessions
    /// on one server do not pollute each other's counters.
    pub fn stats(&self) -> ExecStats {
        self.ctx.stats()
    }

    /// Zero this session's statistics.
    pub fn reset_stats(&self) {
        self.ctx.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_relation::{AggSpec, RelationBuilder};
    use rma_storage::Value;

    fn rel(xs: Vec<i64>) -> Relation {
        RelationBuilder::new().column("x", xs).build().unwrap()
    }

    fn sum_of(s: &Session, table: &str) -> i64 {
        let r = s
            .query(Frame::table(table).aggregate(&[], vec![AggSpec::sum("x", "s")]))
            .unwrap();
        match r.column("s").unwrap().get(0) {
            Value::Int(v) => v,
            other => panic!("unexpected sum {other:?}"),
        }
    }

    #[test]
    fn session_queries_pinned_snapshots() {
        let server = Server::default();
        let writer = server.session();
        let reader = server.session();
        writer.create_table("t", rel(vec![1, 2, 3])).unwrap();
        assert_eq!(sum_of(&reader, "t"), 6);
        // a pinned snapshot shields a multi-query read from a concurrent
        // insert; a fresh query sees it
        let pin = reader.pin();
        writer.insert("t", &rel(vec![10])).unwrap();
        let before = reader
            .query_at(
                &pin,
                Frame::table("t").aggregate(&[], vec![AggSpec::sum("x", "s")]),
            )
            .unwrap();
        assert_eq!(before.column("s").unwrap().get(0), Value::Int(6));
        assert_eq!(sum_of(&reader, "t"), 16);
    }

    #[test]
    fn insert_retries_past_conflicts() {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", rel(vec![0])).unwrap();
        std::thread::scope(|scope| {
            for k in 0..4 {
                let session = server.session();
                scope.spawn(move || {
                    for i in 0..10 {
                        session.insert("t", &rel(vec![k * 100 + i])).unwrap();
                    }
                });
            }
        });
        let r = s
            .query(Frame::table("t").aggregate(&[], vec![AggSpec::count_star("n")]))
            .unwrap();
        assert_eq!(r.column("n").unwrap().get(0), Value::Int(41));
    }

    #[test]
    fn per_session_stats_do_not_mix() {
        let server = Server::default();
        let busy = server.session();
        let idle = server.session();
        busy.create_table("m", {
            RelationBuilder::new()
                .column("k", vec!["a", "b"])
                .column("v1", vec![2.0f64, 0.0])
                .column("v2", vec![0.0f64, 2.0])
                .build()
                .unwrap()
        })
        .unwrap();
        // an RMA operation records ops_run on the issuing session only
        let inverted = busy
            .query(Frame::table("m").rma_unary(crate::shape::RmaOp::Inv, &["k"]))
            .unwrap();
        assert_eq!(inverted.len(), 2);
        assert!(busy.stats().ops_run >= 1);
        assert_eq!(idle.stats().ops_run, 0);
        assert_eq!(server.context().stats().ops_run, 0);
    }

    #[test]
    fn budgets_and_tickets_are_per_session() {
        let server = Server::default();
        let a = server.session_with_budget(2);
        let b = server.session_with_budget(0);
        assert_eq!(a.ticket().seats(), 2);
        assert_eq!(b.ticket().seats(), 0);
        assert_eq!(default_budget(1), 1);
        assert_eq!(default_budget(2), 2);
        assert_eq!(default_budget(8), 4);
    }

    #[test]
    fn deadline_kill_returns_typed_error_and_counts() {
        let server = Server::default();
        let s = server.session();
        let n = 4096;
        s.create_table("t", rel((0..n).collect())).unwrap();
        s.set_deadline(Some(Duration::from_nanos(1)));
        let err = s
            .query(Frame::table("t").aggregate(&[], vec![AggSpec::sum("x", "s")]))
            .unwrap_err();
        assert!(
            matches!(err, PlanError::Rma(RmaError::DeadlineExceeded)),
            "got {err:?}"
        );
        assert_eq!(s.counters().snapshot().deadline_kills, 1);
        // the session is not poisoned: clearing the deadline works
        s.set_deadline(None);
        assert_eq!(sum_of(&s, "t"), (0..n).sum::<i64>());
    }

    #[test]
    fn admission_rejects_over_budget_queries() {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", rel((0..1000).collect())).unwrap();
        s.set_mem_budget(64); // far below 1000 rows × 8 bytes
        let err = s.query(Frame::table("t")).unwrap_err();
        match err {
            PlanError::Rma(RmaError::ResourceExhausted { needed, budget }) => {
                assert_eq!(budget, 64);
                assert!(needed > 64, "estimate {needed} should exceed the budget");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        assert_eq!(s.counters().snapshot().mem_rejections, 1);
        // budget 0 = unlimited restores service
        s.set_mem_budget(0);
        assert_eq!(s.query(Frame::table("t")).unwrap().len(), 1000);
    }

    #[test]
    fn injected_panic_becomes_typed_error_and_session_survives() {
        use rma_relation::par::fault::{FaultKind, FaultPlan};
        // a multi-threaded pool so morsel claim loops (and their fault
        // polls) actually run, whatever machine hosts the test
        let ctx = RmaContext::new(crate::RmaOptions {
            threads: 2,
            ..Default::default()
        });
        let server = Server::new(ctx);
        let s = server.session();
        let n = 100_000; // large enough for parallel morsel claims
        s.create_table("t", rel((0..n).collect())).unwrap();
        s.inject_fault(FaultPlan::new(FaultKind::Panic, 0));
        let err = s
            .query(Frame::table("t").aggregate(&[], vec![AggSpec::sum("x", "s")]))
            .unwrap_err();
        // the panic fires on whichever thread claims the chosen morsel:
        // on the submitter the payload carries the injection message, on a
        // pool worker it surfaces via the pool's re-panic — both must
        // arrive as the typed variant
        assert!(
            matches!(&err, PlanError::Rma(RmaError::WorkerPanicked { .. })),
            "got {err:?}"
        );
        assert_eq!(s.counters().snapshot().worker_panics, 1);
        // the fault plan was one-shot and nothing is poisoned
        assert_eq!(sum_of(&s, "t"), (0..n).sum::<i64>());
    }

    #[test]
    fn cancel_without_running_query_is_a_noop() {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", rel(vec![1, 2])).unwrap();
        assert!(!s.cancel(), "no query in flight to signal");
        assert_eq!(sum_of(&s, "t"), 3, "cancellation must not latch");
        assert_eq!(s.counters().snapshot().queries_cancelled, 0);
    }

    #[test]
    fn insert_gives_up_under_synthetic_contention() {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", rel(vec![0])).unwrap();
        s.set_write_retry_limit(3);
        // make every commit lose the race: move the generation between the
        // session's pin and its commit by racing a tight writer loop
        let stop = std::sync::atomic::AtomicBool::new(false);
        let err = std::thread::scope(|scope| {
            let racer = server.session();
            let stop_ref = &stop;
            scope.spawn(move || {
                while !stop_ref.load(Ordering::Relaxed) {
                    let _ = racer.insert("t", &rel(vec![7]));
                }
            });
            // with a 3-attempt cap and a saturating racer, some insert
            // eventually exhausts its budget
            let mut last = None;
            for _ in 0..200 {
                if let Err(e) = s.insert("t", &rel(vec![1])) {
                    last = Some(e);
                    break;
                }
            }
            stop.store(true, Ordering::Relaxed);
            last
        });
        if let Some(e) = err {
            assert_eq!(
                e,
                ServeError::Contention {
                    table: "t".to_string(),
                    retries: 3
                }
            );
        }
        // contention or not, the session keeps serving
        assert!(s.query(Frame::table("t")).is_ok());
    }

    #[test]
    fn dropped_table_stays_readable_through_pin() {
        let server = Server::default();
        let s = server.session();
        s.create_table("t", rel(vec![5])).unwrap();
        let pin = s.pin();
        s.drop_table("t").unwrap();
        assert!(s.query(Frame::table("t")).is_err(), "fresh query: gone");
        let r = s.query_at(&pin, Frame::table("t")).unwrap();
        assert_eq!(r.len(), 1, "pinned query still sees the table");
    }
}
