//! Benchmark-side tracing: spans recorded around the calls a statement
//! makes into each layer's public functions.
//!
//! A traced [`Client`] does not call `Engine::execute`; it replays the
//! steps `Engine::run_statement` takes — catalog refresh, parse, plan,
//! optimize, execute, materialize, and for `INSERT` the optimistic commit
//! loop — through the crates' public functions, with a span around each.
//! Spans stay in memory until the run ends. A layer's self time is its
//! spans' durations minus the part their child spans cover.

use rma_core::serve::{Backoff, Server};
use rma_core::{ExecStats, KernelUsed, ServeError};
use rma_relation::{Relation, SessionTicket};
use rma_sql::ast::Statement;
use rma_sql::{Engine, QueryResult, SqlError};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The statement the span belongs to (client id in the high bits).
    pub query: u64,
}

/// One client's span and counter store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    client: u64,
    next_query: u64,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(epoch: Instant, client: u64) -> Self {
        Tracer {
            epoch,
            client,
            next_query: 0,
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn next_query(&mut self) -> u64 {
        self.next_query += 1;
        (self.client << 32) | self.next_query
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        query: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(parent), query);
        let out = f();
        self.close(id);
        out
    }

    /// Add to a named counter recorded at a span boundary.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }
}

/// Per-layer totals of a set of tracers: self and inclusive time (ns) and
/// span count per span name, and the summed counters.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub total_ns: BTreeMap<&'static str, u64>,
    pub calls: BTreeMap<&'static str, u64>,
    pub counters: BTreeMap<&'static str, u64>,
    pub spans: u64,
    /// Distinct statements (query ids) the spans belong to.
    pub statements: u64,
}

impl Breakdown {
    pub fn add(&mut self, t: &Tracer) {
        let spans = t.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *self.self_ns.entry(s.name).or_default() += own;
            *self.total_ns.entry(s.name).or_default() += s.end_ns - s.start_ns;
            *self.calls.entry(s.name).or_default() += 1;
        }
        for (k, v) in t.counters() {
            *self.counters.entry(k).or_default() += v;
        }
        self.spans += spans.len() as u64;
        let mut ids: Vec<u64> = spans.iter().map(|s| s.query).collect();
        ids.sort_unstable();
        ids.dedup();
        self.statements += ids.len() as u64;
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// What one statement did below the SQL layer, from the session context's
/// statistics before and after it.
#[derive(Debug, Clone, Copy, Default)]
pub struct StmtEffect {
    pub rma_ops: u32,
    pub kernel: Option<KernelUsed>,
    pub spill_bytes: u64,
}

/// One session engine on a server, optionally traced.
pub struct Client {
    pub engine: Engine,
    ticket: SessionTicket,
    tracer: Option<Tracer>,
}

impl Client {
    pub fn new(server: &Server, tracer: Option<Tracer>) -> Self {
        Client {
            engine: Engine::session(server),
            ticket: SessionTicket::new(server.default_budget()),
            tracer,
        }
    }

    pub fn into_tracer(self) -> Option<Tracer> {
        self.tracer
    }

    /// Trace this client's statements from now on.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    pub fn stats(&self) -> ExecStats {
        self.engine.rma_context().stats()
    }

    /// Execute one statement; returns its result and what it did below
    /// the SQL layer.
    pub fn run(&mut self, sql: &str) -> (Result<QueryResult, SqlError>, StmtEffect) {
        let before = self.stats();
        let out = match self.tracer.take() {
            None => self.engine.execute(sql),
            Some(mut t) => {
                let out = self.replay(&mut t, sql);
                self.tracer = Some(t);
                out
            }
        };
        let after = self.stats();
        let effect = StmtEffect {
            rma_ops: after.ops_run - before.ops_run,
            kernel: (after.ops_run > before.ops_run)
                .then_some(after.last_kernel)
                .flatten(),
            spill_bytes: after.spill_bytes - before.spill_bytes,
        };
        (out, effect)
    }

    /// `Engine::run_statement`, step by step, with a span per step.
    fn replay(&mut self, t: &mut Tracer, sql: &str) -> Result<QueryResult, SqlError> {
        let q = t.next_query();
        let root = t.open("statement", None, q);
        let out = self.replay_steps(t, root, q, sql);
        t.close(root);
        out
    }

    fn replay_steps(
        &mut self,
        t: &mut Tracer,
        root: usize,
        q: u64,
        sql: &str,
    ) -> Result<QueryResult, SqlError> {
        let engine = &mut self.engine;
        t.time("serve.catalog.refresh", root, q, || {
            engine.catalog.refresh()
        });
        let stmt = t.time("sql.parse", root, q, || rma_sql::parse(sql))?;
        match stmt {
            Statement::Select(sel) => {
                let plan = t.time("sql.plan", root, q, || rma_sql::plan_select(&sel))?;
                let ctx = engine.rma_context();
                let plan = t.time("sql.optimize", root, q, || {
                    rma_sql::optimizer::optimize(plan, &engine.catalog, ctx)
                });
                let _seat = self.ticket.activate();
                let counters = engine.counters().map(Arc::clone);
                if let Some(c) = &counters {
                    c.record_query();
                }
                let before = ctx.stats();
                let rel = t.time("core.plan.exec", root, q, || {
                    rma_sql::executor::execute(&plan, &engine.catalog, ctx)
                })?;
                let after = ctx.stats();
                let rma = (after.sort + after.copy_in + after.copy_out + after.compute)
                    - (before.sort + before.copy_in + before.copy_out + before.compute);
                t.count("core.plan.exec.rma_ns", rma.as_nanos() as u64);
                t.count("core.plan.exec.rows_out", rel.len() as u64);
                let rel = t.time("core.plan.materialize", root, q, || rel.materialize());
                if let Some(c) = &counters {
                    c.record_rows(rel.len() as u64);
                }
                Ok(QueryResult::Relation(rel))
            }
            Statement::Insert { table, rows } => {
                let ins = t.open("serve.insert", Some(root), q);
                let out = insert(engine, t, ins, q, &table, &rows);
                t.close(ins);
                out?;
                t.time("serve.catalog.refresh", root, q, || {
                    engine.catalog.refresh()
                });
                Ok(QueryResult::Done {
                    rows_affected: rows.len(),
                })
            }
            other => Err(SqlError::Plan(format!(
                "the traced client replays SELECT and INSERT only, not {other:?}"
            ))),
        }
    }
}

/// The optimistic append of `Engine::run_statement`'s `INSERT` arm:
/// prepare the successor generation from a pinned snapshot, commit it
/// first-committer-wins, and on conflict back off and retry.
fn insert(
    engine: &Engine,
    t: &mut Tracer,
    parent: usize,
    q: u64,
    table: &str,
    rows: &[Vec<rma_storage::Value>],
) -> Result<(), SqlError> {
    let shared = Arc::clone(engine.catalog.shared());
    let limit = engine.write_retry_limit.max(1);
    let mut backoff = Backoff::default();
    for attempt in 1..=limit {
        let prep = t.open("serve.insert.prepare", Some(parent), q);
        let snap = shared.snapshot();
        let Some(generation) = snap.get(table) else {
            return Err(SqlError::UnknownTable(table.to_string()));
        };
        let base = generation.relation();
        let next = Relation::from_rows(base.schema().clone(), rows)
            .and_then(|incoming| base.appended(&incoming))
            .map_err(SqlError::Relation);
        t.close(prep);
        let commit = t.open("serve.insert.commit", Some(parent), q);
        let res = shared.commit(table, generation.generation(), next?);
        t.close(commit);
        match res {
            Ok(_) => return Ok(()),
            Err(ServeError::WriteConflict { .. }) => {
                if let Some(c) = engine.counters() {
                    c.record_conflict();
                }
                if attempt < limit {
                    backoff.sleep();
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(ServeError::Contention {
        table: table.to_string(),
        retries: limit,
    }
    .into())
}
