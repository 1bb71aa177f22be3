//! The SQL engine: parse → plan → optimize → execute.

use crate::ast::Statement;
use crate::catalog::Catalog;
use crate::error::SqlError;
use crate::executor::{execute, execute_analyzed};
use crate::optimizer::optimize;
use crate::parser::{parse, parse_script};
use crate::plan::{explain_with_stats, plan_select, Plan};
use rma_core::plan::explain_analyze;
use rma_core::serve::{serve, Backoff, Server};
use rma_core::{Counters, RmaContext, RmaOptions, ServeError};
use rma_relation::{Relation, Schema, SessionTicket};
use std::sync::Arc;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// A SELECT result.
    Relation(Relation),
    /// DDL/DML acknowledgement with affected-row count.
    Done { rows_affected: usize },
}

impl QueryResult {
    /// Unwrap a SELECT result.
    pub fn relation(self) -> Result<Relation, SqlError> {
        match self {
            QueryResult::Relation(r) => Ok(r),
            QueryResult::Done { .. } => Err(SqlError::Plan(
                "statement did not produce a relation".to_string(),
            )),
        }
    }
}

/// An embedded SQL engine over the RMA-extended dialect.
///
/// A private engine ([`Engine::new`]) owns its catalog; a *session* engine
/// ([`Engine::session`]) attaches to a [`Server`]'s shared versioned
/// catalog, executes on the server's worker pool under its own fair-
/// scheduling ticket, and counts into its own forked context, whose
/// counter store the server's metrics registry reads — many session
/// engines on different threads serve one database concurrently.
#[derive(Debug)]
pub struct Engine {
    pub catalog: Catalog,
    rma: RmaContext,
    /// The fair-scheduling ticket this engine's queries run under (seat
    /// budget + stride pass; unlimited for private engines).
    ticket: SessionTicket,
    /// The id under which the context's counter store is registered with
    /// the server's [`MetricsRegistry`](rma_core::MetricsRegistry); `None`
    /// for private engines.
    session_id: Option<u64>,
    /// Disable the optimizer to measure its effect (ablation benches).
    pub optimize: bool,
    /// Cap on optimistic-commit attempts per `INSERT` before the engine
    /// gives up with
    /// [`RmaError::WriteContention`](rma_core::RmaError::WriteContention)
    /// (default 16; `0` behaves as 1 — at least one attempt, never
    /// infinite).
    pub write_retry_limit: u32,
}

/// Default `INSERT` commit-attempt cap (matches the serve layer's
/// `Session` default).
const DEFAULT_WRITE_RETRIES: u32 = 16;

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    pub fn new() -> Self {
        Engine::with_options(RmaOptions::default())
    }

    /// Engine with explicit RMA options (backend, sort policy, threads, …).
    pub fn with_options(options: RmaOptions) -> Self {
        Engine {
            catalog: Catalog::new(),
            rma: RmaContext::new(options),
            ticket: SessionTicket::new(0),
            session_id: None,
            optimize: true,
            write_retry_limit: DEFAULT_WRITE_RETRIES,
        }
    }

    /// A session engine on a [`Server`]: shares the server's versioned
    /// catalog (statements see other sessions' commits at statement
    /// boundaries; each statement runs against one pinned snapshot),
    /// executes on the server's pool under the default per-session seat
    /// budget, and keeps private [`ExecStats`](rma_core::ExecStats).
    pub fn session(server: &Server) -> Self {
        Engine::session_with_budget(server, server.default_budget())
    }

    /// A session engine with an explicit seat budget (`0` = no limit; `1`
    /// runs every morsel job inline on the issuing thread).
    pub fn session_with_budget(server: &Server, seats: usize) -> Self {
        let rma = server.context().fork();
        Engine {
            catalog: Catalog::attached(Arc::clone(server.catalog())),
            session_id: Some(
                server
                    .metrics()
                    .register_session(Arc::clone(rma.counters())),
            ),
            rma,
            ticket: SessionTicket::new(seats),
            optimize: true,
            write_retry_limit: DEFAULT_WRITE_RETRIES,
        }
    }

    /// The engine's registered counter store — `Some` for session
    /// engines (the store the server's metrics registry reads), `None` for
    /// private engines.
    pub fn counters(&self) -> Option<&Arc<Counters>> {
        self.session_id.map(|_| self.rma.counters())
    }

    /// Run one statement's plan execution through [`serve`]: under a guard
    /// minted from the engine's options and the engine's seat ticket (so
    /// every morsel job the plan submits is seat-budgeted and fairly
    /// interleaved with other sessions' jobs), with an operator panic
    /// surfaced as the typed `RmaError::WorkerPanicked` and governance
    /// errors (cancellation, deadline kills, budget breaches) counted.
    fn contain<T>(&self, body: impl FnOnce() -> Result<T, SqlError>) -> Result<T, SqlError> {
        let seated = || {
            let _seat = self.ticket.activate();
            body()
        };
        serve(&self.rma, self.rma.query_guard(), seated, |e| match e {
            SqlError::Rma(e) => Some(e),
            _ => None,
        })
    }

    /// Engine with an explicit worker-thread count for plan execution
    /// (`1` forces the serial plan interpreter; other options default —
    /// the dense kernels keep their process-wide `RMA_THREADS` budget).
    pub fn with_threads(threads: usize) -> Self {
        Engine::with_options(RmaOptions {
            threads: threads.max(1),
            ..RmaOptions::default()
        })
    }

    /// The RMA execution context (for reading kernel statistics).
    pub fn rma_context(&self) -> &RmaContext {
        &self.rma
    }

    /// Register a Rust-created relation as a table.
    pub fn register(&mut self, name: &str, relation: Relation) -> Result<(), SqlError> {
        self.catalog.register(name, relation)
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, SqlError> {
        let stmt = parse(sql)?;
        self.run_statement(stmt)
    }

    /// Execute a `;`-separated script, returning the last result.
    pub fn execute_script(&mut self, sql: &str) -> Result<QueryResult, SqlError> {
        let stmts = parse_script(sql)?;
        let mut last = QueryResult::Done { rows_affected: 0 };
        for stmt in stmts {
            last = self.run_statement(stmt)?;
        }
        Ok(last)
    }

    /// Convenience: run a SELECT and return the relation.
    pub fn query(&mut self, sql: &str) -> Result<Relation, SqlError> {
        self.execute(sql)?.relation()
    }

    /// EXPLAIN: the (optimized) plan of a SELECT, as text — one node per
    /// line, annotated with estimated output rows (`rows≈`) and
    /// accumulated cost (`cost≈`). Also reachable as the SQL statement
    /// `EXPLAIN SELECT ...`. See the crate-level docs for the format.
    pub fn explain(&self, sql: &str) -> Result<String, SqlError> {
        let stmt = parse(sql)?;
        let sel = match stmt {
            Statement::Select(sel) | Statement::Explain(sel) => sel,
            _ => return Err(SqlError::Plan("EXPLAIN requires a SELECT".to_string())),
        };
        let plan = self.build_plan(&sel)?;
        Ok(explain_with_stats(&plan, &self.catalog))
    }

    /// EXPLAIN ANALYZE: **execute** a SELECT with per-node profiling and
    /// return the plan text annotated with actual output rows, inclusive
    /// wall time, morsel counts, and the estimator's q-error
    /// (`max(est/actual, actual/est)`) per node. Also reachable as the SQL
    /// statement `EXPLAIN ANALYZE SELECT ...`.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String, SqlError> {
        let stmt = parse(sql)?;
        let sel = match stmt {
            Statement::Select(sel) | Statement::Explain(sel) | Statement::ExplainAnalyze(sel) => {
                sel
            }
            _ => {
                return Err(SqlError::Plan(
                    "EXPLAIN ANALYZE requires a SELECT".to_string(),
                ))
            }
        };
        self.catalog.refresh();
        self.analyze(&sel)
    }

    /// Execute `sel` with per-node profiling; the annotated plan text.
    fn analyze(&self, sel: &crate::ast::SelectStmt) -> Result<String, SqlError> {
        let plan = self.build_plan(sel)?;
        let actuals = self.contain(|| {
            self.rma.counters().record_query();
            Ok(execute_analyzed(&plan, &self.catalog, &self.rma)?.1)
        })?;
        Ok(explain_analyze(&plan, &self.catalog, &actuals))
    }

    fn build_plan(&self, sel: &crate::ast::SelectStmt) -> Result<Plan, SqlError> {
        let plan = plan_select(sel)?;
        Ok(if self.optimize {
            optimize(plan, &self.catalog, &self.rma)
        } else {
            plan
        })
    }

    fn run_statement(&mut self, stmt: Statement) -> Result<QueryResult, SqlError> {
        // statement boundary: re-pin the catalog so this statement sees the
        // latest committed state (its own prior writes and, for session
        // engines, other sessions' commits); within the statement the pin
        // is frozen — one statement, one snapshot
        self.catalog.refresh();
        match stmt {
            Statement::Select(sel) => {
                let plan = self.build_plan(&sel)?;
                let rel = self.contain(|| {
                    self.rma.counters().record_query();
                    // the query result is a pipeline sink: compact any
                    // selection-vector view before handing it to the caller
                    Ok(execute(&plan, &self.catalog, &self.rma)?.materialize())
                })?;
                self.rma.counters().record_rows(rel.len() as u64);
                Ok(QueryResult::Relation(rel))
            }
            Statement::ExplainAnalyze(sel) => plan_relation(&self.analyze(&sel)?),
            Statement::Explain(sel) => {
                plan_relation(&explain_with_stats(&self.build_plan(&sel)?, &self.catalog))
            }
            Statement::CreateTable {
                name,
                columns,
                or_replace,
            } => {
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|(n, t)| rma_relation::Attribute::new(n.clone(), *t))
                        .collect(),
                )
                .map_err(SqlError::Relation)?;
                let empty = Relation::empty(schema);
                if or_replace {
                    self.catalog.put(&name, empty);
                } else {
                    self.catalog.register(&name, empty)?;
                }
                Ok(QueryResult::Done { rows_affected: 0 })
            }
            Statement::CreateTableAs {
                name,
                query,
                or_replace,
            } => {
                let plan = self.build_plan(&query)?;
                let rel =
                    self.contain(|| Ok(execute(&plan, &self.catalog, &self.rma)?.materialize()))?;
                let n = rel.len();
                if or_replace {
                    self.catalog.put(&name, rel);
                } else {
                    self.catalog.register(&name, rel)?;
                }
                Ok(QueryResult::Done { rows_affected: n })
            }
            Statement::Insert { table, rows } => {
                // MVCC-lite append: prepare the successor generation from a
                // pinned snapshot and install it first-committer-wins; on
                // conflict re-pin and re-prepare after a decorrelated-
                // jitter backoff. Readers are never blocked — they keep
                // executing against their own pins. Attempts are bounded
                // (write_retry_limit, default 16): a pathologically
                // contended table surfaces `RmaError::WriteContention`
                // instead of looping forever.
                let shared = Arc::clone(self.catalog.shared());
                let n = rows.len();
                let limit = self.write_retry_limit.max(1);
                let mut backoff = Backoff::default();
                let mut committed = false;
                for attempt in 1..=limit {
                    let snap = shared.snapshot();
                    let Some(generation) = snap.get(&table) else {
                        return Err(SqlError::UnknownTable(table));
                    };
                    let base = generation.relation();
                    let incoming = Relation::from_rows(base.schema().clone(), &rows)
                        .map_err(SqlError::Relation)?;
                    let next = base.appended(&incoming).map_err(SqlError::Relation)?;
                    match shared.commit(&table, generation.generation(), next) {
                        Ok(_) => {
                            committed = true;
                            break;
                        }
                        Err(ServeError::WriteConflict { .. }) => {
                            self.rma.counters().record_conflict();
                            if attempt < limit {
                                backoff.sleep();
                            }
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                if !committed {
                    return Err(ServeError::Contention {
                        table,
                        retries: limit,
                    }
                    .into());
                }
                self.catalog.refresh();
                Ok(QueryResult::Done { rows_affected: n })
            }
            Statement::DropTable { name, if_exists } => {
                if self.catalog.remove(&name).is_none() && !if_exists {
                    return Err(SqlError::UnknownTable(name));
                }
                Ok(QueryResult::Done { rows_affected: 0 })
            }
        }
    }
}

/// A one-column `plan` relation holding `text`'s lines (the result shape
/// of `EXPLAIN` and `EXPLAIN ANALYZE`).
fn plan_relation(text: &str) -> Result<QueryResult, SqlError> {
    let lines: Vec<&str> = text.lines().collect();
    let rel = rma_relation::RelationBuilder::new()
        .column("plan", lines)
        .build()
        .map_err(SqlError::Relation)?;
    Ok(QueryResult::Relation(rel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_core::RmaError;
    use rma_storage::Value;

    fn engine_with_rating() -> Engine {
        let mut e = Engine::new();
        e.execute("CREATE TABLE rating (u VARCHAR, Balto DOUBLE, Heat DOUBLE, Net DOUBLE)")
            .unwrap();
        e.execute(
            "INSERT INTO rating VALUES ('Ann', 2.0, 1.5, 0.5), ('Tom', 0.0, 0.0, 1.5), ('Jan', 1.0, 4.0, 1.0)",
        )
        .unwrap();
        e
    }

    #[test]
    fn create_insert_select() {
        let mut e = engine_with_rating();
        let r = e.query("SELECT * FROM rating WHERE u = 'Ann'").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, "Balto").unwrap(), Value::Float(2.0));
    }

    #[test]
    fn paper_intro_query() {
        let mut e = engine_with_rating();
        let inv = e.query("SELECT * FROM INV(rating BY u)").unwrap();
        assert_eq!(inv.len(), 3);
        let names: Vec<_> = inv.schema().names().collect();
        assert_eq!(names, vec!["u", "Balto", "Heat", "Net"]);
        // rows sorted by user: Ann, Jan, Tom
        assert_eq!(inv.cell(0, "u").unwrap(), Value::from("Ann"));
        assert_eq!(inv.cell(1, "u").unwrap(), Value::from("Jan"));
    }

    #[test]
    fn nested_rma_and_relational() {
        let mut e = engine_with_rating();
        let r = e
            .query("SELECT * FROM TRA(TRA(rating BY u) BY C) WHERE C = 'Jan'")
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, "Heat").unwrap(), Value::Float(4.0));
    }

    #[test]
    fn aggregates_and_arithmetic() {
        let mut e = engine_with_rating();
        let r = e
            .query("SELECT COUNT(*) AS n, AVG(Heat) AS h FROM rating")
            .unwrap();
        assert_eq!(r.cell(0, "n").unwrap(), Value::Int(3));
        let Value::Float(h) = r.cell(0, "h").unwrap() else {
            panic!()
        };
        assert!((h - (1.5 + 4.0) / 3.0).abs() < 1e-12);
        let r = e
            .query("SELECT u, Balto + Net AS s FROM rating ORDER BY s DESC LIMIT 1")
            .unwrap();
        assert_eq!(r.cell(0, "u").unwrap(), Value::from("Ann"));
    }

    #[test]
    fn insert_appends() {
        let mut e = engine_with_rating();
        let res = e
            .execute("INSERT INTO rating VALUES ('Zoe', 1.0, 1.0, 1.0)")
            .unwrap();
        assert_eq!(res, QueryResult::Done { rows_affected: 1 });
        assert_eq!(e.query("SELECT * FROM rating").unwrap().len(), 4);
    }

    #[test]
    fn drop_and_unknown_tables() {
        let mut e = engine_with_rating();
        e.execute("DROP TABLE rating").unwrap();
        assert!(matches!(
            e.query("SELECT * FROM rating"),
            Err(SqlError::UnknownTable(_))
        ));
        assert!(e.execute("DROP TABLE rating").is_err());
    }

    #[test]
    fn create_or_replace_swaps_the_table() {
        let mut e = engine_with_rating();
        assert!(matches!(
            e.execute("CREATE TABLE rating (x INT)"),
            Err(SqlError::TableExists(_))
        ));
        e.execute("CREATE OR REPLACE TABLE rating (x INT)").unwrap();
        assert_eq!(e.query("SELECT * FROM rating").unwrap().len(), 0);
    }

    #[test]
    fn create_table_as_select() {
        let mut e = engine_with_rating();
        let res = e
            .execute("CREATE TABLE hot AS SELECT u, Heat FROM rating WHERE Heat > 1")
            .unwrap();
        assert_eq!(res, QueryResult::Done { rows_affected: 2 });
        let r = e.query("SELECT * FROM hot ORDER BY u").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(0, "u").unwrap(), Value::from("Ann"));
        // duplicate CTAS errors; OR REPLACE overwrites
        assert!(e
            .execute("CREATE TABLE hot AS SELECT * FROM rating")
            .is_err());
        e.execute("CREATE OR REPLACE TABLE hot AS SELECT u FROM rating")
            .unwrap();
        let names: Vec<_> = e
            .query("SELECT * FROM hot")
            .unwrap()
            .schema()
            .names()
            .map(str::to_string)
            .collect();
        assert_eq!(names, vec!["u"]);
    }

    #[test]
    fn drop_if_exists_is_idempotent() {
        let mut e = Engine::new();
        e.execute("DROP TABLE IF EXISTS ghost").unwrap();
        assert!(e.execute("DROP TABLE ghost").is_err());
    }

    #[test]
    fn session_engines_share_a_server_catalog() {
        let server = Server::new(rma_core::RmaContext::default());
        let mut a = Engine::session(&server);
        let mut b = Engine::session(&server);
        a.execute("CREATE TABLE t (x INT)").unwrap();
        a.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        // b re-pins at its next statement boundary and sees a's commit
        assert_eq!(b.query("SELECT * FROM t").unwrap().len(), 2);
        // concurrent session engines append through the optimistic commit
        // loop: every row lands despite conflicting writers
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let server = &server;
                scope.spawn(move || {
                    let mut e = Engine::session(server);
                    for i in 0..25 {
                        e.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
                    }
                });
            }
        });
        let n = b.query("SELECT COUNT(*) AS n FROM t").unwrap();
        assert_eq!(n.cell(0, "n").unwrap(), Value::Int(102));
        // per-session stats: a's matrix ops are not attributed to b
        a.execute("CREATE TABLE m (k VARCHAR, v1 DOUBLE, v2 DOUBLE)")
            .unwrap();
        a.execute("INSERT INTO m VALUES ('a', 2.0, 0.0), ('b', 0.0, 2.0)")
            .unwrap();
        a.query("SELECT * FROM INV(m BY k)").unwrap();
        assert!(a.rma_context().stats().ops_run >= 1);
        assert_eq!(b.rma_context().stats().ops_run, 0);
    }

    #[test]
    fn explain_shows_pushdown() {
        let mut e = engine_with_rating();
        e.execute("CREATE TABLE f (t VARCHAR, d VARCHAR)").unwrap();
        let plan = e
            .explain("SELECT * FROM rating JOIN f ON u = t WHERE d = 'Lee'")
            .unwrap();
        let join = plan.find("JoinOn").unwrap();
        let filt = plan.find("Select").unwrap();
        assert!(filt > join, "expected pushdown:\n{plan}");
        // and without the optimizer the filter stays on top
        e.optimize = false;
        let plan = e
            .explain("SELECT * FROM rating JOIN f ON u = t WHERE d = 'Lee'")
            .unwrap();
        assert!(plan.starts_with("Select"));
    }

    #[test]
    fn execute_script_returns_last() {
        let mut e = Engine::new();
        let r = e
            .execute_script(
                "CREATE TABLE t (a INT); INSERT INTO t VALUES (1),(2); SELECT * FROM t;",
            )
            .unwrap()
            .relation()
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn contention_maps_to_the_typed_write_contention_error() {
        let e: SqlError = ServeError::Contention {
            table: "t".to_string(),
            retries: 16,
        }
        .into();
        assert!(
            matches!(e, SqlError::Rma(RmaError::WriteContention { retries: 16 })),
            "got {e:?}"
        );
    }

    #[test]
    fn insert_type_mismatch_rejected() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(e.execute("INSERT INTO t VALUES ('x')").is_err());
    }

    #[test]
    fn rma_error_surfaces() {
        let mut e = engine_with_rating();
        // duplicate order values: Balto is not a key of (Balto-only proj)?
        e.execute("CREATE TABLE dup (k INT, x DOUBLE)").unwrap();
        e.execute("INSERT INTO dup VALUES (1, 1.0), (1, 2.0)")
            .unwrap();
        assert!(matches!(
            e.query("SELECT * FROM QQR(dup BY k)"),
            Err(SqlError::Rma(_))
        ));
    }

    #[test]
    fn explain_statement_returns_plan_relation() {
        let mut e = engine_with_rating();
        let r = e.query("EXPLAIN SELECT * FROM INV(rating BY u)").unwrap();
        let names: Vec<_> = r.schema().names().collect();
        assert_eq!(names, vec!["plan"]);
        let text: Vec<String> = (0..r.len())
            .map(|i| r.cell(i, "plan").unwrap().to_string())
            .collect();
        let joined = text.join("\n");
        assert!(joined.contains("Rma INV"), "unexpected plan:\n{joined}");
        assert!(joined.contains("Scan rating"), "unexpected plan:\n{joined}");
        // EXPLAIN of a non-SELECT is a parse error
        assert!(e.execute("EXPLAIN DROP TABLE rating").is_err());
    }

    #[test]
    fn explain_analyze_reports_actuals_on_a_three_way_join() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE a (k INT, x INT)").unwrap();
        e.execute("CREATE TABLE b (k2 INT, y INT)").unwrap();
        e.execute("CREATE TABLE c (k3 INT, z INT)").unwrap();
        for t in ["a", "b", "c"] {
            let rows: Vec<String> = (0..200).map(|i| format!("({i}, {})", i % 9)).collect();
            e.execute(&format!("INSERT INTO {t} VALUES {}", rows.join(", ")))
                .unwrap();
        }
        let text = e
            .explain_analyze("SELECT * FROM a JOIN b ON k = k2 JOIN c ON k2 = k3 WHERE x < 5")
            .unwrap();
        // every node line carries actuals: rows, wall time, morsels, q-error
        for line in text.lines() {
            assert!(line.contains("actual="), "missing actuals: {line}");
            assert!(line.contains("time="), "missing time: {line}");
            assert!(line.contains("q_err="), "missing q-error: {line}");
        }
        assert_eq!(
            text.matches("JoinOn").count(),
            2,
            "expected a 3-way join:\n{text}"
        );
        // the join keys match row-for-row, so each join outputs 200 rows
        // pre-filter; the root reports the filtered count
        assert!(text.contains("actual="), "no actuals:\n{text}");

        // and the SQL statement form returns the same text as a relation
        let r = e
            .query("EXPLAIN ANALYZE SELECT * FROM a JOIN b ON k = k2 JOIN c ON k2 = k3")
            .unwrap();
        assert_eq!(r.schema().names().collect::<Vec<_>>(), vec!["plan"]);
        let joined: Vec<String> = (0..r.len())
            .map(|i| r.cell(i, "plan").unwrap().to_string())
            .collect();
        assert!(joined.iter().all(|l| l.contains("actual=")), "{joined:?}");
        // EXPLAIN ANALYZE of a non-SELECT is a parse error
        assert!(e.execute("EXPLAIN ANALYZE DROP TABLE a").is_err());
    }

    #[test]
    fn session_engines_report_metrics() {
        let server = Server::new(rma_core::RmaContext::default());
        let mut a = Engine::session(&server);
        let mut b = Engine::session(&server);
        assert!(a.counters().is_some());
        assert!(Engine::new().counters().is_none());
        a.execute("CREATE TABLE t (x INT)").unwrap();
        a.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        a.query("SELECT * FROM t").unwrap();
        a.query("SELECT * FROM t WHERE x > 1").unwrap();
        b.query("SELECT * FROM t").unwrap();
        let snap = server.metrics_snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.rows, 3 + 2 + 3);
        assert_eq!(snap.sessions.len(), 2);
        assert_eq!(snap.sessions[0].queries, 2);
        assert_eq!(snap.sessions[1].rows, 3);
        let json = snap.to_json();
        assert!(json.contains("\"queries\":3"), "{json}");
    }

    #[test]
    fn sql_consecutive_rma_ops_share_one_sort() {
        let mut e = engine_with_rating();
        // snapshot: the outer INV's argument is flagged as pre-sorted
        let plan = e
            .explain("SELECT * FROM INV(INV(rating BY u) BY u)")
            .unwrap();
        assert_eq!(
            plan.matches("(sorted: skip sort)").count(),
            1,
            "redundant sort not eliminated:\n{plan}"
        );
        // runtime: exactly one sort is performed for the whole query
        e.rma_context().reset_stats();
        let out = e.query("SELECT * FROM INV(INV(rating BY u) BY u)").unwrap();
        assert_eq!(e.rma_context().stats().sorts, 1);
        // the double inversion returns the original matrix
        let orig = e.query("SELECT * FROM rating").unwrap();
        let sorted = out.sorted_by(&["u"]).unwrap();
        let orig_sorted = orig.sorted_by(&["u"]).unwrap();
        for i in 0..3 {
            for c in ["Balto", "Heat", "Net"] {
                let rma_storage::Value::Float(a) = sorted.cell(i, c).unwrap() else {
                    panic!()
                };
                let rma_storage::Value::Float(b) = orig_sorted.cell(i, c).unwrap() else {
                    panic!()
                };
                assert!((a - b).abs() < 1e-9, "{c}[{i}]: {a} vs {b}");
            }
        }
    }

    #[test]
    fn parallel_engine_matches_serial() {
        // the same script executed at 1 and 4 worker threads produces
        // identical relations (scan→filter pipeline, join, aggregation)
        let build = |threads: usize| {
            let mut e = Engine::with_threads(threads);
            e.execute("CREATE TABLE t (k INT, g INT, x DOUBLE)")
                .unwrap();
            let rows: Vec<String> = (0..500)
                .map(|i| format!("({}, {}, {}.0)", i, i % 7, (i * 3) % 11))
                .collect();
            e.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
                .unwrap();
            e
        };
        let queries = [
            "SELECT k, x FROM t WHERE x > 4 AND k < 400",
            "SELECT g, COUNT(*) AS n, SUM(x) AS s FROM t WHERE k > 10 GROUP BY g",
            "SELECT * FROM t a JOIN (SELECT g AS g2, AVG(x) AS m FROM t GROUP BY g) b ON g = g2 WHERE k < 50",
        ];
        let mut serial = build(1);
        let mut parallel = build(4);
        for q in queries {
            assert_eq!(serial.query(q).unwrap(), parallel.query(q).unwrap(), "{q}");
        }
    }

    #[test]
    fn explain_shows_topk_replacing_sort_limit() {
        let mut e = engine_with_rating();
        let plan = e
            .explain("SELECT u, Heat FROM rating ORDER BY Heat DESC LIMIT 2")
            .unwrap();
        assert!(plan.contains("TopK"), "expected TopK:\n{plan}");
        assert!(!plan.contains("OrderBy"), "sort not fused:\n{plan}");
        assert!(!plan.contains("Limit"), "limit not fused:\n{plan}");
        // without the optimizer the Sort+Limit pair survives
        e.optimize = false;
        let plan = e
            .explain("SELECT u, Heat FROM rating ORDER BY Heat DESC LIMIT 2")
            .unwrap();
        assert!(plan.contains("OrderBy") && plan.contains("Limit"));
        // and the fused plan returns the right rows
        e.optimize = true;
        let r = e
            .query("SELECT u, Heat FROM rating ORDER BY Heat DESC LIMIT 2")
            .unwrap();
        assert_eq!(r.cell(0, "u").unwrap(), Value::from("Jan"));
        assert_eq!(r.cell(1, "u").unwrap(), Value::from("Ann"));
    }

    #[test]
    fn paper_folded_query_runs() {
        // the §7.2 SQL translation, end to end on the Figure 5/7 data
        let mut e = Engine::new();
        e.execute("CREATE TABLE w1 (U VARCHAR, B DOUBLE, H DOUBLE, N DOUBLE)")
            .unwrap();
        e.execute("INSERT INTO w1 VALUES ('Ann', 2.0, 1.5, 0.5), ('Jan', 1.0, 4.0, 1.0)")
            .unwrap();
        e.execute("CREATE TABLE w3 (U VARCHAR, B DOUBLE, H DOUBLE, N DOUBLE)")
            .unwrap();
        e.execute("INSERT INTO w3 VALUES ('Ann', -0.5, -1.25, -0.25), ('Jan', 0.5, 1.25, 0.25)")
            .unwrap();
        // w4 = TRA(w3 BY U) as a subexpression of the folded query
        let r = e
            .query(
                "SELECT C, B/(M-1) AS B, H/(M-1) AS H, N/(M-1) AS N \
                 FROM MMU(TRA(w3 BY U) BY C, w3 BY U) AS w5 \
                 CROSS JOIN ( SELECT COUNT(*) AS M FROM w1 ) AS t",
            )
            .unwrap();
        assert_eq!(r.len(), 3);
        let names: Vec<_> = r.schema().names().collect();
        assert_eq!(names, vec!["C", "B", "H", "N"]);
        // covariance of B with B over the two centred rows: (0.25+0.25)/1
        let sorted = r.sorted_by(&["C"]).unwrap();
        assert_eq!(sorted.cell(0, "C").unwrap(), Value::from("B"));
        assert_eq!(sorted.cell(0, "B").unwrap(), Value::Float(0.5));
    }
}
