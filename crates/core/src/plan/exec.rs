//! Logical-plan interpreter: walks an (optimized) [`LogicalPlan`] and calls
//! the eager relational-algebra functions and RMA kernels. The eager APIs
//! remain the execution layer; this module only adds plan-level concerns —
//! table resolution, scan-time projection, sortedness hints, per-node
//! backend overrides, and the routing into the morsel-driven parallel
//! engine.
//!
//! Parallel routing: with `ctx.options.threads > 1`, selections, hash
//! joins, aggregation, sort, and top-k run partition-parallel
//! operator-at-a-time on the context's session
//! [`WorkerPool`](rma_relation::WorkerPool) (`ctx.pool()`), never on
//! per-operator thread spawns. Every other operator — and everything at
//! `threads == 1` — runs serially; each `*_parallel` operator itself falls
//! back to its serial form on a single-worker pool.
//!
//! Profiling: [`execute_analyzed`] runs the same interpreter with a
//! per-node actuals recorder — output rows, inclusive wall time, and the
//! morsels the node's own operator dispatched — in the exact pre-order
//! the EXPLAIN tree prints nodes, which is what `EXPLAIN ANALYZE` joins
//! back onto the cost-annotated rendering. The morsel count is read off
//! the query's [`Counter::Morsels`] (bumped by the pool where items are
//! claimed) around the operator call, so it is what ran, not a guess at
//! each operator's serial fallback. Analyzed and plain runs execute the
//! same operators, so the profile is of the plan that production runs;
//! span recording ([`rma_relation::trace`]) is active in both modes
//! whenever a collector is installed.
//!
//! Out-of-core: the operators own their memory policy. Under a budgeted
//! [`rma_relation::QueryGuard`], the keyed aggregate, the joins, the sort,
//! and top-k each estimate their working set and charge it for their own
//! lifetime; when the estimate does not fit the guard's headroom, the
//! aggregate, the joins, and the sort run their spilling variant
//! (partitioned aggregate, grace hash join, external sort) instead of
//! failing the query. All three share one shape: one partition step (key
//! hash buckets, or key-range buckets for the sort), the in-memory kernel
//! per partition, and a concatenation. Spilled bytes are never charged
//! against the budget; the spill writer counts them on the query's own
//! counters ([`rma_relation::QueryGuard::counters`]), which roll up into
//! the context's [`crate::context::ExecStats`] when the query ends and
//! read out per node as [`NodeActual`] deltas.

use super::{LogicalPlan, PlanError, TableProvider};
use crate::context::{QueryScope, RmaContext};
use crate::error::RmaError;
use rma_relation::trace;
use rma_relation::{self as rel, Relation};
use rma_storage::{Counter, CounterSnapshot};
use std::cell::RefCell;
use std::time::Instant;

/// Execute a logical plan against a table provider.
///
/// Always runs under a [`QueryGuard`](rma_relation::QueryGuard): the
/// calling thread's active one when installed (the serving layer's
/// per-query governor), otherwise one minted here by
/// [`RmaContext::query_guard`] (unlimited by
/// default; the `RMA_FAULT` fault-injection knob arms it) whose counters
/// roll up into `ctx` when the plan ends. Governance trips surface as
/// `PlanError::Rma(RmaError::Cancelled | DeadlineExceeded |
/// ResourceExhausted)`.
pub fn execute(
    plan: &LogicalPlan,
    ctx: &RmaContext,
    provider: &dyn TableProvider,
) -> Result<Relation, PlanError> {
    let _query = governed(ctx);
    execute_inner(plan, ctx, provider, None)
}

/// Mint this plan's query on `ctx` unless a guard already governs the
/// thread (whoever minted that one rolls its counters up).
fn governed(ctx: &RmaContext) -> Option<QueryScope<'_>> {
    rel::current_guard()
        .is_none()
        .then(|| ctx.enter(ctx.query_guard()))
}

/// The running query's counters right now (every plan runs under a
/// guard, so this is only empty for a plan interpreted outside
/// [`execute`]/[`execute_analyzed`]).
fn query_counts() -> CounterSnapshot {
    rel::current_guard()
        .map(|g| g.counters().snapshot())
        .unwrap_or_default()
}

/// Operator-boundary guard check, mapped into the plan error taxonomy.
fn checkpoint() -> Result<(), PlanError> {
    rel::guard_checkpoint().map_err(RmaError::from)?;
    Ok(())
}

/// What one plan node actually did during an analyzed execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeActual {
    /// Rows the node produced.
    pub rows: u64,
    /// Inclusive wall time (the node and its subtree), in nanoseconds.
    pub nanos: u64,
    /// Pool items the node's own operator dispatched, children excluded
    /// (1 when it dispatched none: serial operators, small inputs).
    pub morsels: u64,
    /// What the node's subtree added to the query's own counters
    /// (inclusive, like `nanos`): spill bytes and partitions, decode
    /// sinks.
    pub counts: CounterSnapshot,
}

/// Execute a plan while recording per-node actuals, returned **in the
/// pre-order [`super::explain`] prints the tree** (node before children;
/// join children left then right; RMA arguments in declaration order).
/// The operators are exactly [`execute`]'s, so is the result relation.
pub fn execute_analyzed(
    plan: &LogicalPlan,
    ctx: &RmaContext,
    provider: &dyn TableProvider,
) -> Result<(Relation, Vec<NodeActual>), PlanError> {
    let _query = governed(ctx);
    let actuals = RefCell::new(Vec::new());
    let out = execute_inner(plan, ctx, provider, Some(&actuals))?;
    Ok((out, actuals.into_inner()))
}

/// Morsels the running query has dispatched so far ([`Counter::Morsels`],
/// bumped by the pool where items are claimed).
fn query_morsels() -> u64 {
    rel::current_guard().map_or(0, |g| g.counters().get(Counter::Morsels))
}

/// Run a node's own operator (its inputs already computed) and set
/// `morsels` to the pool items it dispatched — children excluded — or 1
/// when it dispatched none.
fn dispatched<T>(morsels: &mut u64, op: impl FnOnce() -> T) -> T {
    let before = query_morsels();
    let out = op();
    *morsels = query_morsels().saturating_sub(before).max(1);
    out
}

/// Static span label for a plan node (trace spans carry `&'static str`).
fn node_label(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::Values { .. } => "exec.values",
        LogicalPlan::Scan { .. } => "exec.scan",
        LogicalPlan::Select { .. } => "exec.select",
        LogicalPlan::Project { .. } => "exec.project",
        LogicalPlan::Aggregate { .. } => "exec.aggregate",
        LogicalPlan::NaturalJoin { .. } => "exec.natural_join",
        LogicalPlan::JoinOn { .. } => "exec.join_on",
        LogicalPlan::Cross { .. } => "exec.cross",
        LogicalPlan::UnionAll { .. } => "exec.union_all",
        LogicalPlan::Distinct { .. } => "exec.distinct",
        LogicalPlan::OrderBy { .. } => "exec.order_by",
        LogicalPlan::Limit { .. } => "exec.limit",
        LogicalPlan::TopK { .. } => "exec.top_k",
        LogicalPlan::Rma { .. } => "exec.rma",
        LogicalPlan::AssertKey { .. } => "exec.assert_key",
    }
}

/// The interpreter proper. `analyze` carries the per-node actuals sink of
/// an [`execute_analyzed`] run; plan recursion happens on the submitting
/// thread only (pool jobs run leaf computations), so a `RefCell` suffices.
fn execute_inner(
    plan: &LogicalPlan,
    ctx: &RmaContext,
    provider: &dyn TableProvider,
    analyze: Option<&RefCell<Vec<NodeActual>>>,
) -> Result<Relation, PlanError> {
    let pool = ctx.pool();
    // operator-boundary governance: a cancelled/expired/over-budget query
    // stops before the next node even when every operator ran serially
    checkpoint()?;
    let my_id = analyze.map(|a| {
        let mut v = a.borrow_mut();
        v.push(NodeActual::default());
        v.len() - 1
    });
    let started = analyze.map(|_| Instant::now());
    let counts0 = analyze.map(|_| query_counts());
    let span = trace::clock();
    let mut morsels: u64 = 1;
    let result = match plan {
        LogicalPlan::Values { rel, projection } => {
            scan_projected(rel.as_ref(), projection.as_deref())
        }
        LogicalPlan::Scan { table, projection } => {
            let r = provider
                .table(table)
                .ok_or_else(|| PlanError::UnknownTable(table.clone()))?;
            scan_projected(r, projection.as_deref())
        }
        LogicalPlan::Select { input, predicate } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            // select_parallel (like the other *_parallel operators) runs
            // the serial operator itself on a single-worker pool
            Ok(dispatched(&mut morsels, || {
                rel::select_parallel(&r, predicate, pool)
            })?)
        }
        LogicalPlan::Project { input, items } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            let refs: Vec<(rel::Expr, &str)> =
                items.iter().map(|(e, n)| (e.clone(), n.as_str())).collect();
            Ok(rel::project_exprs(&r, &refs)?)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            let gb: Vec<&str> = group_by.iter().map(String::as_str).collect();
            Ok(dispatched(&mut morsels, || {
                rel::aggregate_parallel(&r, &gb, aggs, pool)
            })?)
        }
        LogicalPlan::NaturalJoin { left, right } => {
            let l = execute_inner(left, ctx, provider, analyze)?;
            let r = execute_inner(right, ctx, provider, analyze)?;
            Ok(dispatched(&mut morsels, || {
                rel::natural_join_parallel(&l, &r, pool)
            })?)
        }
        LogicalPlan::JoinOn { left, right, on } => {
            let l = execute_inner(left, ctx, provider, analyze)?;
            let r = execute_inner(right, ctx, provider, analyze)?;
            let pairs: Vec<(&str, &str)> =
                on.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            Ok(dispatched(&mut morsels, || {
                rel::join_on_parallel(&l, &r, &pairs, pool)
            })?)
        }
        LogicalPlan::Cross { left, right } => {
            let l = execute_inner(left, ctx, provider, analyze)?;
            let r = execute_inner(right, ctx, provider, analyze)?;
            Ok(rel::cross_product(&l, &r)?)
        }
        LogicalPlan::UnionAll { left, right } => {
            let l = execute_inner(left, ctx, provider, analyze)?;
            let r = execute_inner(right, ctx, provider, analyze)?;
            Ok(rel::union_all(&l, &r)?)
        }
        LogicalPlan::Distinct { input } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            Ok(rel::distinct(&r)?)
        }
        LogicalPlan::OrderBy { input, keys } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            let attrs: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            let dirs: Vec<bool> = keys.iter().map(|(_, asc)| *asc).collect();
            // range partition + per-bucket sorts; result is a view
            Ok(dispatched(&mut morsels, || {
                rel::order_by_parallel(&r, &attrs, &dirs, pool)
            })?)
        }
        LogicalPlan::Limit { input, n } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            Ok(rel::limit(&r, *n, 0))
        }
        LogicalPlan::TopK { input, keys, n } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            let attrs: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            let dirs: Vec<bool> = keys.iter().map(|(_, asc)| *asc).collect();
            // per-worker bounded heaps merged at the barrier
            Ok(dispatched(&mut morsels, || {
                rel::top_k_parallel(&r, &attrs, &dirs, *n, pool)
            })?)
        }
        LogicalPlan::Rma { op, args, backend } => {
            let expected = if op.is_binary() { 2 } else { 1 };
            if args.len() != expected {
                return Err(PlanError::Plan(format!(
                    "{} expects {expected} argument(s), found {}",
                    op.name(),
                    args.len()
                )));
            }
            // argument subtrees run under the caller's context; only this
            // node's kernel dispatch honours the plan-level backend choice
            let inputs: Vec<Relation> = args
                .iter()
                .map(|a| execute_inner(&a.input, ctx, provider, analyze))
                .collect::<Result<_, _>>()?;
            match backend {
                Some(b) if *b != ctx.options.backend => {
                    dispatch_rma(&ctx.with_backend_shared(*b), *op, args, &inputs)
                }
                _ => dispatch_rma(ctx, *op, args, &inputs),
            }
        }
        LogicalPlan::AssertKey { input, attrs } => {
            let r = execute_inner(input, ctx, provider, analyze)?;
            let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            r.require_key(&refs)?;
            Ok(r)
        }
    }?;
    trace::record(
        node_label(plan),
        "exec",
        0,
        span,
        0,
        result.len() as u64,
        morsels,
    );
    if let (Some(id), Some(t0), Some(c0), Some(sink)) = (my_id, started, counts0, analyze) {
        sink.borrow_mut()[id] = NodeActual {
            rows: result.len() as u64,
            nanos: t0.elapsed().as_nanos() as u64,
            morsels,
            counts: query_counts().since(&c0),
        };
    }
    Ok(result)
}

fn dispatch_rma(
    ctx: &RmaContext,
    op: crate::shape::RmaOp,
    args: &[super::RmaArg],
    inputs: &[Relation],
) -> Result<Relation, PlanError> {
    let first_order: Vec<&str> = args[0].order.iter().map(String::as_str).collect();
    if op.is_binary() {
        let second_order: Vec<&str> = args[1].order.iter().map(String::as_str).collect();
        Ok(ctx.binary_hinted(
            op,
            &inputs[0],
            &first_order,
            args[0].sorted_input,
            &inputs[1],
            &second_order,
            args[1].sorted_input,
        )?)
    } else {
        Ok(ctx.unary_hinted(op, &inputs[0], &first_order, args[0].sorted_input)?)
    }
}

/// Materialise a scan: project straight off the borrowed relation so a
/// pruned scan never copies the columns it is about to drop.
fn scan_projected(r: &Relation, projection: Option<&[String]>) -> Result<Relation, PlanError> {
    match projection {
        None => Ok(r.clone()),
        Some(cols) => {
            let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            Ok(rel::project(r, &refs)?)
        }
    }
}
