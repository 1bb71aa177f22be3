//! The relational algebra operators: σ, π, ρ, ⋈, ×, ϑ, ∪, distinct, sort.
//!
//! All operators are column-at-a-time: they construct output columns in bulk
//! from input columns (selection vectors, gather indices, hash tables over
//! key columns), never materialising boxed tuples on hot paths.

mod aggregate;
mod external;
mod join;
mod parallel;
mod project;
mod select;
mod setops;
mod sort;

pub use aggregate::{aggregate, AggFunc, AggSpec};
pub use join::{cross_product, join_on, natural_join, theta_join};
pub use parallel::{aggregate_parallel, join_on_parallel, natural_join_parallel, select_parallel};
pub use project::{project, project_exprs, rename};
pub use select::select;
pub use setops::{distinct, limit, order_by, top_k, union_all};
pub use sort::{order_by_parallel, top_k_parallel};

use crate::error::RelationError;
use crate::par::{current_guard, morsel_count, partition_ranges, WorkerPool};
use rma_storage::{Column, ColumnAccessor};
use std::hash::{Hash, Hasher};

/// An operator's working memory, charged against the thread's active
/// guard for exactly the operator's lifetime: charged on construction,
/// released on drop (success *and* error paths). The weights operators
/// pass are documented estimates, not measurements — their job is to stop
/// (or spill) a hopeless operator *before* the allocation, not to meter it
/// exactly. Scoping makes the budget govern *peak* operator memory, not
/// the lifetime sum of every materialization a plan performs.
struct WorkingSet(u64);

impl WorkingSet {
    /// Charge `bytes` (a no-op scope when ungoverned); fails with the
    /// guard's typed trip when the charge breaches the budget.
    fn charge(bytes: u64) -> Result<WorkingSet, RelationError> {
        match current_guard() {
            Some(g) => {
                g.try_charge(bytes)?;
                Ok(WorkingSet(bytes))
            }
            None => Ok(WorkingSet(0)),
        }
    }
}

impl Drop for WorkingSet {
    fn drop(&mut self) {
        if self.0 > 0 {
            if let Some(g) = current_guard() {
                g.release(self.0);
            }
        }
    }
}

/// Where an operator with a spilling variant runs.
enum Placement {
    /// In memory, holding its charged working set.
    Memory(WorkingSet),
    /// On disk: the estimate does not fit the guard's remaining headroom.
    Spill,
}

/// Place an operator whose working set is estimated at `est_bytes`: spill
/// only when a guard with a finite budget is active and the estimate does
/// not fit its headroom ([`crate::QueryGuard::fits`], a pure probe);
/// otherwise charge the estimate for the operator's lifetime.
fn place(est_bytes: u64) -> Result<Placement, RelationError> {
    match current_guard() {
        Some(g) if !g.fits(est_bytes) => Ok(Placement::Spill),
        _ => WorkingSet::charge(est_bytes).map(Placement::Memory),
    }
}

/// The one partition step of every partitioned operator: assign each of
/// `len` visible rows to one of `parts` buckets, morsel-parallel on
/// `pool`. `bucket(pos)` names a row's bucket (a key-range bucket for the
/// sort, a key-hash bucket for the grace join and the spilling aggregate),
/// or `None` to drop the row. Positions stay ascending within each
/// bucket. Where the bucket lists go is the caller's placement: sorted in
/// memory, or written to spill files.
fn partition<F>(
    len: usize,
    parts: usize,
    pool: &WorkerPool,
    bucket: F,
) -> Result<Vec<Vec<usize>>, RelationError>
where
    F: Fn(usize) -> Option<usize> + Sync,
{
    let ranges = partition_ranges(len, morsel_count(pool.threads(), len));
    let locals = pool.for_each(&ranges, |_, range| {
        let mut local = vec![Vec::new(); parts];
        for pos in range.clone() {
            if let Some(b) = bucket(pos) {
                local[b].push(pos);
            }
        }
        local
    });
    crate::par::guard_checkpoint()?;
    // morsels are ascending disjoint ranges: concatenating their lists in
    // morsel order keeps each bucket ascending
    let mut buckets: Vec<Vec<usize>> = (0..parts)
        .map(|b| Vec::with_capacity(locals.iter().map(|l| l[b].len()).sum()))
        .collect();
    for local in locals {
        for (all, part) in buckets.iter_mut().zip(local) {
            all.extend(part);
        }
    }
    Ok(buckets)
}

/// A hashable, equatable key extracted from one row of a set of columns.
/// Used by grouping and duplicate elimination (joins hash the typed column
/// data directly — see [`hash_row`] / [`rows_eq`] — and never box keys).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum KeyPart {
    Int(i64),
    /// Float keyed by its bit pattern (exact equality; NaNs all equal).
    Float(u64),
    Str(String),
    Bool(bool),
    Date(i32),
    Null,
}

/// Normalise a float for keying: NaN payloads collapse, `-0.0 == 0.0`.
#[inline]
pub(crate) fn float_key_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else if x == 0.0 {
        0u64
    } else {
        x.to_bits()
    }
}

/// Extract the grouping/join key of row `i` over `cols`. Reads through
/// the encoding-aware accessors — a dictionary or RLE key column is keyed
/// without decoding it.
pub(crate) fn row_key(cols: &[&Column], i: usize) -> Vec<KeyPart> {
    cols.iter()
        .map(|c| {
            if c.is_null(i) {
                return KeyPart::Null;
            }
            match c.accessor() {
                ColumnAccessor::Int(v) => KeyPart::Int(v.get(i)),
                ColumnAccessor::Float(v) => KeyPart::Float(float_key_bits(v.get(i))),
                ColumnAccessor::Str(v) => KeyPart::Str(v.get(i).to_owned()),
                ColumnAccessor::Bool(v) => KeyPart::Bool(v[i]),
                ColumnAccessor::Date(v) => KeyPart::Date(v[i]),
            }
        })
        .collect()
}

/// Composite hash of row `i` over typed column slices — no per-row key
/// allocation, no `Value` boxing. Must only be called on null-free rows
/// (callers skip null keys first). Hash-equal rows are confirmed with
/// [`rows_eq`], so cross-type hash discipline only affects bucket quality,
/// not correctness; a type discriminant is mixed in to keep e.g. `Int(0)`
/// and `Bool(false)` apart.
#[inline]
pub(crate) fn hash_row(cols: &[&Column], i: usize) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for c in cols {
        match c.accessor() {
            ColumnAccessor::Int(v) => {
                0u8.hash(&mut h);
                v.get(i).hash(&mut h);
            }
            ColumnAccessor::Float(v) => {
                1u8.hash(&mut h);
                float_key_bits(v.get(i)).hash(&mut h);
            }
            // dictionary strings hash their *value* (not the code), so a
            // dict-encoded build side and a plain probe side still meet in
            // the same bucket
            ColumnAccessor::Str(v) => {
                2u8.hash(&mut h);
                v.get(i).hash(&mut h);
            }
            ColumnAccessor::Bool(v) => {
                3u8.hash(&mut h);
                v[i].hash(&mut h);
            }
            ColumnAccessor::Date(v) => {
                4u8.hash(&mut h);
                v[i].hash(&mut h);
            }
        }
    }
    h.finish()
}

/// Do row `i` of `a` and row `j` of `b` hold equal (column-wise) key
/// values? Equality matches [`KeyPart`] semantics exactly: same-type
/// comparison only (an `Int 5` never equals a `Float 5.0` key), floats by
/// normalised bits. Rows must be null-free (callers skip null keys).
#[inline]
pub(crate) fn rows_eq(a: &[&Column], i: usize, b: &[&Column], j: usize) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .all(|(ca, cb)| match (ca.accessor(), cb.accessor()) {
            (ColumnAccessor::Int(x), ColumnAccessor::Int(y)) => x.get(i) == y.get(j),
            (ColumnAccessor::Float(x), ColumnAccessor::Float(y)) => {
                float_key_bits(x.get(i)) == float_key_bits(y.get(j))
            }
            (ColumnAccessor::Str(x), ColumnAccessor::Str(y)) => {
                // same shared dictionary ⇒ compare codes, not bytes
                if let (Some(dx), Some(dy)) = (x.dict(), y.dict()) {
                    if dx.shares_table(dy) {
                        return dx.code(i) == dy.code(j);
                    }
                }
                x.get(i) == y.get(j)
            }
            (ColumnAccessor::Bool(x), ColumnAccessor::Bool(y)) => x[i] == y[j],
            (ColumnAccessor::Date(x), ColumnAccessor::Date(y)) => x[i] == y[j],
            _ => false,
        })
}
