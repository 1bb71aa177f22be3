//! Out-of-core operators: grace hash join, external sort, and the
//! partition-wise spilling aggregate.
//!
//! These are the spill-path twins of the in-memory parallel operators,
//! private to them: each public operator (`join_on_parallel`,
//! `natural_join_parallel`, `aggregate_parallel`, `order_by_parallel`)
//! takes its twin when the headroom probe
//! ([`QueryGuard::fits`](crate::par::QueryGuard::fits)) says its working
//! set will not fit the memory budget ([`super::place`]). All three have
//! one shape: the shared partition step ([`super::partition`]) buckets the
//! rows, [`spill_buckets`] writes each bucket to its own [`SpillFile`],
//! and each partition is read back and run through the in-memory kernel
//! directly — no nested charge, no nested spill decision — before the
//! results concatenate:
//!
//! - **Grace hash join**: both inputs are hash-partitioned on the join key
//!   (null-key rows are dropped up front — inner-join semantics), then
//!   each partition pair is joined independently with the ordinary
//!   pool-parallel hash join, so every spilled partition re-enters the
//!   worker pool as its own morsel source. A partition whose build side
//!   still exceeds the budget is recursively repartitioned (different hash
//!   bits per level) up to [`MAX_GRACE_DEPTH`]; past that depth it is
//!   joined in memory regardless — the budget becomes best-effort rather
//!   than looping forever on pathological key skew.
//! - **External sort**: the rows are range-partitioned on the sort keys
//!   (the parallel sort's splitters), each partition is sorted by the
//!   in-memory sort, and the partitions concatenate in key order — no
//!   merge. Positions stay ascending within a partition, so the
//!   in-partition index tie-break is the serial sort's global one.
//! - **Spilling aggregate**: rows are hash-partitioned on the group key
//!   (null keys *are* group keys here, unlike joins), each partition is
//!   aggregated independently — group keys never span partitions.
//!
//! Results are value-identical to the in-memory operators, and the sort's
//! row order is identical too; the **row order** of the grace join and the
//! spilling aggregate is partition-major rather than probe-major, which
//! SQL semantics leave unspecified.

use super::sort::{sort_in_memory, SortKeys};
use super::{hash_row, row_key};
use crate::error::RelationError;
use crate::par::{current_guard, guard_checkpoint, WorkerPool};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::spill::{SpillFile, SPILL_CHUNK_ROWS};
use crate::trace;
use rma_storage::Column;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// Maximum grace-join repartition depth. Each level consumes 16 fresh bits
/// of the 64-bit key hash, so two levels of fanout ≤ 32 already separate
/// everything except genuinely duplicate keys — which no partitioning can
/// split further.
const MAX_GRACE_DEPTH: u32 = 2;

/// Partition fanout bounds: at least a real split, at most a
/// file-descriptor count that stays polite at two levels of recursion.
const MIN_FANOUT: usize = 2;
const MAX_FANOUT: usize = 32;

/// The partition fanout for an operator whose working set is estimated at
/// `est_bytes`, aiming each partition at half the budget's headroom.
fn fanout(est_bytes: u64) -> usize {
    let budget = current_guard().map_or(0, |g| g.mem_budget());
    if budget == 0 {
        return 8; // forced spill without a budget (tests): any real split
    }
    let target = (budget / 2).max(1);
    usize::try_from(est_bytes / target + 1)
        .unwrap_or(MAX_FANOUT)
        .clamp(MIN_FANOUT, MAX_FANOUT)
}

/// ~bytes the relation occupies once materialized (the planner's uniform
/// 8-bytes-per-cell estimate).
fn rel_bytes_est(r: &Relation) -> u64 {
    (r.len() as u64) * (r.schema().len().max(1) as u64) * 8
}

/// Partition bucket of base row `base`: key hash, shifted by 16 bits per
/// recursion level so each level splits on fresh bits. Null-containing
/// keys take the boxed-key hash (only the aggregate path sees them).
fn part_bucket(cols: &[&Column], base: usize, parts: usize, depth: u32) -> usize {
    let h = if cols.iter().any(|c| c.is_null(base)) {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        row_key(cols, base).hash(&mut hasher);
        hasher.finish()
    } else {
        hash_row(cols, base)
    };
    ((h >> (16 * depth.min(3))) % parts as u64) as usize
}

/// Hash-partition the visible rows of `r` on `keys` into `parts` buckets.
/// `skip_null_keys` drops rows with a null in any key column (inner-join
/// semantics); aggregation keeps them (null group keys form groups).
fn hash_buckets(
    r: &Relation,
    keys: &[&str],
    parts: usize,
    depth: u32,
    skip_null_keys: bool,
    pool: &WorkerPool,
) -> Result<Vec<Vec<usize>>, RelationError> {
    let cols: Vec<&Column> = keys
        .iter()
        .map(|n| r.base_column(n))
        .collect::<Result<_, _>>()?;
    super::partition(r.len(), parts, pool, |pos| {
        let base = r.base_index(pos);
        if skip_null_keys && cols.iter().any(|c| c.is_null(base)) {
            return None;
        }
        Some(part_bucket(&cols, base, parts, depth))
    })
}

fn create_files(parts: usize) -> Result<Vec<SpillFile>, RelationError> {
    (0..parts).map(|_| SpillFile::create()).collect()
}

/// Append each bucket's rows of `r` to its file, chunk-wise so no
/// partition is ever materialized whole — the one spill write path. The
/// buckets write concurrently, one pool item per file.
fn write_buckets(
    r: &Relation,
    buckets: &[Vec<usize>],
    files: &mut [SpillFile],
    pool: &WorkerPool,
) -> Result<(), RelationError> {
    let items: Vec<(Mutex<&mut SpillFile>, &[usize])> = files
        .iter_mut()
        .map(Mutex::new)
        .zip(buckets.iter().map(Vec::as_slice))
        .collect();
    let written = pool.for_each(&items, |_, (file, rows)| {
        let mut file = file.lock().expect("spill file poisoned");
        rows.chunks(SPILL_CHUNK_ROWS)
            .try_for_each(|chunk| file.append(&r.take(chunk)))
    });
    guard_checkpoint()?;
    written.into_iter().collect()
}

/// Write the buckets of `r` to one fresh spill file each.
fn spill_buckets(
    r: &Relation,
    buckets: &[Vec<usize>],
    pool: &WorkerPool,
) -> Result<Vec<SpillFile>, RelationError> {
    let mut files = create_files(buckets.len())?;
    write_buckets(r, buckets, &mut files, pool)?;
    for f in &mut files {
        f.finish()?;
    }
    Ok(files)
}

/// Stream a spilled partition back and re-partition it on fresh hash bits
/// (grace recursion for skewed partitions).
fn repartition(
    f: &SpillFile,
    schema: &Schema,
    keys: &[&str],
    parts: usize,
    depth: u32,
    pool: &WorkerPool,
) -> Result<Vec<SpillFile>, RelationError> {
    let mut files = create_files(parts)?;
    let mut rd = f.reader(schema)?;
    while let Some(chunk) = rd.next_chunk()? {
        let buckets = hash_buckets(&chunk, keys, parts, depth, true, pool)?;
        write_buckets(&chunk, &buckets, &mut files, pool)?;
    }
    for f in &mut files {
        f.finish()?;
    }
    Ok(files)
}

/// Grace hash equi-join (spill path of [`super::join_on`] /
/// [`super::parallel::join_on_parallel`]). Result rows are partition-major.
pub(super) fn grace_join_on(
    a: &Relation,
    b: &Relation,
    on: &[(&str, &str)],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    if on.is_empty() {
        return Err(RelationError::Expression(
            "equi-join requires at least one key pair".to_string(),
        ));
    }
    grace_join(a, b, on, false, pool)
}

/// Grace natural join (spill path of [`super::natural_join`] /
/// [`super::parallel::natural_join_parallel`]). Falls back to the cross
/// product when no attributes are shared, exactly like the in-memory
/// operator (a cross product has no key to partition on).
pub(super) fn grace_natural_join(
    a: &Relation,
    b: &Relation,
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    let common = super::join::common_attributes(a, b);
    if common.is_empty() {
        return super::cross_product(a, b);
    }
    let pairs: Vec<(&str, &str)> = common.iter().map(|&n| (n, n)).collect();
    grace_join(a, b, &pairs, true, pool)
}

fn grace_join(
    a: &Relation,
    b: &Relation,
    on: &[(&str, &str)],
    natural: bool,
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    let left_keys: Vec<&str> = on.iter().map(|(l, _)| *l).collect();
    let right_keys: Vec<&str> = on.iter().map(|(_, r)| *r).collect();
    let parts = fanout(rel_bytes_est(b));
    let span = trace::clock();
    let a_buckets = hash_buckets(a, &left_keys, parts, 0, true, pool)?;
    let a_files = spill_buckets(a, &a_buckets, pool)?;
    let b_buckets = hash_buckets(b, &right_keys, parts, 0, true, pool)?;
    let b_files = spill_buckets(b, &b_buckets, pool)?;
    trace::record(
        "join.partition",
        "join",
        0,
        span,
        (a.len() + b.len()) as u64,
        0,
        parts as u64,
    );
    let mut results = Vec::with_capacity(parts);
    for (af, bf) in a_files.iter().zip(&b_files) {
        results.push(join_partition(
            af,
            a.schema(),
            bf,
            b.schema(),
            on,
            natural,
            1,
            pool,
        )?);
    }
    guard_checkpoint()?;
    Relation::concat(&results)
}

/// Join one spilled partition pair: recurse when the build side still
/// exceeds the budget (up to [`MAX_GRACE_DEPTH`]), otherwise read both
/// sides back and run the pool-parallel in-memory join.
#[allow(clippy::too_many_arguments)]
fn join_partition(
    af: &SpillFile,
    a_schema: &Schema,
    bf: &SpillFile,
    b_schema: &Schema,
    on: &[(&str, &str)],
    natural: bool,
    depth: u32,
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    let over_budget = current_guard().is_some_and(|g| !g.fits(bf.bytes()));
    if depth <= MAX_GRACE_DEPTH && over_budget && bf.rows() > 1 {
        let parts = fanout(bf.bytes());
        let left_keys: Vec<&str> = on.iter().map(|(l, _)| *l).collect();
        let right_keys: Vec<&str> = on.iter().map(|(_, r)| *r).collect();
        let a_sub = repartition(af, a_schema, &left_keys, parts, depth, pool)?;
        let b_sub = repartition(bf, b_schema, &right_keys, parts, depth, pool)?;
        let mut results = Vec::with_capacity(parts);
        for (asf, bsf) in a_sub.iter().zip(&b_sub) {
            results.push(join_partition(
                asf,
                a_schema,
                bsf,
                b_schema,
                on,
                natural,
                depth + 1,
                pool,
            )?);
        }
        return Relation::concat(&results);
    }
    let a_rel = af.read_all(a_schema)?;
    let b_rel = bf.read_all(b_schema)?;
    let span = trace::clock();
    let joined = if natural {
        super::parallel::natural_join_in_memory(&a_rel, &b_rel, pool)?
    } else {
        super::parallel::join_on_in_memory(&a_rel, &b_rel, on, pool)?
    };
    trace::record(
        "join.grace_part",
        "join",
        0,
        span,
        (a_rel.len() + b_rel.len()) as u64,
        joined.len() as u64,
        1,
    );
    Ok(joined)
}

/// External sort (spill path of [`super::order_by_parallel`]): the rows
/// are range-partitioned on the sort keys into spill files, each file is
/// read back and sorted in memory, and the partitions concatenate in key
/// order. Row order is identical to the serial [`super::order_by`] (and
/// therefore to [`super::order_by_parallel`]).
pub(super) fn order_by_external(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    if attrs.is_empty() || r.len() <= 1 {
        return super::setops::order_by(r, attrs, ascending);
    }
    let parts = fanout(rel_bytes_est(r));
    let span = trace::clock();
    let buckets = SortKeys::new(r, attrs, ascending)?.range_buckets(r.len(), parts, pool)?;
    let files = spill_buckets(r, &buckets, pool)?;
    drop(buckets); // not needed while the partitions are read back
    trace::record(
        "sort.partition",
        "sort",
        0,
        span,
        r.len() as u64,
        0,
        parts as u64,
    );
    let mut sorted = Vec::with_capacity(parts);
    for f in &files {
        let part = f.read_all(r.schema())?;
        sorted.push(sort_in_memory(&part, attrs, ascending, pool)?);
    }
    guard_checkpoint()?;
    // the serial sort preserves the input's name; match it so the external
    // path is a drop-in replacement
    let out = Relation::concat(&sorted)?;
    Ok(match r.name() {
        Some(n) => out.with_name(n),
        None => out,
    })
}

/// Partition-wise spilling aggregate (spill path of
/// [`super::parallel::aggregate_parallel`] for keyed aggregation): rows
/// are hash-partitioned on the group key — a group never spans partitions
/// — so each partition aggregates independently and the results
/// concatenate. Ungrouped aggregation never needs this (its state is one
/// accumulator row), so `group_by` must be non-empty.
pub(super) fn aggregate_external(
    r: &Relation,
    group_by: &[&str],
    aggs: &[super::AggSpec],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    debug_assert!(!group_by.is_empty(), "ungrouped aggregation never spills");
    let parts = fanout(super::parallel::AGG_BYTES_PER_ROW * r.len() as u64);
    let files = spill_buckets(r, &hash_buckets(r, group_by, parts, 0, false, pool)?, pool)?;
    let mut results = Vec::with_capacity(parts);
    for f in &files {
        let part = f.read_all(r.schema())?;
        results.push(super::parallel::aggregate_in_memory(
            &part, group_by, aggs, pool,
        )?);
    }
    guard_checkpoint()?;
    Relation::concat(&results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::sort::tests::{edge_inputs, rows_of};
    use crate::algebra::{aggregate, join_on, natural_join, order_by, AggFunc, AggSpec};
    use crate::relation::RelationBuilder;
    use crate::spill::{live_spill_files, test_lock};

    fn orders(n: usize) -> Relation {
        RelationBuilder::new()
            .name("orders")
            .column("cust", (0..n).map(|i| (i % 97) as i64).collect::<Vec<_>>())
            .column(
                "amount",
                (0..n).map(|i| (i % 13) as f64).collect::<Vec<_>>(),
            )
            .column("oid", (0..n as i64).collect::<Vec<_>>())
            .build()
            .unwrap()
    }

    fn customers() -> Relation {
        RelationBuilder::new()
            .name("customers")
            .column("cust", (0..97i64).collect::<Vec<_>>())
            .column(
                "tier",
                (0..97).map(|i| format!("t{}", i % 3)).collect::<Vec<_>>(),
            )
            .build()
            .unwrap()
    }

    /// Canonical row dump for order-insensitive comparison.
    fn sorted_rows(r: &Relation) -> Vec<String> {
        let mut rows: Vec<String> = r.rows().map(|row| format!("{row:?}")).collect();
        rows.sort();
        rows
    }

    #[test]
    fn grace_join_matches_in_memory() {
        let _spill = test_lock();
        let baseline = live_spill_files();
        let pool = WorkerPool::new(2);
        let o = orders(5000);
        let c = customers();
        let grace = grace_join_on(&o, &c, &[("cust", "cust")], &pool);
        // schema collision on `cust` fails identically on both paths
        assert!(grace.is_err() == join_on(&o, &c, &[("cust", "cust")]).is_err());
        let c2 = crate::algebra::rename(&c, &[("cust", "cust2")]).unwrap();
        let grace = grace_join_on(&o, &c2, &[("cust", "cust2")], &pool).unwrap();
        let mem = join_on(&o, &c2, &[("cust", "cust2")]).unwrap();
        assert_eq!(grace.len(), mem.len());
        assert_eq!(sorted_rows(&grace), sorted_rows(&mem));
        let nat_grace = grace_natural_join(&o, &c, &pool).unwrap();
        let nat_mem = natural_join(&o, &c).unwrap();
        assert_eq!(sorted_rows(&nat_grace), sorted_rows(&nat_mem));
        assert_eq!(live_spill_files(), baseline, "no orphan spill files");
    }

    #[test]
    fn external_sort_matches_serial_exactly() {
        let _spill = test_lock();
        let baseline = live_spill_files();
        let pool = WorkerPool::new(2);
        let r = orders(7000);
        let ext = order_by_external(&r, &["cust", "amount"], &[true, false], &pool).unwrap();
        let ser = order_by(&r, &["cust", "amount"], &[true, false]).unwrap();
        // identical row order, not just identical multiset
        assert_eq!(ext.materialize(), ser.materialize());
        // large enough that the 8 partitions of a budget-less spill run the
        // pooled in-memory sort at 4 threads
        for (r, attrs, dirs) in edge_inputs(12_000) {
            for threads in [1, 4] {
                let pool = WorkerPool::new(threads);
                let ext = order_by_external(&r, &attrs, &dirs, &pool).unwrap();
                let ser = order_by(&r, &attrs, &dirs).unwrap();
                assert_eq!(
                    rows_of(&ext),
                    rows_of(&ser),
                    "threads={threads} attrs={attrs:?}"
                );
            }
        }
        assert_eq!(live_spill_files(), baseline);
    }

    #[test]
    fn spilling_aggregate_matches_in_memory() {
        let _spill = test_lock();
        let baseline = live_spill_files();
        let pool = WorkerPool::new(2);
        let r = orders(6000);
        let aggs = [
            AggSpec::new(AggFunc::Sum, Some("amount"), "total"),
            AggSpec::new(AggFunc::CountStar, None, "n"),
        ];
        let ext = aggregate_external(&r, &["cust"], &aggs, &pool).unwrap();
        let mem = aggregate(&r, &["cust"], &aggs).unwrap();
        assert_eq!(sorted_rows(&ext), sorted_rows(&mem));
        assert_eq!(live_spill_files(), baseline);
    }
}
