//! Pool-parallel ordering: the range-partitioned sort and parallel top-k.
//!
//! `ORDER BY` is the one blocking operator every ordered query funnels
//! through, so it gets its own parallel strategy on the shared
//! [`WorkerPool`]:
//!
//! - **Parallel sort** ([`order_by_parallel`]): the visible rows are
//!   range-partitioned on the sort keys — splitters are picked from evenly
//!   spaced sample rows, and every row of bucket *b* sorts before every
//!   row of bucket *b+1* — through the shared partition step
//!   ([`super::partition`]). Each bucket's row indices are sorted as one
//!   pool item and the buckets concatenate into the permutation: no merge.
//!   The result is `r.take(&perm)` — an *index-SelVec view* over the
//!   shared base columns, so the sort itself copies nothing and the sink
//!   pays the usual single gather (late materialization's view/sink
//!   contract). The external sort writes the same buckets to spill files
//!   instead ([`super::external`]).
//! - **Parallel top-k** ([`top_k_parallel`]): each worker runs a bounded
//!   max-heap of the k best rows over its range; the per-worker candidate
//!   sets are merged at the barrier (at most `k·workers` rows) and cut to
//!   the global k.
//!
//! Both are *exactly* result-equivalent to their serial counterparts in
//! `setops` — including row order — because every comparison falls back to
//! the global row index on ties, which is precisely the serial stable-sort
//! order. With a single-worker pool or small inputs they delegate to the
//! serial operators.

use super::setops::{order_by, top_k};
use super::{place, Placement, WorkingSet};
use crate::error::RelationError;
use crate::par::{morsel_count, partition_ranges, WorkerPool, MIN_PARALLEL_ROWS};
use crate::relation::Relation;
use crate::trace;
use rma_storage::Column;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Mutex;

/// Sample rows per bucket when picking range splitters.
const SAMPLES_PER_BUCKET: usize = 64;

/// The sort-key columns and directions of one ORDER BY, with the
/// index-tie-break total order shared by the serial top-k, the parallel
/// sort, and the parallel top-k.
pub(super) struct SortKeys {
    cols: Vec<Column>,
    ascending: Vec<bool>,
}

impl SortKeys {
    /// Gather (via the compacting accessors — sorting is a key-column sink,
    /// same as the serial operator) and validate the key columns.
    pub(super) fn new(
        r: &Relation,
        attrs: &[&str],
        ascending: &[bool],
    ) -> Result<Self, RelationError> {
        if !ascending.is_empty() && ascending.len() != attrs.len() {
            return Err(RelationError::ArityMismatch {
                expected: attrs.len(),
                found: ascending.len(),
            });
        }
        let cols: Vec<Column> = r.columns_of(attrs)?.into_iter().cloned().collect();
        let ascending = (0..attrs.len())
            .map(|k| ascending.get(k).copied().unwrap_or(true))
            .collect();
        Ok(SortKeys { cols, ascending })
    }

    /// Strict total order over visible row indices: column comparison in
    /// key order, direction applied per key, ties broken by row index —
    /// i.e. exactly the serial stable sort's output order.
    #[inline]
    pub(super) fn cmp(&self, x: usize, y: usize) -> Ordering {
        for (c, &asc) in self.cols.iter().zip(&self.ascending) {
            let ord = c.cmp_rows(x, y);
            let ord = if asc { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        x.cmp(&y)
    }

    /// Range-partition the visible rows `0..len` into `parts` buckets:
    /// every row of bucket *b* precedes every row of bucket *b+1* under
    /// [`SortKeys::cmp`]. Splitters come from evenly spaced sample rows
    /// (no RNG); the order is total, so all-ties input still splits evenly.
    pub(super) fn range_buckets(
        &self,
        len: usize,
        parts: usize,
        pool: &WorkerPool,
    ) -> Result<Vec<Vec<usize>>, RelationError> {
        let n = (parts * SAMPLES_PER_BUCKET).min(len);
        let mut sample: Vec<usize> = (0..n).map(|i| i * len / n).collect();
        sample.sort_unstable_by(|&x, &y| self.cmp(x, y));
        let splitters: Vec<usize> = (1..parts)
            .filter_map(|b| sample.get(b * n / parts).copied())
            .collect();
        // a row's bucket is the number of splitters at or before it
        super::partition(len, parts, pool, |pos| {
            Some(splitters.partition_point(|&s| self.cmp(s, pos) != Ordering::Greater))
        })
    }
}

/// Parallel `ORDER BY`: range-partition the rows on the sort keys, sort
/// each bucket as one pool item, concatenate. The result is a view (index
/// selection vector over the shared base columns) in the same row order the
/// serial [`order_by`] produces. Delegates to the serial operator for
/// single-worker pools and small inputs. A permutation that does not fit
/// the memory budget takes the external sort instead.
pub fn order_by_parallel(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    // bucket lists + permutation: one 8-byte index per row
    match place(8 * r.len() as u64)? {
        Placement::Spill => super::external::order_by_external(r, attrs, ascending, pool),
        Placement::Memory(_working) => sort_in_memory(r, attrs, ascending, pool),
    }
}

/// The in-memory parallel sort (also the external sort's per-partition
/// kernel, which has already placed itself).
pub(super) fn sort_in_memory(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    if pool.threads() <= 1 || r.len() < MIN_PARALLEL_ROWS || attrs.is_empty() {
        return order_by(r, attrs, ascending);
    }
    let keys = SortKeys::new(r, attrs, ascending)?;
    let span = trace::clock();
    // a few buckets per worker, so uneven buckets rebalance across claims
    let parts = morsel_count(pool.threads(), r.len());
    let buckets = keys.range_buckets(r.len(), parts, pool)?;
    trace::record(
        "sort.partition",
        "sort",
        0,
        span,
        r.len() as u64,
        r.len() as u64,
        parts as u64,
    );
    // each bucket is one pool item, sorted in place
    let buckets: Vec<Mutex<Vec<usize>>> = buckets.into_iter().map(Mutex::new).collect();
    pool.for_each(&buckets, |lane, bucket| {
        let span = trace::clock();
        let mut idx = bucket.lock().expect("sort bucket poisoned");
        // unstable sort under a strict total order (index tie-break) equals
        // the serial stable sort's output
        idx.sort_unstable_by(|&x, &y| keys.cmp(x, y));
        let rows = idx.len() as u64;
        trace::record("sort.bucket", "sort", lane, span, rows, rows, 1);
    });
    // a tripped guard leaves buckets unsorted; surface it as a typed error
    crate::par::guard_checkpoint()?;
    let perm: Vec<usize> = buckets
        .into_iter()
        .flat_map(|b| b.into_inner().expect("sort bucket poisoned"))
        .collect();
    Ok(r.take(&perm))
}

/// Parallel top-k (the Limit-into-Sort rewrite's execution): per-worker
/// bounded heaps over contiguous ranges, candidate sets merged at the
/// barrier and cut to `n`. Result-identical to the serial [`top_k`]
/// (which is itself identical to `limit(order_by(..), n, 0)`).
pub fn top_k_parallel(
    r: &Relation,
    attrs: &[&str],
    ascending: &[bool],
    n: usize,
    pool: &WorkerPool,
) -> Result<Relation, RelationError> {
    // bounded heaps: n candidates per worker, 8-byte indices — already
    // sublinear in the input, so top-k never spills
    let _working = WorkingSet::charge(8 * (n as u64) * pool.threads() as u64)?;
    // With k within a factor of the input size the bounded heaps approach a
    // full sort per worker while still paying the merge — serial wins.
    if pool.threads() <= 1 || r.len() < MIN_PARALLEL_ROWS || n == 0 || n * 4 >= r.len() {
        return top_k(r, attrs, ascending, n);
    }
    let keys = SortKeys::new(r, attrs, ascending)?;
    let ranges = partition_ranges(r.len(), pool.threads());
    if ranges.len() <= 1 {
        return top_k(r, attrs, ascending, n);
    }
    let locals: Vec<Vec<usize>> = pool.for_each(&ranges, |lane, range| {
        let span = trace::clock();
        let heap = bounded_top_k(range.clone(), n, &keys);
        trace::record(
            "topk.heap",
            "sort",
            lane,
            span,
            (range.end - range.start) as u64,
            heap.len() as u64,
            1,
        );
        heap
    });
    crate::par::guard_checkpoint()?;
    let span = trace::clock();
    let mut cand: Vec<usize> = locals.concat();
    let merged_in = cand.len() as u64;
    cand.sort_unstable_by(|&x, &y| keys.cmp(x, y));
    cand.truncate(n);
    trace::record(
        "topk.merge",
        "sort",
        0,
        span,
        merged_in,
        cand.len() as u64,
        locals.len() as u64,
    );
    Ok(r.take(&cand))
}

/// Bounded max-heap of the k best rows in `range`: `heap[0]` is the worst
/// of the current k best; every other row either displaces it or is
/// dropped. O(range · log k). The returned candidates are unsorted —
/// callers sort (serial top-k) or merge-then-sort (parallel barrier) once.
/// Shared by the serial [`top_k`] and each parallel worker, so the two
/// paths cannot drift apart.
pub(super) fn bounded_top_k(range: Range<usize>, k: usize, keys: &SortKeys) -> Vec<usize> {
    let mut heap: Vec<usize> = Vec::with_capacity(k.min(range.len()));
    for i in range {
        if heap.len() < k {
            heap.push(i);
            let mut j = heap.len() - 1;
            while j > 0 {
                let parent = (j - 1) / 2;
                if keys.cmp(heap[j], heap[parent]) == Ordering::Greater {
                    heap.swap(j, parent);
                    j = parent;
                } else {
                    break;
                }
            }
        } else if keys.cmp(i, heap[0]) == Ordering::Less {
            heap[0] = i;
            let len = heap.len();
            let mut j = 0;
            loop {
                let (l, r) = (2 * j + 1, 2 * j + 2);
                let mut largest = j;
                if l < len && keys.cmp(heap[l], heap[largest]) == Ordering::Greater {
                    largest = l;
                }
                if r < len && keys.cmp(heap[r], heap[largest]) == Ordering::Greater {
                    largest = r;
                }
                if largest == j {
                    break;
                }
                heap.swap(j, largest);
                j = largest;
            }
        }
    }
    heap
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::algebra::limit;
    use crate::expr::Expr;
    use crate::relation::RelationBuilder;
    use rma_storage::{Bitmap, ColumnData, DataType, Encoding};

    /// Key shapes the range splitters must handle, each with its ORDER BY
    /// keys and directions: all-equal keys, a DESC float key holding
    /// nulls, NaN and ±0.0, a dictionary-encoded string key, and an RLE
    /// key. Every relation carries a unique `id`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn edge_inputs(n: usize) -> Vec<(Relation, Vec<&'static str>, Vec<bool>)> {
        let id: Vec<i64> = (0..n as i64).collect();
        let with = |name: &str, col: Column| {
            let base = RelationBuilder::new()
                .name("edges")
                .column("id", id.clone())
                .build()
                .unwrap();
            let mut attrs = base.schema().attributes().to_vec();
            attrs.push(crate::schema::Attribute::new(name, col.data_type()));
            let mut cols = base.columns().to_vec();
            cols.push(col);
            Relation::new(crate::schema::Schema::new(attrs).unwrap(), cols)
                .unwrap()
                .with_name("edges")
        };
        let floats = [
            f64::NAN,
            -0.0,
            0.0,
            1.5,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -2.5,
        ];
        let f: Vec<f64> = (0..n).map(|i| floats[(i * 5) % floats.len()]).collect();
        let f_valid: Vec<bool> = (0..n).map(|i| i % 9 != 4).collect();
        let strs: Vec<String> = (0..n).map(|i| format!("k{}", (i * 13) % 37)).collect();
        let runs: Vec<i64> = (0..n).map(|i| ((i / 100) % 7) as i64).collect();
        let encode = |c: Column, enc: Encoding| c.encode_as(enc).expect("encodable key");
        vec![
            (
                with("c", Column::new(ColumnData::Int(vec![5; n]))),
                vec!["c"],
                vec![true],
            ),
            (
                with(
                    "f",
                    Column::with_nulls(ColumnData::Float(f), Bitmap::from_bools(&f_valid)).unwrap(),
                ),
                vec!["f"],
                vec![false],
            ),
            (
                with(
                    "s",
                    encode(Column::new(ColumnData::Str(strs)), Encoding::Dict),
                ),
                vec!["s"],
                vec![true],
            ),
            (
                with(
                    "r",
                    encode(Column::new(ColumnData::Int(runs)), Encoding::Rle),
                ),
                vec!["r", "id"],
                vec![false, true],
            ),
        ]
    }

    /// Row-for-row dump (`Debug` keeps NaN and -0.0 distinguishable, which
    /// relation equality over float vectors cannot).
    pub(crate) fn rows_of(r: &Relation) -> Vec<String> {
        r.rows().map(|row| format!("{row:?}")).collect()
    }

    /// Rows large enough to clear `MIN_PARALLEL_ROWS`, with heavy key
    /// duplication (tie-break coverage), a float secondary key, and a
    /// nullable column.
    fn sample(n: usize) -> Relation {
        let s: Vec<i64> = (0..n).map(|i| ((i * 7919) % 97) as i64).collect();
        let m: Vec<f64> = (0..n).map(|i| ((i * 31) % 13) as f64 - 6.0).collect();
        let id: Vec<i64> = (0..n as i64).collect();
        let nullable: Vec<i64> = (0..n).map(|i| (i % 11) as i64).collect();
        let mask: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let nullable = Column::with_nulls(ColumnData::Int(nullable), Bitmap::from_bools(&mask))
            .expect("bitmap length matches");
        let base = RelationBuilder::new()
            .name("sortable")
            .column("s", s)
            .column("m", m)
            .column("id", id)
            .build()
            .unwrap();
        // append the prebuilt nullable column
        let mut schema: Vec<crate::schema::Attribute> = base.schema().attributes().to_vec();
        schema.push(crate::schema::Attribute::new("v", DataType::Int));
        let mut cols = base.columns().to_vec();
        cols.push(nullable);
        Relation::new(crate::schema::Schema::new(schema).unwrap(), cols)
            .unwrap()
            .with_name("sortable")
    }

    #[test]
    fn parallel_sort_matches_serial() {
        let r = sample(3001);
        for threads in [2, 4, 8] {
            let pool = WorkerPool::new(threads);
            for (attrs, dirs) in [
                (vec!["s"], vec![true]),
                (vec!["s"], vec![false]),
                (vec!["s", "m"], vec![true, false]),
                (vec!["v", "s"], vec![true, true]), // null-heavy leading key
                (vec!["m", "s", "id"], vec![false, true, false]),
            ] {
                let par = order_by_parallel(&r, &attrs, &dirs, &pool).unwrap();
                let ser = order_by(&r, &attrs, &dirs).unwrap();
                assert_eq!(par, ser, "threads={threads} attrs={attrs:?}");
                assert!(par.is_view(), "parallel sort must produce a view");
            }
        }
        for (r, attrs, dirs) in edge_inputs(3001) {
            for threads in [1, 4] {
                let pool = WorkerPool::new(threads);
                let par = order_by_parallel(&r, &attrs, &dirs, &pool).unwrap();
                let ser = order_by(&r, &attrs, &dirs).unwrap();
                assert_eq!(
                    rows_of(&par),
                    rows_of(&ser),
                    "threads={threads} attrs={attrs:?}"
                );
            }
        }
    }

    #[test]
    fn range_buckets_split_all_ties_evenly() {
        let n = 5000usize;
        let r = RelationBuilder::new()
            .column("c", vec![5i64; n])
            .build()
            .unwrap();
        let keys = SortKeys::new(&r, &["c"], &[true]).unwrap();
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            for parts in [2, 3, 8, 32] {
                let buckets = keys.range_buckets(n, parts, &pool).unwrap();
                assert_eq!(buckets.len(), parts);
                assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), n);
                let cap = 2 * n.div_ceil(parts);
                assert!(
                    buckets.iter().all(|b| b.len() <= cap),
                    "parts={parts}: bucket sizes {:?} exceed {cap}",
                    buckets.iter().map(Vec::len).collect::<Vec<_>>()
                );
                // every row of bucket b precedes every row of bucket b+1
                let flat: Vec<usize> = buckets.concat();
                assert!(flat
                    .windows(2)
                    .all(|w| keys.cmp(w[0], w[1]) == Ordering::Less));
            }
        }
    }

    #[test]
    fn parallel_sort_of_presorted_input() {
        let n = 2048usize;
        let sorted: Vec<i64> = (0..n as i64).collect();
        let reversed: Vec<i64> = (0..n as i64).rev().collect();
        let r = RelationBuilder::new()
            .column("a", sorted)
            .column("b", reversed)
            .build()
            .unwrap();
        let pool = WorkerPool::new(4);
        for attrs in [["a"], ["b"]] {
            let par = order_by_parallel(&r, &attrs, &[true], &pool).unwrap();
            let ser = order_by(&r, &attrs, &[true]).unwrap();
            assert_eq!(par, ser, "presorted by {attrs:?}");
        }
    }

    #[test]
    fn parallel_sort_all_ties_is_stable_order() {
        let n = 2000usize;
        let r = RelationBuilder::new()
            .column("c", vec![5i64; n])
            .column("id", (0..n as i64).collect::<Vec<_>>())
            .build()
            .unwrap();
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let par = order_by_parallel(&r, &["c"], &[true], &pool).unwrap();
            // all-equal keys: output must be the original row order
            let ids = match par.column("id").unwrap().data() {
                ColumnData::Int(v) => v.clone(),
                _ => unreachable!(),
            };
            assert_eq!(ids, (0..n as i64).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_sort_small_input_and_bad_args_delegate() {
        let r = sample(64); // below MIN_PARALLEL_ROWS
        let pool = WorkerPool::new(4);
        assert_eq!(
            order_by_parallel(&r, &["s"], &[true], &pool).unwrap(),
            order_by(&r, &["s"], &[true]).unwrap()
        );
        assert!(order_by_parallel(&r, &["s"], &[true, false], &pool).is_err());
        assert!(top_k_parallel(&r, &["s"], &[true, false], 3, &pool).is_err());
    }

    #[test]
    fn parallel_sort_over_a_view() {
        let r = sample(4000);
        let filtered = crate::algebra::select(&r, &Expr::col("s").lt(Expr::lit(50i64))).unwrap();
        assert!(filtered.is_view());
        let pool = WorkerPool::new(4);
        let par = order_by_parallel(&filtered, &["m", "s"], &[true, true], &pool).unwrap();
        let ser = order_by(&filtered, &["m", "s"], &[true, true]).unwrap();
        assert_eq!(par, ser);
    }

    #[test]
    fn parallel_top_k_matches_serial() {
        let r = sample(2777);
        for threads in [2, 4] {
            let pool = WorkerPool::new(threads);
            for n in [1usize, 7, 100, 650] {
                for dirs in [vec![true, false], vec![false, true]] {
                    let par = top_k_parallel(&r, &["s", "m"], &dirs, n, &pool).unwrap();
                    let ser = top_k(&r, &["s", "m"], &dirs, n).unwrap();
                    assert_eq!(par, ser, "threads={threads} n={n} dirs={dirs:?}");
                    // and both equal the full-sort definition
                    let full = limit(&order_by(&r, &["s", "m"], &dirs).unwrap(), n, 0);
                    assert_eq!(par, full, "n={n}");
                }
            }
        }
    }

    #[test]
    fn parallel_top_k_edge_sizes() {
        let r = sample(1500);
        let pool = WorkerPool::new(4);
        // n = 0, n >= len, and n just under the serial-delegation cutoff
        for n in [0usize, 1500, 2000, 370] {
            assert_eq!(
                top_k_parallel(&r, &["s"], &[true], n, &pool).unwrap(),
                top_k(&r, &["s"], &[true], n).unwrap(),
                "n={n}"
            );
        }
    }

    #[test]
    fn parallel_top_k_null_keys() {
        let r = sample(2048);
        let pool = WorkerPool::new(4);
        let par = top_k_parallel(&r, &["v"], &[true], 50, &pool).unwrap();
        let ser = top_k(&r, &["v"], &[true], 50).unwrap();
        assert_eq!(par, ser);
    }
}
