//! Order keys: the sort permutation and the key verdict of a column list,
//! from one read of its columns.
//!
//! Every relational matrix operation first orders its argument by the
//! order schema `U` and checks that `U` is a key (§4.1). Both answers come
//! out of one pass here. Int (plain, RLE, bit-packed), Float, Date, Bool
//! and dictionary-coded string columns are read once through the
//! accessors and *normalized*: each row becomes an unsigned integer whose
//! order is the column's null-first order (floats in `total_cmp` order,
//! dictionary codes in value order), rebased to the column's minimum so
//! it takes as few bits as the value range needs. Up to 128 bits of such
//! columns are packed into one fixed-width key per row. The keys are then
//! ordered
//!
//! - not at all when they are already ascending (one O(n) check),
//! - by a counting scatter when their range is at most `2·n`,
//! - by `sort_unstable` on (key, row) pairs otherwise.
//!
//! Every path breaks ties by row index, so the permutation equals the
//! stable comparator sort exactly. Two equal adjacent keys in sorted order
//! mean "not a key"; [`is_key`] answers that alone — with a bitmap scatter
//! and no sort when the range is small. Plain strings and composites wider
//! than 128 bits fall back to the stable comparator sort over
//! [`Column::cmp_rows`].

use crate::access::{ColumnAccessor, FloatsRef, IntsRef, StrsRef};
use crate::bat::cmp_rows;
use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::encoding::{Rle, RleValue, Seg};
use std::cmp::Ordering;

/// The row order of a column list under ascending lexicographic order.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyOrder {
    /// The stable sort permutation (`perm[k]` is the row at sorted
    /// position `k`); `None` when the rows are already in order.
    pub perm: Option<Vec<usize>>,
    /// Do the columns form a key (no two rows equal on all of them)?
    pub is_key: bool,
}

/// Sort permutation and key verdict of `columns` in one pass (see the
/// module docs for how each key shape is ordered).
pub fn key_order(columns: &[&Column]) -> KeyOrder {
    match normalize(columns) {
        Some(Keys::Narrow(keys, max)) if dense(max, keys.len()) => order_scatter(keys, max),
        Some(Keys::Narrow(keys, _)) => order_pairs(keys),
        Some(Keys::Wide(keys)) => order_pairs(keys),
        None => order_by_comparator(columns),
    }
}

/// The stable sort permutation of rows ordered lexicographically by the
/// given columns (the paper's ascending order on the order schema `U`):
/// `perm[k]` is the OID of the `k`-th row in sorted order, so applying
/// `take(&perm)` to every BAT of the relation yields the sorted relation.
/// Already-sorted data returns the identity without sorting (MonetDB
/// tracks a sortedness property on BATs for the same reason).
pub fn sort_permutation(columns: &[&Column]) -> Vec<usize> {
    let n = columns.first().map_or(0, |c| c.len());
    key_order(columns).perm.unwrap_or_else(|| (0..n).collect())
}

/// Do the columns form a key (no duplicate row in the projection)? Keys
/// with a normalized range of at most `2·n` are checked by one bitmap
/// scatter; others by the ordering pass of [`key_order`].
pub fn is_key(columns: &[&Column]) -> bool {
    match normalize(columns) {
        Some(Keys::Narrow(keys, max)) if dense(max, keys.len()) => {
            let mut seen = Bitmap::new(max as usize + 1);
            keys.iter().all(|&k| {
                let dup = seen.get(k as usize);
                seen.set(k as usize);
                !dup
            })
        }
        Some(Keys::Narrow(keys, _)) => order_pairs(keys).is_key,
        Some(Keys::Wide(keys)) => order_pairs(keys).is_key,
        None => order_by_comparator(columns).is_key,
    }
}

/// Are two column lists equal row by row under the key order — every row
/// compares `Equal` position by position (nulls at the same rows, floats
/// bit for bit), so both sort identically? Shared storage answers in
/// O(1); otherwise one O(n) compare that stops at the first difference.
pub fn same_keys(a: &[&Column], b: &[&Column]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_column(x, y))
}

fn same_column(x: &Column, y: &Column) -> bool {
    if x.len() != y.len() || x.nulls() != y.nulls() {
        return false;
    }
    if x.shares_data_with(y) {
        return true;
    }
    let rows = |eq: &dyn Fn(usize) -> bool| (0..x.len()).all(|i| x.is_null(i) || eq(i));
    match (x.accessor(), y.accessor()) {
        (ColumnAccessor::Int(p), ColumnAccessor::Int(q)) => match (p.as_slice(), q.as_slice()) {
            (Some(p), Some(q)) if !x.has_nulls() => p == q,
            _ => rows(&|i| p.get(i) == q.get(i)),
        },
        (ColumnAccessor::Float(p), ColumnAccessor::Float(q)) => {
            rows(&|i| p.get(i).to_bits() == q.get(i).to_bits())
        }
        (ColumnAccessor::Str(p), ColumnAccessor::Str(q)) => match (p.dict(), q.dict()) {
            (Some(d), Some(e)) if d.shares_table(e) => rows(&|i| d.code(i) == e.code(i)),
            _ => rows(&|i| p.get(i) == q.get(i)),
        },
        (ColumnAccessor::Bool(p), ColumnAccessor::Bool(q)) => rows(&|i| p[i] == q[i]),
        (ColumnAccessor::Date(p), ColumnAccessor::Date(q)) => rows(&|i| p[i] == q[i]),
        _ => false,
    }
}

/// Normalized keys of a column list: one fixed-width integer per row.
enum Keys {
    /// Keys of at most 64 bits, with their maximum.
    Narrow(Vec<u64>, u64),
    /// Keys of 65 to 128 bits.
    Wide(Vec<u128>),
}

/// Is a key range `0..=max` small enough (at most `2·n` slots) for a
/// counting scatter?
fn dense(max: u64, n: usize) -> bool {
    (max as u128) < 2 * n as u128
}

/// Bits needed for values `0..=max`.
fn width(max: u64) -> u32 {
    u64::BITS - max.leading_zeros()
}

/// Normalize and pack `columns` into one key per row, or `None` when a
/// column is a plain string or the composite needs more than 128 bits.
fn normalize(columns: &[&Column]) -> Option<Keys> {
    let mut cols = Vec::with_capacity(columns.len());
    let mut bits = 0;
    for c in columns {
        let (vals, max) = normalize_column(c)?;
        bits += width(max);
        if bits > u128::BITS {
            return None;
        }
        cols.push((vals, max));
    }
    let n = columns.first().map_or(0, |c| c.len());
    if cols.len() == 1 {
        let (vals, max) = cols.pop().expect("one column");
        return Some(Keys::Narrow(vals, max));
    }
    if bits <= u64::BITS {
        let mut keys = vec![0u64; n];
        for (vals, max) in &cols {
            let w = width(*max);
            for (k, &v) in keys.iter_mut().zip(vals) {
                *k = k.checked_shl(w).unwrap_or(0) | v;
            }
        }
        let max = keys.iter().copied().max().unwrap_or(0);
        return Some(Keys::Narrow(keys, max));
    }
    let mut keys = vec![0u128; n];
    for (vals, max) in &cols {
        let w = width(*max);
        for (k, &v) in keys.iter_mut().zip(vals) {
            *k = (*k << w) | v as u128;
        }
    }
    Some(Keys::Wide(keys))
}

/// Flip the sign bit: an order-preserving map from `i64` onto `u64`.
#[inline]
fn ord_i64(x: i64) -> u64 {
    x as u64 ^ (1 << 63)
}

/// An order-preserving map from `f64` under `total_cmp` onto `u64`.
#[inline]
fn ord_f64(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    }
}

/// Map every row of an RLE column, one call per run.
fn rle_map<T: RleValue>(r: &Rle<T>, f: impl Fn(T) -> u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(r.len());
    for s in r.segs() {
        match s {
            Seg::Run { value, len } => out.extend(std::iter::repeat_n(f(*value), *len)),
            Seg::Dense(v) => out.extend(v.iter().map(|&x| f(x))),
        }
    }
    out
}

/// One column's rows as order-preserving integers rebased to `0..=max`
/// (a null row is 0 and values start at 1 when the column has nulls), or
/// `None` for plain strings. Reads through the accessors: never decodes.
fn normalize_column(c: &Column) -> Option<(Vec<u64>, u64)> {
    let mut vals: Vec<u64> = match c.accessor() {
        ColumnAccessor::Int(IntsRef::Slice(v)) => v.iter().map(|&x| ord_i64(x)).collect(),
        ColumnAccessor::Int(IntsRef::Rle(r)) => rle_map(r, ord_i64),
        ColumnAccessor::Int(IntsRef::Packed(p)) => {
            (0..p.len()).map(|i| ord_i64(p.get(i))).collect()
        }
        ColumnAccessor::Float(FloatsRef::Slice(v)) => v.iter().map(|&x| ord_f64(x)).collect(),
        ColumnAccessor::Float(FloatsRef::Rle(r)) => rle_map(r, ord_f64),
        // the dictionary is sorted, so code order is value order
        ColumnAccessor::Str(StrsRef::Dict(d)) => d.codes().iter().map(|&x| x as u64).collect(),
        ColumnAccessor::Str(StrsRef::Slice(_)) => return None,
        ColumnAccessor::Bool(v) => v.iter().map(|&x| x as u64).collect(),
        ColumnAccessor::Date(v) => v.iter().map(|&x| ord_i64(x as i64)).collect(),
    };
    let Some(nulls) = c.nulls() else {
        let lo = vals.iter().copied().min().unwrap_or(0);
        let hi = vals.iter().copied().max().unwrap_or(0);
        vals.iter_mut().for_each(|v| *v -= lo);
        return Some((vals, hi - lo));
    };
    let valid = || (0..vals.len()).filter(|&i| !nulls.get(i)).map(|i| vals[i]);
    let (Some(lo), Some(hi)) = (valid().min(), valid().max()) else {
        vals.fill(0); // every row is null
        return Some((vals, 0));
    };
    let max = (hi - lo).checked_add(1)?;
    for (i, v) in vals.iter_mut().enumerate() {
        *v = if nulls.get(i) { 0 } else { *v - lo + 1 };
    }
    Some((vals, max))
}

/// The order of rows that are already ascending (`cmp(i)` compares rows
/// `i - 1` and `i`): no permutation, and a key unless two neighbours tie.
/// `None` when some row is out of order.
fn presorted(n: usize, cmp: impl Fn(usize) -> Ordering) -> Option<KeyOrder> {
    let mut is_key = true;
    for i in 1..n {
        match cmp(i) {
            Ordering::Greater => return None,
            Ordering::Equal => is_key = false,
            Ordering::Less => {}
        }
    }
    Some(KeyOrder { perm: None, is_key })
}

/// Order keys of a small range (`dense`) by a counting scatter: bucket
/// starts by prefix sum, rows placed in row order so ties stay stable.
fn order_scatter(keys: Vec<u64>, max: u64) -> KeyOrder {
    if let Some(o) = presorted(keys.len(), |i| keys[i - 1].cmp(&keys[i])) {
        return o;
    }
    let mut starts = vec![0usize; max as usize + 2];
    for &k in &keys {
        starts[k as usize + 1] += 1;
    }
    let is_key = starts.iter().all(|&c| c <= 1);
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    let mut perm = vec![0usize; keys.len()];
    for (row, &k) in keys.iter().enumerate() {
        let slot = &mut starts[k as usize];
        perm[*slot] = row;
        *slot += 1;
    }
    KeyOrder {
        perm: Some(perm),
        is_key,
    }
}

/// Order keys by `sort_unstable` on (key, row) pairs — the pairs are
/// unique, so the result equals a stable sort on the key alone.
fn order_pairs<K: Ord + Copy>(keys: Vec<K>) -> KeyOrder {
    if let Some(o) = presorted(keys.len(), |i| keys[i - 1].cmp(&keys[i])) {
        return o;
    }
    let mut pairs: Vec<(K, usize)> = keys.into_iter().zip(0..).collect();
    pairs.sort_unstable();
    let is_key = pairs.windows(2).all(|w| w[0].0 != w[1].0);
    KeyOrder {
        perm: Some(pairs.into_iter().map(|(_, row)| row).collect()),
        is_key,
    }
}

/// The fallback for keys that do not normalize: a stable sort whose
/// comparator reads every column through [`Column::cmp_rows`].
fn order_by_comparator(columns: &[&Column]) -> KeyOrder {
    let n = columns.first().map_or(0, |c| c.len());
    if let Some(o) = presorted(n, |i| cmp_rows(columns, i - 1, i)) {
        return o;
    }
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by(|&a, &b| cmp_rows(columns, a, b));
    let is_key = perm
        .windows(2)
        .all(|w| cmp_rows(columns, w[0], w[1]) != Ordering::Equal);
    KeyOrder {
        perm: Some(perm),
        is_key,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;
    use crate::value::Value;

    #[test]
    fn normalized_orders_match_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(ord_f64(a).cmp(&ord_f64(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
        for (a, b) in [(i64::MIN, -1), (-1, 0), (0, i64::MAX)] {
            assert!(ord_i64(a) < ord_i64(b));
        }
    }

    #[test]
    fn dense_keys_scatter_and_spread_keys_sort() {
        // 0..n shuffled: range n ≤ 2n → counting scatter
        let n = 5000i64;
        let shuffled: Vec<i64> = (0..n).map(|i| (i * 7919) % n).collect();
        let c = Column::from(shuffled.clone());
        let o = key_order(&[&c]);
        assert!(o.is_key);
        let perm = o.perm.unwrap();
        assert!(perm.windows(2).all(|w| shuffled[w[0]] < shuffled[w[1]]));
        // spread-out keys: range ≫ 2n → pair sort, duplicates detected
        let spread: Vec<i64> = shuffled.iter().map(|&x| (x % 4000) * 1_000_003).collect();
        let c = Column::from(spread.clone());
        let o = key_order(&[&c]);
        assert!(!o.is_key);
        assert!(!is_key(&[&c]));
        let perm = o.perm.unwrap();
        for w in perm.windows(2) {
            let (a, b) = (spread[w[0]], spread[w[1]]);
            assert!(a < b || (a == b && w[0] < w[1]), "stable ties");
        }
    }

    #[test]
    fn sorted_input_needs_no_permutation() {
        let c = Column::from(vec![1i64, 2, 2, 5]);
        assert_eq!(
            key_order(&[&c]),
            KeyOrder {
                perm: None,
                is_key: false
            }
        );
        assert_eq!(sort_permutation(&[&c]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn nulls_sort_first_and_are_equal() {
        let c = Column::from_values(&[Value::Int(3), Value::Null, Value::Int(-9), Value::Null])
            .unwrap();
        assert_eq!(sort_permutation(&[&c]), vec![1, 3, 2, 0]);
        assert!(!is_key(&[&c]));
    }

    #[test]
    fn packed_and_rle_keys_read_without_decoding() {
        let before = crate::encoding::decode_sink_events();
        let vals: Vec<i64> = (0..200).map(|i| (i * 37) % 200).collect();
        let packed = Column::from(vals.clone())
            .encode_as(Encoding::Packed)
            .unwrap();
        let rle = Column::from((0..200).map(|i| i / 20).collect::<Vec<i64>>())
            .encode_as(Encoding::Rle)
            .unwrap();
        assert!(is_key(&[&packed]));
        assert!(!is_key(&[&rle]));
        assert!(is_key(&[&rle, &packed]));
        assert_eq!(
            sort_permutation(&[&packed]),
            sort_permutation(&[&Column::from(vals)])
        );
        assert_eq!(crate::encoding::decode_sink_events(), before);
    }

    #[test]
    fn plain_strings_and_wide_composites_fall_back() {
        let s = Column::from(vec!["b", "a", "b"]);
        assert!(normalize(&[&s]).is_none());
        assert_eq!(sort_permutation(&[&s]), vec![1, 0, 2]);
        assert!(!is_key(&[&s]));
        // three full-range int columns need 192 bits
        let full = Column::from(vec![i64::MIN, i64::MAX]);
        assert!(normalize(&[&full, &full, &full]).is_none());
        assert!(matches!(normalize(&[&full, &full]), Some(Keys::Wide(_))));
        assert!(is_key(&[&full, &full, &full]));
    }
}
