//! Splitting, sorting, and the matrix/relation constructors (§4.1, §7.2).
//!
//! A relational matrix operation splits its argument into order part and
//! application part (the paper's Algorithm 1 lines 2–4): the order schema
//! `U` is validated as a key, the tuples are ordered by `U`, the order
//! columns are gathered in that order, and the application columns are
//! gathered into `f64` vectors — the matrix constructor `µ`. The relation
//! constructor `γ` reassembles row-context columns and base-result columns
//! into the result relation.
//!
//! Ordering and key validation are one pass over the order columns
//! ([`rma_storage::key_order`]): a split that sorts takes its key verdict
//! from the sorted keys, and one that keeps physical order gets it from a
//! scatter over the normalized keys ([`rma_storage::is_key`]).

use crate::context::{RmaContext, SortPolicy};
use crate::error::RmaError;
use rma_relation::{Attribute, Relation, Schema};
use rma_storage::{
    invert_permutation, is_identity_permutation, is_key, key_order, same_keys, Column, ColumnData,
    StorageError,
};

/// The split of one argument relation: contextual information plus the
/// application part as `f64` columns, both in operation order.
#[derive(Debug)]
pub struct Split {
    /// Order-schema attribute metadata, in the order given by the caller.
    pub order_attrs: Vec<Attribute>,
    /// Application-schema attribute names, in schema order.
    pub app_names: Vec<String>,
    /// Order part `r.U`, gathered in operation order.
    pub order_cols: Vec<Column>,
    /// Application part `µ_{U̅}(r)`: one `f64` vector per application
    /// attribute, rows in operation order.
    pub app: Vec<Vec<f64>>,
    /// Number of tuples.
    pub rows: usize,
    /// The sort permutation actually applied (`None` = physical order kept).
    pub perm: Option<Vec<usize>>,
}

/// How the split orders tuples.
#[derive(Debug, Clone)]
pub enum SortMode {
    /// Materialise the sort by the order schema.
    Full,
    /// Keep physical order (valid when the operation's result does not
    /// depend on row order).
    Skip,
    /// Keep physical order without checking the order schema again: the
    /// caller already has its key verdict, from the [`alignment_ranks`]
    /// pass over this relation or from an operand with identical order
    /// keys.
    SkipValidated,
    /// Align to another relation's row order: row `i` of this split matches
    /// row `i` of the relation that produced `ranks` (the paper's
    /// "relative sorting" for element-wise operations).
    AlignTo {
        /// `ranks[i]` = sorted position of the *other* relation's physical
        /// row `i` under its own order schema; `None` when that relation
        /// is already in order.
        ranks: Option<Vec<usize>>,
    },
}

/// Resolve and check the order and application schemas of `r`.
fn schemas(r: &Relation, order: &[&str]) -> Result<(Schema, Schema), RmaError> {
    let order_schema = r.schema().subset(order)?;
    let app_schema = r.schema().complement(order);
    if app_schema.is_empty() {
        return Err(RmaError::EmptyApplication);
    }
    for a in app_schema.attributes() {
        if !a.dtype().is_numeric() {
            return Err(RmaError::NonNumericApplication {
                attribute: a.name().to_string(),
            });
        }
    }
    Ok((order_schema, app_schema))
}

/// Fail with `OrderSchemaNotKey` unless the verdict holds: the paper
/// requires every order schema to be a key.
fn require_key(order: &[&str], is_key: bool) -> Result<(), RmaError> {
    if is_key {
        return Ok(());
    }
    Err(RmaError::OrderSchemaNotKey(
        order.iter().map(|s| s.to_string()).collect(),
    ))
}

/// The sort permutation of `r` by `order` (`None` = already in order),
/// validating the order schema from the same pass. An empty order schema
/// keeps physical order and is a key of at most one tuple.
fn sort_validated(r: &Relation, order: &[&str]) -> Result<Option<Vec<usize>>, RmaError> {
    if order.is_empty() {
        require_key(order, r.len() <= 1)?;
        return Ok(None);
    }
    let o = key_order(&r.columns_of(order)?);
    require_key(order, o.is_key)?;
    Ok(o.perm)
}

/// Validate the order schema and split the relation (Algorithm 1 lines 1–7).
pub fn split(r: &Relation, order: &[&str], mode: SortMode) -> Result<Split, RmaError> {
    let (order_schema, app_schema) = schemas(r, order)?;
    // establish operation order; identity permutations (already-sorted
    // data) skip the gather entirely, like MonetDB's sortedness property
    let perm: Option<Vec<usize>> = match mode {
        SortMode::Full => sort_validated(r, order)?,
        SortMode::Skip => {
            let key = if order.is_empty() {
                r.len() <= 1
            } else {
                is_key(&r.columns_of(order)?)
            };
            require_key(order, key)?;
            None
        }
        SortMode::SkipValidated => None,
        SortMode::AlignTo { ranks } => {
            // this relation sorted by its own keys, then re-ordered so that
            // row i matches the other relation's physical row i
            match (sort_validated(r, order)?, ranks) {
                (own, None) => own,
                (None, ranks) => ranks,
                (Some(own), Some(ranks)) => Some(ranks.iter().map(|&k| own[k]).collect()),
            }
        }
    };
    let perm = perm.filter(|p| !is_identity_permutation(p));
    // gather order part
    let order_cols: Vec<Column> = match &perm {
        Some(p) => order
            .iter()
            .map(|n| Ok(r.column(n)?.take(p)))
            .collect::<Result<_, RmaError>>()?,
        None => order
            .iter()
            .map(|n| Ok(r.column(n)?.clone()))
            .collect::<Result<_, RmaError>>()?,
    };
    // gather application part as f64 columns (matrix constructor µ)
    let app: Vec<Vec<f64>> = app_schema
        .names()
        .map(|n| gather_f64(r.column(n)?, perm.as_deref(), n))
        .collect::<Result<_, _>>()?;
    Ok(Split {
        order_attrs: order_schema.attributes().to_vec(),
        app_names: app_schema.names().map(str::to_string).collect(),
        order_cols,
        app,
        rows: r.len(),
        perm,
    })
}

/// Decide the sort mode for a unary operation under the context's policy.
pub fn unary_sort_mode(ctx: &RmaContext, op: crate::shape::RmaOp) -> SortMode {
    match ctx.options.sort_policy {
        SortPolicy::Always => SortMode::Full,
        SortPolicy::Optimized => {
            if op.result_depends_on_row_order() {
                SortMode::Full
            } else {
                SortMode::Skip
            }
        }
    }
}

/// For aligned binary operations: ranks of the first relation's physical
/// rows under its order schema (`ranks[i]` = sorted position of row `i`;
/// `None` when the relation is already in order). The same pass validates
/// the order schema, so `r` is then split with [`SortMode::SkipValidated`].
pub fn alignment_ranks(r: &Relation, order: &[&str]) -> Result<Option<Vec<usize>>, RmaError> {
    schemas(r, order)?;
    Ok(sort_validated(r, order)?.map(|perm| invert_permutation(&perm)))
}

/// Are the two operands' order keys equal row by row
/// ([`rma_storage::same_keys`])? Then their ranks agree and an aligned
/// operation pairs rows positionally, with no sort.
pub fn identical_keys(r: &Relation, r_order: &[&str], s: &Relation, s_order: &[&str]) -> bool {
    match (r.columns_of(r_order), s.columns_of(s_order)) {
        (Ok(a), Ok(b)) => same_keys(&a, &b),
        _ => false, // the splits report the unknown attribute
    }
}

/// Gather one column as `f64` in the given order, widening integers and
/// rejecting nulls and non-numeric types.
fn gather_f64(col: &Column, perm: Option<&[usize]>, name: &str) -> Result<Vec<f64>, RmaError> {
    if col.null_count() > 0 {
        return Err(RmaError::Storage(StorageError::NullInNumericContext));
    }
    let out = match (col.data(), perm) {
        (ColumnData::Float(v), None) => v.clone(),
        (ColumnData::Float(v), Some(p)) => p.iter().map(|&i| v[i]).collect(),
        (ColumnData::Int(v), None) => v.iter().map(|&x| x as f64).collect(),
        (ColumnData::Int(v), Some(p)) => p.iter().map(|&i| v[i] as f64).collect(),
        _ => {
            return Err(RmaError::NonNumericApplication {
                attribute: name.to_string(),
            })
        }
    };
    Ok(out)
}

/// The schema cast `∆U`: a string column holding attribute names (becomes
/// the values of the `C` column for shape-`c1` row origins).
pub fn schema_cast(names: &[String]) -> Column {
    Column::new(ColumnData::Str(names.to_vec()))
}

/// The column cast `▽U`: attribute *names* generated from the values of a
/// single (sorted, key) order column.
pub fn column_cast(col: &Column) -> Result<Vec<String>, RmaError> {
    let mut names = Vec::with_capacity(col.len());
    for v in col.iter_values() {
        let name = v.to_string();
        if name.is_empty() {
            return Err(RmaError::BadOriginName(name));
        }
        names.push(name);
    }
    Ok(names)
}

/// The relation constructor `γ`: assemble row-context columns and base
/// result columns (named `f64` vectors) into a relation.
pub fn build_relation(
    context_cols: Vec<(Attribute, Column)>,
    result_names: &[String],
    result_cols: Vec<Vec<f64>>,
) -> Result<Relation, RmaError> {
    debug_assert_eq!(result_names.len(), result_cols.len());
    let mut attrs: Vec<Attribute> = Vec::with_capacity(context_cols.len() + result_cols.len());
    let mut columns: Vec<Column> = Vec::with_capacity(attrs.capacity());
    for (a, c) in context_cols {
        attrs.push(a);
        columns.push(c);
    }
    for (name, col) in result_names.iter().zip(result_cols) {
        attrs.push(Attribute::new(name.clone(), rma_storage::DataType::Float));
        columns.push(Column::new(ColumnData::Float(col)));
    }
    let schema = Schema::new(attrs)?;
    Ok(Relation::new(schema, columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::RmaOp;
    use rma_relation::RelationBuilder;
    use rma_storage::{DataType, Value};

    fn weather() -> Relation {
        RelationBuilder::new()
            .name("r")
            .column("T", vec!["5am", "8am", "7am", "6am"])
            .column("H", vec![1.0f64, 8.0, 6.0, 1.0])
            .column("W", vec![3.0f64, 5.0, 7.0, 4.0])
            .build()
            .unwrap()
    }

    #[test]
    fn full_sort_gathers_in_key_order() {
        let s = split(&weather(), &["T"], SortMode::Full).unwrap();
        assert_eq!(s.app_names, vec!["H", "W"]);
        assert_eq!(s.app[0], vec![1.0, 1.0, 6.0, 8.0]); // H sorted by T
        assert_eq!(s.app[1], vec![3.0, 4.0, 7.0, 5.0]); // W sorted by T
        assert_eq!(s.order_cols[0].get(0), Value::from("5am"));
        assert!(s.perm.is_some());
    }

    #[test]
    fn skip_keeps_physical_order() {
        let s = split(&weather(), &["T"], SortMode::Skip).unwrap();
        assert_eq!(s.app[0], vec![1.0, 8.0, 6.0, 1.0]);
        assert!(s.perm.is_none());
    }

    #[test]
    fn align_to_matches_other_relation() {
        // s has the same keys in a different physical order; aligning s to
        // r's physical order must pair equal keys.
        let r = weather();
        let s_rel = RelationBuilder::new()
            .column("T2", vec!["6am", "5am", "8am", "7am"])
            .column("X", vec![60.0f64, 50.0, 80.0, 70.0])
            .build()
            .unwrap();
        let ranks = alignment_ranks(&r, &["T"]).unwrap();
        let s = split(&s_rel, &["T2"], SortMode::AlignTo { ranks }).unwrap();
        // r physical order: 5am, 8am, 7am, 6am → aligned X: 50, 80, 70, 60
        assert_eq!(s.app[0], vec![50.0, 80.0, 70.0, 60.0]);
        let t2: Vec<Value> = s.order_cols[0].iter_values().collect();
        assert_eq!(
            t2,
            vec![
                Value::from("5am"),
                Value::from("8am"),
                Value::from("7am"),
                Value::from("6am")
            ]
        );
    }

    /// `k` with one duplicate (dense range: the scatter path) and `x`.
    fn dup_keys() -> Relation {
        RelationBuilder::new()
            .column("k", vec![3i64, 1, 2, 1])
            .column("x", vec![1.0f64, 2.0, 3.0, 4.0])
            .build()
            .unwrap()
    }

    fn not_key<T: std::fmt::Debug>(res: Result<T, RmaError>) -> bool {
        matches!(res, Err(RmaError::OrderSchemaNotKey(_)))
    }

    #[test]
    fn key_violation_detected() {
        let r = RelationBuilder::new()
            .column("k", vec![1i64, 1])
            .column("x", vec![1.0f64, 2.0])
            .build()
            .unwrap();
        assert!(matches!(
            split(&r, &["k"], SortMode::Full),
            Err(RmaError::OrderSchemaNotKey(_))
        ));
    }

    #[test]
    fn key_violation_detected_on_every_mode() {
        let r = dup_keys();
        assert!(not_key(split(&r, &["k"], SortMode::Full)));
        assert!(not_key(split(&r, &["k"], SortMode::Skip)));
        assert!(not_key(split(
            &r,
            &["k"],
            SortMode::AlignTo { ranks: None }
        )));
        let ranks = Some(vec![3, 2, 1, 0]);
        assert!(not_key(split(&r, &["k"], SortMode::AlignTo { ranks })));
        assert!(not_key(alignment_ranks(&r, &["k"])));
        // the caller vouches for the verdict: no check here
        assert!(split(&r, &["k"], SortMode::SkipValidated).is_ok());
    }

    #[test]
    fn key_violation_detected_on_every_key_shape() {
        let wide = |k: Vec<i64>| {
            RelationBuilder::new()
                .column("k", k)
                .column("x", vec![1.0f64, 2.0, 3.0])
                .build()
                .unwrap()
        };
        // wide range (sorted, not scattered), sorted input, plain strings,
        // nulls, dictionary codes
        let spread = wide(vec![i64::MAX, 7, i64::MAX]);
        let sorted = wide(vec![-5, 9, 9]);
        let strs = RelationBuilder::new()
            .column("k", vec!["b", "a", "b"])
            .column("x", vec![1.0f64, 2.0, 3.0])
            .build()
            .unwrap();
        let nulls = RelationBuilder::new()
            .column(
                "k",
                Column::from_values_typed(
                    DataType::Int,
                    &[Value::Null, Value::Int(1), Value::Null],
                )
                .unwrap(),
            )
            .column("x", vec![1.0f64, 2.0, 3.0])
            .build()
            .unwrap();
        for r in [spread, sorted, strs, nulls] {
            for mode in [SortMode::Full, SortMode::Skip] {
                assert!(not_key(split(&r, &["k"], mode)), "{r:?}");
            }
            assert!(not_key(alignment_ranks(&r, &["k"])));
        }
        let dict_col = Column::from(vec!["a"; 16])
            .encode_as(rma_storage::Encoding::Dict)
            .unwrap();
        let dict = RelationBuilder::new()
            .column("k", dict_col)
            .column("x", vec![1.0f64; 16])
            .build()
            .unwrap();
        assert!(not_key(split(&dict, &["k"], SortMode::Skip)));
        assert!(not_key(split(&dict, &["k"], SortMode::Full)));
    }

    #[test]
    fn sorted_hints_still_validate_both_operands() {
        // the plan layer's sortedness hints skip the sorts, not the checks
        let ctx = RmaContext::default();
        let dup = RelationBuilder::new()
            .column("k", vec![1i64, 2, 2, 3])
            .column("x", vec![1.0f64; 4])
            .build()
            .unwrap();
        let uniq = RelationBuilder::new()
            .column("j", vec![1i64, 2, 3, 4])
            .column("y", vec![1.0f64; 4])
            .build()
            .unwrap();
        for op in [RmaOp::Add, RmaOp::Cpd] {
            let hinted = |r: &Relation, ro, s: &Relation, so| {
                ctx.binary_hinted(op, r, &[ro], true, s, &[so], true)
            };
            assert!(not_key(hinted(&dup, "k", &uniq, "j")));
            assert!(not_key(hinted(&uniq, "j", &dup, "k")));
        }
    }

    #[test]
    fn identical_keys_by_storage_or_value() {
        let r = dup_keys();
        assert!(identical_keys(&r, &["k"], &r, &["k"]));
        let copy = RelationBuilder::new()
            .column("j", vec![3i64, 1, 2, 1])
            .column("y", vec![0.0f64; 4])
            .build()
            .unwrap();
        assert!(identical_keys(&r, &["k"], &copy, &["j"]));
        let other = RelationBuilder::new()
            .column("j", vec![3i64, 1, 1, 2])
            .column("y", vec![0.0f64; 4])
            .build()
            .unwrap();
        assert!(!identical_keys(&r, &["k"], &other, &["j"]));
        assert!(!identical_keys(&r, &["k"], &copy, &["nope"]));
        // ±0.0 compare equal as numbers but order apart: not identical
        let zeros = |a: f64, b: f64| {
            RelationBuilder::new()
                .column("z", vec![a, b])
                .column("y", vec![0.0f64; 2])
                .build()
                .unwrap()
        };
        assert!(!identical_keys(
            &zeros(-0.0, 0.0),
            &["z"],
            &zeros(0.0, -0.0),
            &["z"]
        ));
    }

    #[test]
    fn non_numeric_application_rejected() {
        let r = RelationBuilder::new()
            .column("k", vec![1i64, 2])
            .column("s", vec!["a", "b"])
            .build()
            .unwrap();
        assert!(matches!(
            split(&r, &["k"], SortMode::Full),
            Err(RmaError::NonNumericApplication { .. })
        ));
    }

    #[test]
    fn empty_application_rejected() {
        let r = RelationBuilder::new()
            .column("k", vec![1i64, 2])
            .build()
            .unwrap();
        assert!(matches!(
            split(&r, &["k"], SortMode::Full),
            Err(RmaError::EmptyApplication)
        ));
    }

    #[test]
    fn int_application_widens() {
        let r = RelationBuilder::new()
            .column("k", vec![2i64, 1])
            .column("x", vec![20i64, 10])
            .build()
            .unwrap();
        let s = split(&r, &["k"], SortMode::Full).unwrap();
        assert_eq!(s.app[0], vec![10.0, 20.0]);
    }

    #[test]
    fn unary_sort_modes_follow_policy() {
        let ctx = RmaContext::default();
        assert!(matches!(unary_sort_mode(&ctx, RmaOp::Qqr), SortMode::Skip));
        assert!(matches!(unary_sort_mode(&ctx, RmaOp::Inv), SortMode::Full));
        let always = RmaContext::new(crate::context::RmaOptions {
            sort_policy: SortPolicy::Always,
            ..Default::default()
        });
        assert!(matches!(
            unary_sort_mode(&always, RmaOp::Qqr),
            SortMode::Full
        ));
    }

    #[test]
    fn casts() {
        let col = Column::from(vec!["5am", "6am"]);
        assert_eq!(column_cast(&col).unwrap(), vec!["5am", "6am"]);
        let names = schema_cast(&["H".to_string(), "W".to_string()]);
        assert_eq!(names.get(1), Value::from("W"));
        let empty = Column::from(vec![""]);
        assert!(matches!(
            column_cast(&empty),
            Err(RmaError::BadOriginName(_))
        ));
    }

    #[test]
    fn build_relation_gamma() {
        let ctx_cols = vec![(
            Attribute::new("T", rma_storage::DataType::Str),
            Column::from(vec!["7am", "8am"]),
        )];
        let rel = build_relation(
            ctx_cols,
            &["H".to_string(), "W".to_string()],
            vec![vec![-0.19, 0.31], vec![0.27, -0.23]],
        )
        .unwrap();
        assert_eq!(rel.len(), 2);
        let names: Vec<_> = rel.schema().names().collect();
        assert_eq!(names, vec!["T", "H", "W"]);
    }

    #[test]
    fn build_relation_rejects_duplicate_names() {
        let ctx_cols = vec![(
            Attribute::new("H", rma_storage::DataType::Str),
            Column::from(vec!["x"]),
        )];
        assert!(build_relation(ctx_cols, &["H".to_string()], vec![vec![1.0]]).is_err());
    }
}
