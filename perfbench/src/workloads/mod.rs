//! The benchmark's workloads: inputs made from a seed, the SQL each one
//! sends, and the oracles its answers are checked against.

pub mod matrix;
pub mod mixed;
pub mod ooc;
pub mod serve;

use rma_core::RmaOptions;
use rma_relation::Relation;
use rma_storage::Value;

/// Checks one statement's answer; `Err` says what was wrong.
pub type Check = Box<dyn Fn(&Relation) -> Result<(), String> + Send + Sync>;

/// One read statement of a closed-loop workload.
pub struct Query {
    /// The query type, as reported per type in the record.
    pub kind: &'static str,
    pub sql: String,
    pub check: Check,
    /// Plain bytes of the tables the statement reads.
    pub input_bytes: u64,
}

/// The path a workload must be seen to take, so that it cannot be
/// hollowed out by a shortcut without the benchmark noticing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathRule {
    /// Every statement runs at least one relational matrix operation.
    RmaEveryQuery,
    /// The run uses both the dense and the no-copy BAT kernels.
    DenseAndBat,
    /// Every statement spills to disk.
    SpillEveryQuery,
    /// Reads aggregate a column that is not run-length encoded over every
    /// row; the workload's own checks assert it.
    FullScan,
}

/// A closed-loop workload: one session cycling a fixed list of reads.
pub struct ClosedLoop {
    pub tables: Vec<(&'static str, Relation)>,
    pub options: RmaOptions,
    pub queries: Vec<Query>,
    pub path: PathRule,
    /// The tail percentile reported per query type: the highest that a
    /// run of the benchmark's length leaves ten samples beyond.
    pub tail_pct: f64,
}

/// Order-insensitive fingerprint of a relation's numeric content.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    pub rows: usize,
    pub cols: usize,
    pub abs_sum: f64,
    pub sq_sum: f64,
}

pub fn fingerprint(r: &Relation) -> Fingerprint {
    let mut fp = Fingerprint {
        rows: r.len(),
        cols: r.schema().len(),
        abs_sum: 0.0,
        sq_sum: 0.0,
    };
    for name in r.schema().names() {
        let Ok(col) = r.column(name) else { continue };
        if let Ok(xs) = col.to_f64_vec() {
            for x in xs {
                fp.abs_sum += x.abs();
                fp.sq_sum += x * x;
            }
        }
    }
    fp
}

/// A check that the answer's fingerprint matches `want` (sums to a
/// relative `tol`).
pub fn fingerprint_check(want: Fingerprint, tol: f64) -> Check {
    Box::new(move |r| {
        let got = fingerprint(r);
        if got.rows == want.rows
            && got.cols == want.cols
            && close(got.abs_sum, want.abs_sum, tol)
            && close(got.sq_sum, want.sq_sum, tol)
        {
            Ok(())
        } else {
            Err(format!("fingerprint {got:?}, expected {want:?}"))
        }
    })
}

pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1e-300)
}

/// The numeric cell `(row, col)`.
pub fn num(r: &Relation, row: usize, col: &str) -> Result<f64, String> {
    r.cell(row, col)
        .map_err(|e| format!("cell ({row}, {col}): {e}"))?
        .as_f64()
        .ok_or_else(|| format!("cell ({row}, {col}) is not numeric"))
}

/// The numeric cell in column `col` of the row whose `key` column holds
/// the string `at`.
pub fn num_at(r: &Relation, key: &str, at: &str, col: &str) -> Result<f64, String> {
    let want = Value::from(at);
    for i in 0..r.len() {
        if r.cell(i, key).map_err(|e| e.to_string())? == want {
            return num(r, i, col);
        }
    }
    Err(format!("no row with {key} = {at}"))
}

/// Plain (decoded) bytes of a relation.
pub fn plain_bytes(r: &Relation) -> u64 {
    r.columns().iter().map(|c| c.plain_bytes() as u64).sum()
}

/// Rows scaled by the run's `--scale`, never below `min`.
pub fn scaled(rows: usize, scale: f64, min: usize) -> usize {
    ((rows as f64 * scale) as usize).max(min)
}
