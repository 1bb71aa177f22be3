//! Latency summaries, process memory, and the small JSON writer the
//! benchmark prints its records with.

use std::fmt::{self, Write as _};

/// Median and tail of one query type's latencies (milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// The latency at percentile `tail_pct` (nearest rank).
    pub tail: f64,
    pub tail_pct: f64,
    /// Samples above the tail; the percentile is chosen per workload so
    /// that a run of the benchmark's length leaves at least ten.
    pub beyond: usize,
}

pub fn summarize(samples: &[f64], tail_pct: f64) -> Summary {
    assert!(!samples.is_empty(), "summary of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = ((tail_pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Summary {
        n,
        median: median_sorted(&s),
        tail: s[rank - 1],
        tail_pct,
        beyond: n - rank,
    }
}

pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    median_sorted(&s)
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Geometric mean: how a mix of query types with very different costs is
/// combined into one latency figure (the TPC-H power-metric convention), so
/// a type that takes 10× longer does not decide the figure alone and the
/// figure never sits on the boundary between two types.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in xs {
        sum += x.ln();
        n += 1;
    }
    (sum / n as f64).exp()
}

/// Peak resident memory of this process in MiB (`VmHWM`); `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A JSON value, printed compactly with every digit of its numbers.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `{"value": v, "unit": u}` — one metric of the result line.
    pub fn metric(value: f64, unit: &str) -> Json {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // `{:?}` is Rust's shortest round-trip form (always with a `.`
            // or exponent); JSON has no NaN or infinity
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let s = summarize(&xs, 75.0);
        assert_eq!((s.tail, s.beyond, s.median), (30.0, 10, 20.5));
        let few = summarize(&[3.0, 1.0, 2.0], 90.0);
        assert_eq!((few.tail, few.beyond, few.median), (3.0, 0, 2.0));
    }

    #[test]
    fn json_is_compact_and_escaped() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::str("x\"y")),
            ("c", Json::Arr(vec![Json::Int(2), Json::Num(f64::NAN)])),
        ]);
        assert_eq!(j.to_string(), r#"{"a":1.5,"b":"x\"y","c":[2,null]}"#);
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean([4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
