//! Parity of the one-pass order-key sort with the comparator sort it
//! replaces: for every type × encoding, with nulls, duplicates, 1–3 key
//! columns and sorted, reverse-sorted or shuffled input, the permutation
//! must equal the stable `Column::cmp_rows` sort exactly and the key
//! verdict must equal the sort-based duplicate check. Reading the keys
//! must never decode an encoded column.

use proptest::prelude::*;
use rma_storage::{
    cmp_rows, decode_sink_events, is_key, key_order, sort_permutation, Column, DataType, Encoding,
    Value,
};
use std::cmp::Ordering;

/// The oracle: the stable comparator sort over `cmp_rows`.
fn oracle_perm(cols: &[&Column]) -> Vec<usize> {
    let n = cols.first().map_or(0, |c| c.len());
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by(|&a, &b| cmp_rows(cols, a, b));
    perm
}

/// The oracle verdict: no two adjacent rows of the sorted order are equal.
fn oracle_is_key(cols: &[&Column]) -> bool {
    oracle_perm(cols)
        .windows(2)
        .all(|w| cmp_rows(cols, w[0], w[1]) != Ordering::Equal)
}

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// Physical forms a key column is stored in.
#[derive(Debug, Clone, Copy)]
enum Form {
    IntPlain,
    IntRle,
    IntPacked,
    FloatPlain,
    FloatRle,
    StrPlain,
    StrDict,
    Bool,
    Date,
}

const FORMS: [Form; 9] = [
    Form::IntPlain,
    Form::IntRle,
    Form::IntPacked,
    Form::FloatPlain,
    Form::FloatRle,
    Form::StrPlain,
    Form::StrDict,
    Form::Bool,
    Form::Date,
];

const SPECIAL_FLOATS: [f64; 8] = [
    f64::NAN,
    -f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    -1.5,
];

/// How a column's values are drawn.
#[derive(Debug, Clone, Copy)]
enum Spread {
    /// A shuffled `0..n` (shifted negative): unique keys in a dense range.
    Unique,
    /// A domain of about `n / 3` values: duplicates in a dense range.
    Dups,
    /// Extremes and the full range of the type: the pair-sort paths.
    Wide,
}

/// One column of `n` values of `form`.
fn values(form: Form, spread: Spread, n: usize, rng: &mut TestRng) -> Vec<Value> {
    let mut ids: Vec<i64> = (0..n as i64).collect();
    for i in (1..n).rev() {
        ids.swap(i, below(rng, i as u64 + 1) as usize);
    }
    let domain = 4 + n as u64 / 3;
    (0..n)
        .map(|i| {
            let x = match spread {
                Spread::Unique => ids[i] - n as i64 / 2,
                Spread::Dups => below(rng, domain) as i64 - 2,
                Spread::Wide => rng.next_u64() as i64,
            };
            let extreme = matches!(spread, Spread::Wide) && below(rng, 4) == 0;
            match form {
                Form::IntPlain | Form::IntRle | Form::IntPacked => Value::Int(match extreme {
                    true => [i64::MIN, i64::MAX, -1, 0][below(rng, 4) as usize],
                    false => x,
                }),
                Form::FloatPlain | Form::FloatRle => Value::Float(match extreme {
                    true => SPECIAL_FLOATS[below(rng, 8) as usize],
                    false if matches!(spread, Spread::Wide) => f64::from_bits(x as u64),
                    false => x as f64 / 8.0,
                }),
                Form::StrPlain | Form::StrDict => Value::Str(format!("s{x}")),
                Form::Bool => Value::Bool(x % 2 == 0),
                Form::Date => Value::Date(match extreme {
                    true => [i32::MIN, i32::MAX][below(rng, 2) as usize],
                    false => x as i32,
                }),
            }
        })
        .collect()
}

fn dtype(form: Form) -> DataType {
    match form {
        Form::IntPlain | Form::IntRle | Form::IntPacked => DataType::Int,
        Form::FloatPlain | Form::FloatRle => DataType::Float,
        Form::StrPlain | Form::StrDict => DataType::Str,
        Form::Bool => DataType::Bool,
        Form::Date => DataType::Date,
    }
}

/// Store one column's values in `form` (packing falls back to plain when
/// the range needs all 64 bits).
fn column(form: Form, values: &[Value]) -> Column {
    let plain = Column::from_values_typed(dtype(form), values).unwrap();
    let enc = match form {
        Form::IntRle | Form::FloatRle => Encoding::Rle,
        Form::IntPacked => Encoding::Packed,
        Form::StrDict => Encoding::Dict,
        _ => return plain,
    };
    plain.encode_as(enc).unwrap_or(plain)
}

/// A generated key: per-column forms and row-major values.
#[derive(Debug)]
struct Case {
    forms: Vec<Form>,
    rows: Vec<Vec<Value>>,
}

impl Case {
    fn generate(rng: &mut TestRng) -> Case {
        let n = match below(rng, 4) {
            0 => 1200 + below(rng, 1200) as usize,
            _ => below(rng, 40) as usize,
        };
        let k = 1 + below(rng, 3) as usize;
        let forms: Vec<Form> = (0..k).map(|_| FORMS[below(rng, 9) as usize]).collect();
        let null_rate = [0, 0, 10, 50][below(rng, 4) as usize];
        let cols: Vec<Vec<Value>> = forms
            .iter()
            .map(|&f| {
                let spread = [Spread::Unique, Spread::Dups, Spread::Wide][below(rng, 3) as usize];
                let mut vals = values(f, spread, n, rng);
                for v in &mut vals {
                    if below(rng, 100) < null_rate {
                        *v = Value::Null;
                    }
                }
                vals
            })
            .collect();
        let mut rows: Vec<Vec<Value>> = (0..n)
            .map(|i| cols.iter().map(|c| c[i].clone()).collect())
            .collect();
        // already sorted, reverse-sorted, or left shuffled
        let arrange = below(rng, 3);
        if arrange < 2 {
            let cols = Case::columns_of(&forms, &rows);
            let refs: Vec<&Column> = cols.iter().collect();
            let mut perm = oracle_perm(&refs);
            if arrange == 1 {
                perm.reverse();
            }
            rows = perm.into_iter().map(|i| rows[i].clone()).collect();
        }
        Case { forms, rows }
    }

    fn columns_of(forms: &[Form], rows: &[Vec<Value>]) -> Vec<Column> {
        forms
            .iter()
            .enumerate()
            .map(|(j, &f)| {
                let vals: Vec<Value> = rows.iter().map(|r| r[j].clone()).collect();
                column(f, &vals)
            })
            .collect()
    }

    fn columns(&self) -> Vec<Column> {
        Case::columns_of(&self.forms, &self.rows)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn key_pass_matches_comparator_sort(case in Just(()).prop_perturb(|_, mut rng| Case::generate(&mut rng))) {
        let cols = case.columns();
        let refs: Vec<&Column> = cols.iter().collect();
        let n = case.rows.len();
        let sinks = decode_sink_events();
        let order = key_order(&refs);
        let perm = sort_permutation(&refs);
        let verdict = is_key(&refs);
        prop_assert_eq!(decode_sink_events(), sinks, "key pass decoded a column: {:?}", case.forms);
        let want = oracle_perm(&refs);
        prop_assert_eq!(&perm, &want, "forms {:?}, {} rows", case.forms, n);
        let got = order.perm.unwrap_or_else(|| (0..n).collect());
        prop_assert_eq!(&got, &want, "forms {:?}, {} rows", case.forms, n);
        let key = oracle_is_key(&refs);
        prop_assert_eq!(order.is_key, key, "forms {:?}, {} rows", case.forms, n);
        prop_assert_eq!(verdict, key, "forms {:?}, {} rows", case.forms, n);
    }
}

#[test]
fn extreme_ints_and_special_floats() {
    let ints = Column::from(vec![i64::MAX, -1, i64::MIN, 0, i64::MIN, 1]);
    assert_eq!(sort_permutation(&[&ints]), oracle_perm(&[&ints]));
    assert!(!is_key(&[&ints]));
    let floats = Column::from(SPECIAL_FLOATS.to_vec());
    assert_eq!(sort_permutation(&[&floats]), oracle_perm(&[&floats]));
    assert!(
        is_key(&[&floats]),
        "±0.0 and ±NaN are distinct under total_cmp"
    );
    let twice = Column::from(vec![f64::NAN, 1.0, f64::NAN]);
    assert!(!is_key(&[&twice]));
}
