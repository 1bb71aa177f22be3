//! `mixed_sql`: the four mixed relational and matrix workloads of §8.6,
//! written as SQL over BIXI- and DBLP-like tables.
//!
//! Each answer is checked against `rma_bench::workloads::run_*` on the
//! same generated tables, computed once before the timed phase.

use super::{close, num, num_at, plain_bytes, scaled, Check, ClosedLoop, PathRule, Query};
use rma_bench::workloads::{
    run_conferences_covariance, run_journeys_regression, run_trip_count, run_trips_ols,
    trip_count_tables, SystemKind,
};
use rma_core::{RmaContext, RmaOptions};
use rma_relation::Relation;

const STATIONS: usize = 120;
const JOURNEY_STATIONS: usize = 60;
const CONFERENCES: usize = 60;
const DESTINATIONS: usize = 10;
/// The trips OLS keeps station pairs ridden at least this often.
const MIN_PAIR_TRIPS: i64 = 50;
/// The trip-count query keeps riders whose summed `a1` exceeds this.
const TRIP_COUNT_CUTOFF: f64 = 10_000.0;
/// The generator draws trip durations as 180 s per km plus noise.
const GENERATOR_SLOPE: f64 = 180.0;

/// Relative tolerance between the SQL answer and the direct computation
/// (both are float pipelines with different association orders).
const TOL: f64 = 1e-6;

/// Planar distance in ~km between two coordinate pairs, as SQL (the same
/// formula as `rma_data::bixi::station_distance`).
fn distance_sql(lat1: &str, lat2: &str, lon1: &str, lon2: &str) -> String {
    format!(
        "SQRT(({lat1} - {lat2}) * 111.0 * (({lat1} - {lat2}) * 111.0) \
         + ({lon1} - {lon2}) * 78.0 * (({lon1} - {lon2}) * 78.0))"
    )
}

/// Station coordinates renamed for one trip endpoint (`s` start, `e` end).
fn endpoint(table: &str, p: char) -> String {
    format!("(SELECT code AS {p}c, lat AS {p}lat, lon AS {p}lon FROM {table}) {p}s")
}

/// Trips OLS (Fig. 15): frequent station pairs by `GROUP BY`, joined back
/// to the trips and to both endpoint stations, then `SOL` regresses the
/// duration on the distance.
fn trips_sql() -> String {
    let freq = "(SELECT start_station AS fs, end_station AS fe, COUNT(*) AS n FROM trips \
                GROUP BY start_station, end_station) f";
    let dist = distance_sql("slat", "elat", "slon", "elon");
    format!(
        "SELECT * FROM SOL(\
         (SELECT id, 1.0 AS x0, {dist} AS x1 FROM trips \
         JOIN {freq} ON start_station = fs AND end_station = fe \
         JOIN {s} ON start_station = sc JOIN {e} ON end_station = ec \
         WHERE n >= {MIN_PAIR_TRIPS}) a BY id, \
         (SELECT id, duration FROM trips JOIN {freq} ON start_station = fs AND end_station = fe \
         WHERE n >= {MIN_PAIR_TRIPS}) v BY id)",
        s = endpoint("stations", 's'),
        e = endpoint("stations", 'e'),
    )
}

/// Journeys regression (Fig. 16) over two-trip journeys: a self-join of
/// the one-trip journeys on the meeting station and consecutive ids, then
/// `SOL` regresses the total duration on the two distances.
fn journeys_sql() -> String {
    let dist = distance_sql("slat", "elat", "slon", "elon");
    let hop = |p: char| {
        format!(
            "(SELECT jid AS {p}jid, jid - 1 AS {p}prev, start AS {p}start, end AS {p}end, \
             duration AS {p}dur, {dist} AS {p}dist FROM journeys \
             JOIN {s} ON start = sc JOIN {e} ON end = ec) {p}h",
            s = endpoint("jstations", 's'),
            e = endpoint("jstations", 'e'),
        )
    };
    let pairs = format!(
        "{} JOIN {} ON pend = nstart AND pjid = nprev",
        hop('p'),
        hop('n')
    );
    format!(
        "SELECT * FROM SOL(\
         (SELECT pjid, 1.0 AS x0, pdist AS x1, ndist AS x2 FROM {pairs}) a BY pjid, \
         (SELECT pjid, pdur + ndur AS duration FROM {pairs}) v BY pjid)"
    )
}

/// Conferences (Fig. 17): centre the publication counts with `SUB`, take
/// the covariance numerator with `CPD`, and keep the A++ conferences.
fn conferences_sql() -> String {
    let confs: Vec<String> = (0..CONFERENCES)
        .map(rma_data::dblp::conference_name)
        .collect();
    let means: Vec<String> = confs.iter().map(|c| format!("AVG({c}) AS m{c}")).collect();
    let renamed: Vec<String> = confs.iter().map(|c| format!("m{c} AS {c}")).collect();
    let centred = |alias: char| {
        format!(
            "(SELECT author, {cols} FROM SUB(pubs BY author, \
             (SELECT author AS author2, {renamed} FROM (SELECT author FROM pubs) p \
             CROSS JOIN (SELECT {means} FROM pubs) m) mm BY author2)) {alias}",
            cols = confs.join(", "),
            renamed = renamed.join(", "),
            means = means.join(", "),
        )
    };
    format!(
        "SELECT * FROM CPD({} BY author, {} BY author) AS c \
         JOIN rankings ON C = conf WHERE rating = 'A++'",
        centred('x'),
        centred('y')
    )
}

/// Trip count (Fig. 18): add two years of rider × destination counts and
/// keep the riders above a cutoff.
fn trip_count_sql() -> String {
    format!(
        "SELECT COUNT(*) AS n, SUM(a0) AS s FROM ADD(y1 BY k0, y2 BY k) \
         WHERE a1 > {TRIP_COUNT_CUTOFF:?}"
    )
}

pub fn build(seed: u64, scale: f64) -> ClosedLoop {
    let trips = rma_data::trips(scaled(100_000, scale, 20_000), STATIONS, seed);
    let stations = rma_data::stations(STATIONS, seed ^ 0x5a5a);
    let journeys = rma_data::journeys(scaled(50_000, scale, 2_000), JOURNEY_STATIONS, seed);
    let jstations = rma_data::stations(JOURNEY_STATIONS, seed ^ 0xa5a5);
    let pubs = rma_data::publications(scaled(10_000, scale, 500), CONFERENCES, seed);
    let rankings = rma_data::rankings(CONFERENCES, seed);
    let (y1, y2) = trip_count_tables(scaled(100_000, scale, 2_000), DESTINATIONS, seed);

    let sys = SystemKind::RmaAuto;
    let slope = run_trips_ols(sys, &trips, &stations, MIN_PAIR_TRIPS).check;
    let slopes = run_journeys_regression(sys, &journeys, &jstations, 2).check;
    let cov_diag = run_conferences_covariance(sys, &pubs, &rankings).check;
    let (tc_n, tc_sum) = trip_count_oracle(&y1, &y2);

    let trips_check: Check = Box::new(move |r| {
        let got = num_at(r, "C", "x1", "duration")?;
        if !close(got, slope, TOL) {
            return Err(format!("OLS slope {got}, direct computation gives {slope}"));
        }
        if (got - GENERATOR_SLOPE).abs() > 0.05 * GENERATOR_SLOPE {
            return Err(format!(
                "OLS slope {got} does not recover ~{GENERATOR_SLOPE} s/km"
            ));
        }
        Ok(())
    });
    let journeys_check: Check = Box::new(move |r| {
        let got = num_at(r, "C", "x1", "duration")? + num_at(r, "C", "x2", "duration")?;
        if close(got, slopes, TOL) {
            Ok(())
        } else {
            Err(format!(
                "slope sum {got}, direct computation gives {slopes}"
            ))
        }
    });
    let authors = pubs.len() as f64;
    let conf_check: Check = Box::new(move |r| {
        let mut diag = 0.0;
        for i in 0..r.len() {
            let conf = r.cell(i, "C").map_err(|e| e.to_string())?;
            let rma_storage::Value::Str(conf) = conf else {
                return Err("C is not a string".to_string());
            };
            diag += num(r, i, &conf)?;
        }
        let got = diag / (authors - 1.0);
        if close(got, cov_diag, TOL) {
            Ok(())
        } else {
            Err(format!(
                "A++ variance sum {got}, direct computation gives {cov_diag}"
            ))
        }
    });
    let tc_check: Check = Box::new(move |r| {
        let (n, s) = (num(r, 0, "n")?, num(r, 0, "s")?);
        if n == tc_n as f64 && close(s, tc_sum, TOL) {
            Ok(())
        } else {
            Err(format!("(n, s) = ({n}, {s}), expected ({tc_n}, {tc_sum})"))
        }
    });

    let bytes = |rs: &[&Relation]| rs.iter().map(|r| plain_bytes(r)).sum::<u64>();
    let queries = vec![
        Query {
            kind: "trips_ols",
            sql: trips_sql(),
            check: trips_check,
            input_bytes: bytes(&[&trips, &stations]),
        },
        Query {
            kind: "journeys_regression",
            sql: journeys_sql(),
            check: journeys_check,
            input_bytes: bytes(&[&journeys, &jstations]),
        },
        Query {
            kind: "conferences",
            sql: conferences_sql(),
            check: conf_check,
            input_bytes: bytes(&[&pubs, &rankings]),
        },
        Query {
            kind: "trip_count",
            sql: trip_count_sql(),
            check: tc_check,
            input_bytes: bytes(&[&y1, &y2]),
        },
    ];
    ClosedLoop {
        tables: vec![
            ("trips", trips),
            ("stations", stations),
            ("journeys", journeys),
            ("jstations", jstations),
            ("pubs", pubs),
            ("rankings", rankings),
            ("y1", y1),
            ("y2", y2),
        ],
        options: RmaOptions::default(),
        queries,
        path: PathRule::RmaEveryQuery,
        tail_pct: 85.0,
    }
}

/// Expected (count, Σ a0) of the trip-count query, from one direct `add`;
/// the direct sum over all riders must also equal `run_trip_count`'s.
fn trip_count_oracle(y1: &Relation, y2: &Relation) -> (usize, f64) {
    let ctx = RmaContext::new(RmaOptions::default());
    let sum = ctx.add(y1, &["k0"], y2, &["k"]).expect("direct add");
    let a0 = sum.column("a0").expect("a0").to_f64_vec().expect("numeric");
    let a1 = sum.column("a1").expect("a1").to_f64_vec().expect("numeric");
    let whole = run_trip_count(SystemKind::RmaAuto, y1, y2).check;
    assert!(
        close(a0.iter().sum(), whole, TOL),
        "direct add disagrees with run_trip_count"
    );
    let kept: Vec<f64> = a0
        .iter()
        .zip(&a1)
        .filter(|(_, &b)| b > TRIP_COUNT_CUTOFF)
        .map(|(&a, _)| a)
        .collect();
    (kept.len(), kept.iter().sum())
}
