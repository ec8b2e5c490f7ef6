//! `BENCHMARK.json` agrees with the metric tables the benchmark emits, and
//! the statistics every metric is reduced with are right.
//!
//! `cargo test --release --manifest-path e2ebench/Cargo.toml` also runs
//! every workload for one second, traced and untraced, and checks that it
//! passes its own checks and emits exactly the metrics the file names.

use ofh_e2ebench::{
    median, percentile_us, quantile, self_time_ns, END_TO_END, PER_LAYER, WORKLOADS,
};
use serde::Value;

struct Raw(Value);

impl serde::Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Raw, serde::DeError> {
        Ok(Raw(v.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Raw>(text).expect("valid JSON").0
}

fn definition() -> Value {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    parse(&text)
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    serde::value::get(v.as_map().expect("an object"), key).unwrap_or_else(|| panic!("no key {key}"))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_map()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str().expect("string key"))
        .collect()
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    field(v, key).as_seq().expect("a list")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key).as_str().expect("a string")
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn definition_has_the_contract_shape() {
    let def = definition();
    assert_eq!(
        keys(&def),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(list(&def, "paths").len(), 1);
    assert_eq!(list(&def, "paths")[0].as_str(), Some("e2ebench"));
    let run_seconds = field(&def, "run_seconds").as_u64().expect("whole seconds");
    assert!((1..=60).contains(&run_seconds));

    let workloads = list(&def, "workloads");
    let e2e = list(&def, "end_to_end");
    let layers = list(&def, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));

    let mut names = Vec::new();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(text(w, "why").len() <= 200 && !text(w, "why").contains('\n'));
        names.push(text(w, "name"));
    }
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        names.push(text(m, "name"));
    }
    for m in layers {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        names.push(text(m, "name"));
    }
    for name in &names {
        assert!(valid_name(name), "bad name {name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}

#[test]
fn definition_matches_the_emitted_metrics() {
    let def = definition();
    let workloads: Vec<&str> = list(&def, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e: Vec<(&str, &str, &str)> = list(&def, "end_to_end")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let want: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .collect();
    assert_eq!(e2e, want);
    let layers: Vec<(&str, &str, &str)> = list(&def, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let want: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .collect();
    assert_eq!(layers, want);
}

#[test]
fn every_layer_names_an_end_to_end_metric_and_workloads() {
    for l in PER_LAYER {
        assert!(
            END_TO_END.iter().any(|m| m.name == l.moves),
            "{}: unknown metric {}",
            l.name,
            l.moves
        );
        assert!(!l.on.is_empty(), "{} names no workload", l.name);
        for w in l.on {
            assert!(WORKLOADS.contains(w), "{}: unknown workload {w}", l.name);
        }
    }
}

/// Bounds sit above the run-to-run spread measured on a shared 2-vCPU host
/// (README.md, "Calibration"), set-up time has the largest, and peak RSS
/// keeps the 5% it was specified with.
#[test]
fn bounds_stay_tight_and_setup_has_the_largest() {
    let def = definition();
    let bound = |m: &Value| field(m, "bound").as_f64().expect("a number");
    let e2e = list(&def, "end_to_end");
    let setup = e2e
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    for m in e2e {
        assert!(
            bound(m) > 0.0 && bound(m) <= 0.25,
            "{} bound {}",
            text(m, "name"),
            bound(m)
        );
        let name = text(m, "name");
        assert!(
            name == "setup_s" || bound(m) < bound(setup),
            "{name} bound is not below setup_s's"
        );
        if name == "peak_rss_mb" {
            assert!(bound(m) <= 0.05, "peak_rss_mb bound {}", bound(m));
        }
    }
}

#[test]
fn median_and_quantiles_interpolate() {
    assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&mut []).is_nan());
    let mut v: Vec<f64> = (1..=81).map(f64::from).rev().collect();
    assert_eq!(quantile(&mut v, 0.0), 1.0);
    assert_eq!(quantile(&mut v, 0.25), 21.0);
    assert_eq!(quantile(&mut v, 0.75), 61.0);
    assert_eq!(quantile(&mut [1.0, 2.0], 0.75), 1.75);
    assert_eq!(quantile(&mut v, 1.0), 81.0);
}

#[test]
fn batch_percentiles_are_in_microseconds() {
    let ns: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
    assert_eq!(percentile_us(&ns, 0.0), 1.0);
    assert_eq!(percentile_us(&ns, 1.0), 100.0);
    assert!((percentile_us(&ns, 0.99) - 99.01).abs() < 1e-9);
    // A median over sessions of session p99s ignores one bad session.
    let mut session_p99s = [10.0, 11.0, 500.0, 10.5, 9.5];
    assert_eq!(median(&mut session_p99s), 10.5);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // Overlapping children cover [10, 50): 40 of the parent's 100.
    assert_eq!(self_time_ns(0, 100, &[(10, 30), (20, 50)]), 60);
    // Disjoint and nested children.
    assert_eq!(self_time_ns(0, 100, &[(0, 10), (20, 30), (22, 25)]), 80);
    // Children sticking out of the parent count only inside it.
    assert_eq!(self_time_ns(50, 100, &[(0, 60), (90, 200)]), 30);
    assert_eq!(self_time_ns(0, 100, &[]), 100);
    assert_eq!(self_time_ns(0, 100, &[(0, 100), (0, 100)]), 0);
}

/// Every workload, for one second, traced and untraced: it must pass its
/// checks and print exactly the metrics `BENCHMARK.json` names.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "studies are slow in debug builds; run with --release"
)]
fn every_workload_emits_every_metric() {
    let def = definition();
    for workload in WORKLOADS {
        for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_e2ebench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("run e2ebench");
            assert!(out.status.success(), "{workload} --trace {trace} failed");
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            let result = parse(stdout.lines().last().expect("a result line"));
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert!(matches!(field(&result, "correct"), Value::Bool(true)));
            assert_eq!(field(&result, "failed").as_u64(), Some(0));
            assert!(field(&result, "attempted").as_u64().expect("a count") >= 1);
            let emitted = keys(field(&result, "metrics"));
            let named: Vec<&str> = list(&def, kind).iter().map(|m| text(m, "name")).collect();
            assert_eq!(emitted, named, "{workload} --trace {trace}");
        }
    }
}
