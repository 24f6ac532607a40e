//! `BENCHMARK.json` holds exactly the fixed fields, and its workloads and
//! metrics are the ones this program runs and prints.

use crate::report::{per_layer_schema, END_TO_END};
use crate::WORKLOADS;
use grca_bench::schema::{parse, Json};

const BENCHMARK: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

fn keys(v: &Json) -> Vec<&str> {
    match v {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn items(v: &Json) -> &[Json] {
    match v {
        Json::Arr(items) => items,
        other => panic!("expected an array, found {other:?}"),
    }
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    match v.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

#[test]
fn benchmark_json_holds_exactly_the_fixed_fields() {
    let doc = parse(BENCHMARK).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = items(doc.get("command").unwrap())
        .iter()
        .map(|c| match c {
            Json::Str(s) => s.as_str(),
            other => panic!("command part {other:?}"),
        })
        .collect();
    assert!(command.contains(&"perfbench/Cargo.toml"), "{command:?}");
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
    assert_eq!(
        doc.get("paths"),
        Some(&Json::Arr(vec![Json::Str("perfbench".into())]))
    );
    match doc.get("run_seconds") {
        Some(Json::Num(n)) => assert!(n.fract() == 0.0 && (1.0..=60.0).contains(n)),
        other => panic!("run_seconds {other:?}"),
    }

    let workloads = items(doc.get("workloads").unwrap());
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, ours);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let e2e = items(doc.get("end_to_end").unwrap());
    let listed: Vec<(&str, &str)> = e2e
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    assert_eq!(listed, END_TO_END);
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        assert!(matches!(text(m, "better"), "lower" | "higher"));
        match m.get("bound") {
            Some(Json::Num(b)) => assert!(*b > 0.0 && *b <= 0.25, "{b}"),
            other => panic!("bound {other:?}"),
        }
    }
    let setup = e2e.iter().find(|m| text(m, "name") == "setup_s").unwrap();
    assert_eq!(text(setup, "better"), "lower");
    let largest = e2e
        .iter()
        .filter_map(|m| match m.get("bound") {
            Some(Json::Num(b)) => Some(*b),
            _ => None,
        })
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound"),
        Some(&Json::Num(largest)),
        "setup_s has the largest bound"
    );

    let layer = items(doc.get("per_layer").unwrap());
    let listed: Vec<(String, String)> = layer
        .iter()
        .map(|m| {
            assert_eq!(keys(m), ["name", "unit", "better"]);
            assert!(matches!(text(m, "better"), "lower" | "higher"));
            (text(m, "name").to_string(), text(m, "unit").to_string())
        })
        .collect();
    let ours: Vec<(String, String)> = per_layer_schema()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed, ours);
}
