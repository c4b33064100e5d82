//! The committed `BENCH_*.json` files at the repository root are the
//! ledger of measured speed-ups: alternating `qla-perf` pairs taken on one
//! host, parent build against changed build. This test runs no timing; it
//! parses every ledger file with the service's JSON reader and checks that
//! each one carries what a reader needs to judge its claim.
//!
//! Schema, by key:
//! - `claim`: `workload`, `metric` and `better` (`lower` or `higher`);
//! - `commits`: `parent` (a 40-digit commit id) and `change`;
//! - `host`: `nproc`, `cpu` and `avx512f` (a boolean);
//! - `seed` and `seconds`: the `qla-perf` arguments of every run;
//! - `runs`: a list of `{workload, trace, pairs}`, where each pair holds a
//!   `parent` and a `change` object with the same numeric metrics;
//! - `medians`: per workload, the `parent` and `change` medians of its
//!   `--trace 0` pairs, which must include the claimed metric.
//!
//! A ledger backfilled from the prose of an earlier change says so with
//! `"source": "CHANGES.md"`. It carries the medians that prose gave and no
//! raw `runs`, so it needs only `claim`, `commits` and `medians`; `host`,
//! `seed` and `seconds` are checked when present.

use qla_serve::Json;
use std::path::{Path, PathBuf};

fn ledger_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(root)
        .expect("read the repository root")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

fn number(value: &Json) -> Option<f64> {
    match value {
        Json::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

fn field<'a>(value: &'a Json, key: &str, file: &str) -> &'a Json {
    value
        .field(key)
        .unwrap_or_else(|| panic!("{file}: missing key `{key}`"))
}

fn string<'a>(value: &'a Json, key: &str, file: &str) -> &'a str {
    field(value, key, file)
        .as_str()
        .unwrap_or_else(|| panic!("{file}: `{key}` is not a string"))
}

/// The metric names of a `{name: number}` object, checking every value is
/// a finite number.
fn metric_names(metrics: &Json, file: &str) -> Vec<String> {
    let fields = metrics
        .fields()
        .unwrap_or_else(|| panic!("{file}: metrics are not an object"));
    assert!(!fields.is_empty(), "{file}: empty metrics");
    for (name, value) in fields {
        let v = number(value).unwrap_or_else(|| panic!("{file}: `{name}` is not a number"));
        assert!(v.is_finite(), "{file}: `{name}` is not finite");
    }
    fields.iter().map(|(name, _)| name.clone()).collect()
}

/// A `{parent, change}` object whose two sides carry the same metrics.
fn check_sides(pair: &Json, file: &str) -> Vec<String> {
    let parent = metric_names(field(pair, "parent", file), file);
    let change = metric_names(field(pair, "change", file), file);
    assert_eq!(
        parent, change,
        "{file}: the two sides carry different metrics"
    );
    parent
}

fn check_ledger(text: &str, file: &str) {
    let ledger = Json::parse(text).unwrap_or_else(|e| panic!("{file}: {e}"));
    let backfilled = ledger.field("source").is_some();
    if backfilled {
        assert_eq!(
            string(&ledger, "source", file),
            "CHANGES.md",
            "{file}: unknown `source`"
        );
    }

    let claim = field(&ledger, "claim", file);
    let (workload, metric) = (
        string(claim, "workload", file),
        string(claim, "metric", file),
    );
    assert!(
        matches!(string(claim, "better", file), "lower" | "higher"),
        "{file}: `better` must be lower or higher"
    );

    let commits = field(&ledger, "commits", file);
    let parent = string(commits, "parent", file);
    assert!(
        parent.len() == 40 && parent.bytes().all(|b| b.is_ascii_hexdigit()),
        "{file}: parent `{parent}` is not a full commit id"
    );
    assert!(!string(commits, "change", file).is_empty());

    // A backfilled ledger is checked for what it carries.
    let checked = |key: &str| !backfilled || ledger.field(key).is_some();
    if checked("host") {
        let host = field(&ledger, "host", file);
        assert!(number(field(host, "nproc", file)).is_some_and(|n| n >= 1.0));
        assert!(!string(host, "cpu", file).is_empty());
        assert!(
            matches!(field(host, "avx512f", file), Json::Bool(_)),
            "{file}: `avx512f` is not a boolean"
        );
    }
    if checked("seed") {
        assert!(number(field(&ledger, "seed", file)).is_some());
    }
    if checked("seconds") {
        assert!(number(field(&ledger, "seconds", file)).is_some_and(|s| s > 0.0));
    }
    if !backfilled {
        check_runs(&ledger, workload, metric, file);
    }

    let medians = field(&ledger, "medians", file);
    let claimed = check_sides(field(medians, workload, file), file);
    assert!(
        claimed.iter().any(|m| m == metric),
        "{file}: the medians lack the claimed metric `{metric}`"
    );
    for (name, sides) in medians.fields().expect("medians object") {
        assert!(!check_sides(sides, file).is_empty(), "{file}: `{name}`");
    }
}

/// The raw `runs`: every pair's two sides carry the same metrics, and the
/// claimed workload has `--trace 0` pairs with the claimed metric.
fn check_runs(ledger: &Json, workload: &str, metric: &str, file: &str) {
    let Json::Arr(runs) = field(ledger, "runs", file) else {
        panic!("{file}: `runs` is not a list");
    };
    assert!(!runs.is_empty(), "{file}: no runs");
    let mut claimed_pairs = 0;
    for run in runs {
        let name = string(run, "workload", file);
        let trace = number(field(run, "trace", file));
        assert!(matches!(trace, Some(t) if t == 0.0 || t == 1.0));
        let Json::Arr(pairs) = field(run, "pairs", file) else {
            panic!("{file}: `{name}` pairs are not a list");
        };
        assert!(!pairs.is_empty(), "{file}: `{name}` has no pairs");
        for pair in pairs {
            let metrics = check_sides(pair, file);
            if name == workload && trace == Some(0.0) {
                assert!(metrics.iter().any(|m| m == metric));
                claimed_pairs += 1;
            }
        }
    }
    assert!(
        claimed_pairs > 0,
        "{file}: no `--trace 0` pairs for the claimed workload"
    );
}

#[test]
fn every_bench_ledger_parses_and_carries_its_evidence() {
    let files = ledger_files();
    assert!(!files.is_empty(), "no BENCH_*.json at the repository root");
    for path in files {
        let file = path.display().to_string();
        let text = std::fs::read_to_string(&path).expect("read ledger");
        check_ledger(&text, &file);
    }
}

#[test]
fn a_backfilled_ledger_needs_no_runs_but_its_claimed_median() {
    let ledger = |metric: &str| {
        format!(
            r#"{{"source": "CHANGES.md",
            "claim": {{"workload": "fig7", "metric": "wall_s", "better": "lower"}},
            "commits": {{"parent": "{parent}", "change": "{parent}"}},
            "medians": {{"fig7": {{"parent": {{"{metric}": 2.0}}, "change": {{"{metric}": 1.0}}}}}}}}"#,
            parent = "0".repeat(40)
        )
    };
    check_ledger(&ledger("wall_s"), "inline");
    let missing = ledger("work_per_s");
    assert!(std::panic::catch_unwind(|| check_ledger(&missing, "inline")).is_err());
    let unmarked = ledger("wall_s").replace(r#""source": "CHANGES.md","#, "");
    assert!(std::panic::catch_unwind(|| check_ledger(&unmarked, "inline")).is_err());
}

#[test]
fn a_ledger_without_its_parent_commit_is_rejected() {
    let ledger = r#"{"claim": {"workload": "fig7", "metric": "wall_s", "better": "lower"},
        "commits": {"change": "x"}}"#;
    let result = std::panic::catch_unwind(|| check_ledger(ledger, "inline"));
    assert!(result.is_err());
}
