//! Smoke test of the benchmark at tiny sizes: every metric `BENCHMARK.json`
//! names is printed with its unit and direction, every workload verifies
//! with `error_frac` 0, and the traced run's layer self times plus the
//! unattributed remainder add up to its wall time.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["soak-mixed", "offload-large", "host-inplace"];

/// (name, unit, better) of each metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let items = v
        .get(list)
        .and_then(serde::Value::as_array)
        .expect("metric list");
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(serde::Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

struct Run {
    /// name -> (value, unit, better) from the printed table.
    table: BTreeMap<String, (f64, String, String)>,
    last_line: String,
    faults: Vec<String>,
}

fn run(workload: &str, trace: bool) -> Run {
    let dir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.5",
            "--size",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let mut table = BTreeMap::new();
    let mut faults = Vec::new();
    for line in stdout.lines() {
        if let Some(f) = line.strip_prefix("# FAULT: ") {
            faults.push(f.to_string());
        }
        if line.starts_with('#') || line.starts_with('{') {
            continue;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cols.len(), 4, "table line {line:?}");
        let value: f64 = cols[1].parse().expect("numeric value");
        table.insert(
            cols[0].to_string(),
            (value, cols[2].to_string(), cols[3].to_string()),
        );
    }
    let last_line = stdout.lines().last().expect("output").to_string();
    Run {
        table,
        last_line,
        faults,
    }
}

fn check_listed(r: &Run, list: &[(String, String, String)], workload: &str) {
    assert_eq!(
        r.table.len(),
        list.len(),
        "{workload}: printed metrics differ from BENCHMARK.json"
    );
    for (name, unit, better) in list {
        let (_, u, b) = r
            .table
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!((u, b), (unit, better), "{workload}: {name} unit/direction");
        assert!(
            r.last_line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload}: {name} not in the JSON line"
        );
    }
    let v = serde_json::from_str(&r.last_line).expect("last line is JSON");
    assert_eq!(
        v.get("correct").and_then(serde::Value::as_bool),
        Some(true),
        "{workload}: {:?}",
        r.faults
    );
    assert_eq!(
        v.get("failed").and_then(serde::Value::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        v.get("attempted")
            .and_then(serde::Value::as_u64)
            .is_some_and(|n| n > 0),
        "{workload}"
    );
    assert!(r.faults.is_empty(), "{workload}: {:?}", r.faults);
}

#[test]
fn every_workload_prints_every_metric_and_verifies() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for workload in WORKLOADS {
        let plain = run(workload, false);
        check_listed(&plain, &e2e, workload);
        assert_eq!(plain.table["verified_frac"].0, 1.0, "{workload}");

        let traced = run(workload, true);
        check_listed(&traced, &layers, workload);
        assert_eq!(traced.table["error_frac"].0, 0.0, "{workload}");
        let wall = traced.table["trace.wall_s"].0;
        let attributed: f64 = traced
            .table
            .iter()
            .filter(|(n, _)| n.starts_with("self."))
            .map(|(_, (v, _, _))| v)
            .sum::<f64>()
            + traced.table["trace.unattributed_s"].0;
        assert!(
            (attributed - wall).abs() <= 1e-6 * wall.max(1.0),
            "{workload}: {attributed} vs {wall}"
        );
        assert!(attributed > 0.0);
    }
}
