//! The benchmark's own check: `--smoke` runs every workload, untraced
//! and traced, with full answer checks, and each run prints exactly the
//! metrics `BENCHMARK.json` names for its mode.

use std::path::Path;
use std::process::Command;

/// The `name`s listed in one array of `BENCHMARK.json`.
fn names(spec: &str, array: &str) -> Vec<String> {
    let start = spec
        .find(&format!("\"{array}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {array}"));
    let body = &spec[start..];
    let body = &body[body.find('[').expect("an array")..];
    let body = &body[..body.find(']').expect("a closed array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("a closed name")].to_string())
        .collect()
}

/// Metric names of one result line, in order.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\": {").expect("a metrics object") + 12..];
    // every chunk but the last ends with the name of the next metric
    let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| {
            let end = chunk.rfind("\": ").expect("a quoted name");
            let start = chunk[..end].rfind('"').expect("a quoted name") + 1;
            chunk[start..end].to_string()
        })
        .collect()
}

#[test]
fn smoke_runs_every_workload_with_the_named_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let mut end_to_end = names(&spec, "end_to_end");
    let mut per_layer = names(&spec, "per_layer");
    end_to_end.sort();
    per_layer.sort();

    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .arg("--smoke")
        .current_dir(&root)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let lines: Vec<&str> = stdout.lines().collect();
    let mut runs = 0;
    for (i, line) in lines.iter().enumerate() {
        let Some(run) = line.strip_prefix("# smoke ") else {
            continue;
        };
        let result = lines[i + 1];
        assert!(result.starts_with("{\"correct\": true"), "{run}: {result}");
        let mut got = metric_names(result);
        got.sort();
        let want = if run.ends_with("trace=1") {
            &per_layer
        } else {
            &end_to_end
        };
        assert_eq!(
            &got, want,
            "{run} printed other metrics than BENCHMARK.json names"
        );
        runs += 1;
    }
    assert_eq!(runs, 6, "three workloads, untraced and traced");
    let last = lines.last().expect("a summary line");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
}
