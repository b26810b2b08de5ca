//! End-to-end tests of the ledger on smoke-sized workloads, and the
//! consistency of `BENCHMARK.json` with what the ledger reports.
//!
//! The smokes run in this process through the library (days, and nothing
//! else, differ from a real child), with the counting allocator of
//! `ledger_traced` installed so a traced smoke counts allocations too.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, MutexGuard};
use waterwise_benchmark::driver::{contract_line, document, run_child};
use waterwise_benchmark::json::Value;
use waterwise_benchmark::metrics::{Bound, END_TO_END, PER_LAYER};
use waterwise_benchmark::stats::Summary;
use waterwise_benchmark::trace::CountingAlloc;
use waterwise_benchmark::workload::{RunOptions, Timed, Workload, WorkloadResult};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Smokes take turns: allocation counting is process-wide, and span files
/// are named after the workload.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn smoke_options(traced: bool) -> RunOptions {
    RunOptions {
        seed: 42,
        timed: Timed::Passes(3),
        days: Some(0.05),
        traced,
    }
}

/// Run one smoke-sized workload (the caller holds its [`turn`]).
fn smoke(workload: Workload, traced: bool) -> WorkloadResult {
    run_child(workload, &smoke_options(traced))
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn declared(list: &str) -> Vec<String> {
    benchmark_json()
        .get(list)
        .unwrap()
        .elements()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

/// The metric names of a result line, after checking its shape.
fn reported(line: &Value) -> Vec<String> {
    let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    line.get("metrics")
        .unwrap()
        .members()
        .iter()
        .map(|(name, metric)| {
            assert!(metric.get("value").unwrap().as_f64().is_some(), "{name}");
            assert!(metric.get("unit").unwrap().as_str().is_some(), "{name}");
            name.clone()
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_ledger_reports() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strings = |key: &str| -> Vec<String> {
        doc.get(key)
            .unwrap()
            .elements()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);

    // The workloads that are steady from seed to seed, with their reasons.
    let steady: Vec<Workload> = Workload::ALL
        .into_iter()
        .filter(|w| w.steady_across_seeds())
        .collect();
    let workloads = doc.get("workloads").unwrap().elements();
    assert_eq!(workloads.len(), steady.len());
    for (declared, workload) in workloads.iter().zip(steady) {
        assert_eq!(
            declared.get("name").unwrap().as_str(),
            Some(workload.name())
        );
        assert_eq!(declared.get("why").unwrap().as_str(), Some(workload.why()));
    }

    // End to end: every metric of the one bound table that a share of the
    // median can bound, with exactly that share — never tighter than what
    // two runs of one seed are held to, never beyond the contract's quarter.
    let end_to_end = doc.get("end_to_end").unwrap().elements();
    let bounded: Vec<_> = END_TO_END
        .iter()
        .filter_map(|m| m.across_seeds.map(|share| (m, share)))
        .collect();
    assert_eq!(end_to_end.len(), bounded.len());
    for (declared, (def, share)) in end_to_end.iter().zip(bounded) {
        assert_eq!(declared.get("name").unwrap().as_str(), Some(def.name));
        assert_eq!(declared.get("unit").unwrap().as_str(), Some(def.unit));
        assert_eq!(
            declared.get("better").unwrap().as_str(),
            Some(def.better.label())
        );
        assert_eq!(declared.get("bound").unwrap().as_f64(), Some(share));
        assert!(share <= 0.25, "{}: {share}", def.name);
        match def.bound {
            Bound::Relative {
                share: same_seed, ..
            } => assert!(same_seed <= share, "{}", def.name),
            Bound::Absolute(_) => panic!("{} has no relative bound", def.name),
        }
    }
    assert!(declared("end_to_end").contains(&"setup_s".to_string()));

    let per_layer = doc.get("per_layer").unwrap().elements();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (declared, def) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(declared.get("name").unwrap().as_str(), Some(def.name));
        assert_eq!(declared.get("unit").unwrap().as_str(), Some(def.unit));
        assert_eq!(
            declared.get("better").unwrap().as_str(),
            Some(def.better.label())
        );
        assert_eq!(declared.members().len(), 3, "{}", def.name);
    }
}

#[test]
fn every_workload_smokes_clean_and_reports_exactly_the_declared_metrics() {
    let _turn = turn();
    let names = declared("end_to_end");
    let mut results = Vec::new();
    for workload in Workload::ALL {
        let result = smoke(workload, false);
        let line = contract_line(std::slice::from_ref(&result), false);
        assert_eq!(reported(&line), names, "{}", workload.name());
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
        // Three timed passes (one on `campaign_tight`), one digest: the
        // run checks pass against pass, a mismatch would make it incorrect.
        assert!(result.correct, "{:?}", result.problems);
        assert_eq!(
            result.passes,
            if workload == Workload::CampaignTight {
                1
            } else {
                3
            }
        );
        assert_ne!(result.digest, 0);
        assert_eq!(result.metric("failed_share").unwrap().value, 0.0);
        let metrics: Vec<&str> = result.metrics.iter().map(|(n, _)| n.as_str()).collect();
        let nine: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(metrics, nine);
        for def in &END_TO_END {
            let value = result.metric(def.name).unwrap().value;
            assert!(value.is_finite(), "{} {}", workload.name(), def.name);
        }
        assert!(result.metric("jobs_per_s").unwrap().value > 0.0);
        assert!(result.metric("setup_s").unwrap().value > 0.0);
        results.push(result);
    }

    // The result file: schema'd, one object per workload, and it reads back.
    let file = Value::parse(&document(&results, &smoke_options(false)).encode()).unwrap();
    assert_eq!(
        file.get("schema").unwrap().as_str(),
        Some("waterwise-ledger/1")
    );
    assert_eq!(file.get("seed").unwrap().as_f64(), Some(42.0));
    assert_eq!(file.get("passes").unwrap().as_f64(), Some(3.0));
    let records = file.get("workloads").unwrap().members();
    assert_eq!(records.len(), Workload::ALL.len());
    for ((name, record), result) in records.iter().zip(&results) {
        assert_eq!(name, &result.workload);
        assert_eq!(&WorkloadResult::from_json(record).unwrap(), result);
    }
}

#[test]
fn a_traced_run_reports_every_layer_and_its_counts_repeat_exactly() {
    let _turn = turn();
    let names = declared("per_layer");
    let first = smoke(Workload::CampaignPressure, true);
    let line = contract_line(std::slice::from_ref(&first), true);
    assert_eq!(reported(&line), names);
    assert!(first.correct, "{:?}", first.problems);
    assert!(first.layer("trace.overhead_pct").is_some());
    assert!(first.layer("telemetry.lookups").unwrap() > 0.0);
    assert!(first.layer("core.schedule.calls").unwrap() > 0.0);
    assert!(first.layer("alloc.count_per_job").unwrap() > 0.0);
    assert!(first.layer("milp.warm.pivot_ratio").unwrap() > 1.0);

    // Spans: every pass is a root whose own time plus its children's adds
    // up to the pass, by construction of self time.
    let spans = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("target/trace-campaign_pressure.ndjson"),
    )
    .unwrap();
    let spans: Vec<Value> = spans.lines().map(|l| Value::parse(l).unwrap()).collect();
    let number = |span: &Value, key: &str| span.get(key).unwrap().as_f64().unwrap();
    let passes: Vec<&Value> = spans
        .iter()
        .filter(|s| s.get("name").unwrap().as_str() == Some("cluster.pass"))
        .collect();
    assert_eq!(
        passes.len(),
        3,
        "two of the four timed passes and the counting pass"
    );
    for pass in passes {
        let id = number(pass, "id");
        let own: f64 = number(pass, "self_ns")
            + spans
                .iter()
                .filter(|s| number(s, "parent") == id)
                .map(|s| number(s, "self_ns"))
                .sum::<f64>();
        let wall = number(pass, "end_ns") - number(pass, "start_ns");
        assert!((own - wall).abs() <= 0.05 * wall, "{own} vs {wall}");
    }

    let second = smoke(Workload::CampaignPressure, true);
    assert_eq!(first.digest, second.digest);
    for (name, value) in &first.layers {
        let is_count = PER_LAYER
            .iter()
            .any(|l| l.name == name && l.unit == "count");
        if name.starts_with("milp.") && is_count
            || [
                "milp.warm.pivot_ratio",
                "alloc.count_per_job",
                "telemetry.lookups",
            ]
            .contains(&name.as_str())
        {
            assert_eq!(
                Some(*value),
                second.layer(name),
                "{name} must repeat exactly"
            );
        }
    }
}

#[test]
fn campaign_tight_is_where_branch_and_bound_runs() {
    let _turn = turn();
    let tight = smoke(Workload::CampaignTight, true);
    assert!(tight.correct, "{:?}", tight.problems);
    assert_eq!(tight.passes, 2, "one plain pass, one wrapped");
    assert!(tight.layer("milp.dual.restarts").unwrap() > 0.0);
    assert!(tight.layer("alloc.count_per_job").unwrap() > 0.0);
}

#[test]
fn serve_tcp_traced_reports_its_serving_layers() {
    let _turn = turn();
    let result = smoke(Workload::ServeTcp, true);
    assert!(result.correct, "{:?}", result.problems);
    for name in [
        "service.wire.parse_us",
        "service.wire.encode_us",
        "service.journal.append_us",
        "service.journal.syncs",
        "service.admission.submit_us",
        "service.host.inproc_jobs_per_s",
        "service.host.nojournal_jobs_per_s",
        "service.tcp.first_response_ms",
        "cluster.pipeline.speedup",
    ] {
        assert!(result.layer(name).unwrap() > 0.0, "{name}");
    }
    // Journal files are gone once the run is.
    let left_over: Vec<PathBuf> = std::fs::read_dir(waterwise_benchmark::driver::scratch_dir())
        .unwrap()
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|path| {
            path.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("journal-"))
        })
        .collect();
    assert!(left_over.is_empty(), "{left_over:?}");
}

#[test]
fn compare_flags_a_fifteen_percent_drop_and_passes_a_five_percent_one() {
    let base = {
        let _turn = turn();
        smoke(Workload::CampaignAlibaba, false)
    };
    let document = |scale: f64| {
        let mut result = base.clone();
        for (name, summary) in &mut result.metrics {
            // Quartiles a full-size run has; a three-pass smoke is noisier.
            let value = summary.value * if name == "jobs_per_s" { scale } else { 1.0 };
            *summary = Summary {
                value,
                q1: value * 0.99,
                q3: value * 1.01,
                n: 5,
            };
        }
        Value::object([(
            "workloads",
            Value::object([(result.workload.clone(), result.to_json())]),
        )])
        .encode()
    };
    let write = |name: &str, scale: f64| {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, document(scale)).unwrap();
        path
    };
    let reference = write("compare-a.json", 1.0);
    let compare = |candidate: &Path| {
        let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
            .arg("--compare")
            .arg(&reference)
            .arg(candidate)
            .output()
            .unwrap();
        (
            output.status.code(),
            String::from_utf8(output.stdout).unwrap(),
        )
    };
    let (code, table) = compare(&write("compare-drop15.json", 0.85));
    assert_eq!(code, Some(1), "{table}");
    assert!(table.contains("REGRESSED"), "{table}");
    let (code, table) = compare(&write("compare-drop5.json", 0.95));
    assert_eq!(code, Some(0), "{table}");
    assert!(!table.contains("REGRESSED"), "{table}");
    // One row per workload × metric, both medians and the ratio on each.
    assert_eq!(
        table
            .lines()
            .filter(|l| l.starts_with("campaign_alibaba"))
            .count(),
        END_TO_END.len()
    );
    assert!(table.contains("0.9500"), "{table}");
}
