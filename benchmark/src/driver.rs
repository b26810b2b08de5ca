//! The driver: one child process per workload (so `peak_rss_mb` is that
//! workload's own high-water mark and a child that dies fails only its
//! workload), the printed table, the result file, and the one-line result
//! the acceptance driver reads.

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{samples_beyond, tail_is_supported};
use crate::trace::{encode_spans, Tracer};
use crate::workload::{RunOptions, Timed, Workload, WorkloadResult};
use crate::{campaign, serve};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

/// Address space a workload's child may map. A regression past the
/// `campaign_tight` cliff (4 to 4.8 GiB today) then fails fast instead of
/// swapping the box.
const CHILD_ADDRESS_SPACE: u64 = 8 << 30;

/// The benchmark's own directory: where it was built, or `./benchmark`.
pub fn benchmark_dir() -> PathBuf {
    let built = Path::new(env!("CARGO_MANIFEST_DIR"));
    if built.is_dir() {
        built.to_path_buf()
    } else {
        PathBuf::from("benchmark")
    }
}

/// Where journals, span files and result files go.
pub fn scratch_dir() -> PathBuf {
    benchmark_dir().join("target")
}

#[cfg(target_os = "linux")]
fn limit_address_space(bytes: u64) {
    #[repr(C)]
    struct Rlimit {
        current: u64,
        maximum: u64,
    }
    const RLIMIT_AS: i32 = 9;
    extern "C" {
        fn setrlimit(resource: i32, limit: *const Rlimit) -> i32;
    }
    let limit = Rlimit {
        current: bytes,
        maximum: bytes,
    };
    // SAFETY: `setrlimit(2)` reads one `struct rlimit` — two `rlim_t`, which
    // are 64-bit on every 64-bit Linux target — through a pointer that is
    // valid for the duration of the call; it keeps no reference to it.
    let status = unsafe { setrlimit(RLIMIT_AS, &limit) };
    if status != 0 {
        eprintln!("ledger: could not limit the address space; running without");
    }
}

#[cfg(not(target_os = "linux"))]
fn limit_address_space(_bytes: u64) {}

/// Run one workload in this process: what `--child` does.
pub fn run_child(workload: Workload, options: &RunOptions) -> WorkloadResult {
    limit_address_space(CHILD_ADDRESS_SPACE);
    let tracer = Arc::new(Tracer::new());
    let scratch = scratch_dir();
    let outcome = match workload {
        Workload::ServeTcp => serve::run(options, &tracer, &scratch),
        _ => campaign::run(workload, options, &tracer),
    };
    if options.traced {
        let path = scratch.join(format!("trace-{}.ndjson", workload.name()));
        let written = std::fs::create_dir_all(&scratch)
            .and_then(|_| std::fs::write(&path, encode_spans(&tracer.spans())));
        if let Err(e) = written {
            eprintln!("ledger: could not write {}: {e}", path.display());
        }
    }
    outcome.unwrap_or_else(|problem| WorkloadResult::dead(workload.name(), problem))
}

/// Spawn `binary --child` for one workload and read its result back. A
/// child that dies — signal, out of memory, no result line — is that
/// workload's failure, not the driver's.
fn spawn_child(binary: &Path, workload: Workload, options: &RunOptions) -> WorkloadResult {
    let mut command = Command::new(binary);
    command
        .arg("--child")
        .args(["--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()]);
    match options.timed {
        Timed::Passes(passes) => command.args(["--passes", &passes.to_string()]),
        Timed::Seconds(seconds) => command.args(["--seconds", &seconds.to_string()]),
    };
    let output = match command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
    {
        Ok(output) => output,
        Err(e) => {
            return WorkloadResult::dead(
                workload.name(),
                format!("could not start {}: {e}", binary.display()),
            )
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .rev()
        .find(|line| !line.trim().is_empty())
        .ok_or_else(|| "no result line".to_string())
        .and_then(Value::parse)
        .and_then(|value| WorkloadResult::from_json(&value));
    match parsed {
        Ok(result) if output.status.success() => result,
        Ok(_) | Err(_) => WorkloadResult::dead(
            workload.name(),
            format!(
                "child died ({}){}",
                output.status,
                parsed.err().map_or(String::new(), |e| format!(": {e}"))
            ),
        ),
    }
}

/// The binary next to this one with the given name.
fn sibling(name: &str) -> Result<PathBuf, String> {
    let own = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = own.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is not built; build both binaries (`cargo build --release --bins`, or run through benchmark/run.sh)",
            path.display()
        ))
    }
}

/// Run one workload in a child of its own: `ledger` for an untraced run,
/// `ledger_traced` — the same driver with the counting allocator installed —
/// for a traced one.
fn run_workload(workload: Workload, options: &RunOptions) -> Result<WorkloadResult, String> {
    let binary = sibling(if options.traced {
        "ledger_traced"
    } else {
        "ledger"
    })?;
    Ok(spawn_child(&binary, workload, options))
}

/// A number with the digits its size deserves.
fn pretty(value: f64) -> String {
    if !value.is_finite() {
        "—".to_string()
    } else if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.0}")
    } else if value.abs() >= 1000.0 {
        format!("{value:.1}")
    } else if value.abs() >= 1.0 {
        format!("{value:.3}")
    } else {
        format!("{value:.5}")
    }
}

fn print_result(result: &WorkloadResult) {
    println!(
        "\n== {} — {} passes, {} jobs attempted, {} failed, schedule {:016x}{}",
        result.workload,
        result.passes,
        result.attempted,
        result.failed,
        result.digest,
        if result.correct { "" } else { " — INCORRECT" }
    );
    for problem in &result.problems {
        println!("   problem: {problem}");
    }
    println!(
        "   rounds pooled: {} ({} beyond p99{})",
        result.round_samples,
        samples_beyond(result.round_samples, 99.0),
        if tail_is_supported(result.round_samples, 99.0) {
            ""
        } else {
            " — fewer than 10, read p99 as a maximum"
        }
    );
    for def in &END_TO_END {
        if let Some(s) = result.metric(def.name) {
            println!(
                "   {:<28} {:>14} {:<6} [q1 {} q3 {}, n={}, {} is better]",
                def.name,
                pretty(s.value),
                def.unit,
                pretty(s.q1),
                pretty(s.q3),
                s.n,
                def.better.label()
            );
        }
    }
    for def in &PER_LAYER {
        if let Some(value) = result.layer(def.name) {
            println!("   {:<36} {:>14} {}", def.name, pretty(value), def.unit);
        }
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The one-line result the acceptance driver reads: the declared end-to-end
/// metrics of an untraced run, the declared per-layer metrics of a traced
/// one. With several workloads the names are prefixed `<workload>.`.
pub fn contract_line(results: &[WorkloadResult], traced: bool) -> Value {
    let mut metrics = Vec::new();
    for result in results {
        let prefix = if results.len() == 1 {
            String::new()
        } else {
            format!("{}.", result.workload)
        };
        let mut push = |name: &str, unit: &str, value: f64| {
            metrics.push((
                format!("{prefix}{name}"),
                Value::object([
                    ("value", Value::Number(value)),
                    ("unit", Value::String(unit.to_string())),
                ]),
            ));
        };
        if traced {
            for def in &PER_LAYER {
                // A layer that is not on this workload's path reads 0.
                let value = result
                    .layer(def.name)
                    .or_else(|| result.metric(def.name).map(|s| s.value))
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                push(def.name, def.unit, value);
            }
        } else {
            // The end-to-end metrics a share of the median can bound; the
            // others are declared per-layer.
            for def in END_TO_END.iter().filter(|m| m.across_seeds.is_some()) {
                let value = result.metric(def.name).map_or(f64::NAN, |s| s.value);
                push(def.name, def.unit, value);
            }
        }
    }
    Value::object([
        ("correct", Value::Bool(results.iter().all(|r| r.correct))),
        (
            "attempted",
            Value::Number(results.iter().map(|r| r.attempted).sum::<u64>().max(1) as f64),
        ),
        (
            "failed",
            Value::Number(results.iter().map(|r| r.failed).sum::<u64>() as f64),
        ),
        ("metrics", Value::Object(metrics)),
    ])
}

/// The result file's content: one object per workload, metrics keyed by
/// their declared names.
pub fn document(results: &[WorkloadResult], options: &RunOptions) -> Value {
    let (passes, seconds) = match options.timed {
        Timed::Passes(passes) => (Value::Number(passes as f64), Value::Null),
        Timed::Seconds(seconds) => (Value::Null, Value::Number(seconds)),
    };
    Value::object([
        ("schema", Value::String("waterwise-ledger/1".to_string())),
        ("seed", Value::Number(options.seed as f64)),
        ("traced", Value::Bool(options.traced)),
        ("passes", passes),
        ("seconds", seconds),
        (
            "nproc",
            Value::Number(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("rustc", Value::String(rustc_version())),
        (
            "workloads",
            Value::object(results.iter().map(|r| (r.workload.clone(), r.to_json()))),
        ),
    ])
}

/// Run the workloads, print the table, write the result file, print the
/// contract line last. Returns whether every workload was correct.
pub fn run(workloads: &[Workload], options: &RunOptions) -> Result<bool, String> {
    let mut results = Vec::new();
    for &workload in workloads {
        eprintln!(
            "ledger: {} (seed {}, {})",
            workload.name(),
            options.seed,
            if options.traced { "traced" } else { "untraced" }
        );
        let result = run_workload(workload, options)?;
        print_result(&result);
        results.push(result);
    }

    let dir = scratch_dir();
    let path = dir.join(format!(
        "ledger-{}{}.json",
        options.seed,
        if options.traced { "-traced" } else { "" }
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(&path, document(&results, options).encode() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    println!("{}", contract_line(&results, options.traced).encode());
    Ok(results.iter().all(|r| r.correct))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options() -> RunOptions {
        RunOptions {
            seed: 1,
            timed: Timed::Seconds(1.0),
            days: None,
            traced: false,
        }
    }

    #[test]
    fn a_child_that_dies_is_its_workloads_failure_not_the_drivers() {
        // `false` exits 1 without a result line, as a killed child would.
        let dead = spawn_child(Path::new("/bin/false"), Workload::ServeTcp, &options());
        assert!(!dead.correct);
        assert_eq!(dead.metric("failed_share").unwrap().value, 1.0);
        assert_eq!((dead.attempted, dead.failed), (1, 1));
        assert!(
            dead.problems[0].contains("child died"),
            "{:?}",
            dead.problems
        );
        let missing = spawn_child(Path::new("/no/such/binary"), Workload::ServeTcp, &options());
        assert!(missing.problems[0].contains("could not start"));

        let line = contract_line(&[dead], false);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn the_contract_line_carries_the_declared_names_for_either_kind_of_run() {
        let mut result = WorkloadResult::dead("campaign_borg", "x".into());
        result.layers.push(("milp.pivots".to_string(), 9.0));
        let names = |traced: bool| -> Vec<String> {
            contract_line(std::slice::from_ref(&result), traced)
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(name, _)| name.clone())
                .collect()
        };
        let untraced = names(false);
        assert_eq!(untraced.len(), END_TO_END.len() - 5);
        assert!(!untraced.contains(&"failed_share".to_string()));
        let traced = names(true);
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(traced.contains(&"failed_share".to_string()));
        // Two workloads: names are prefixed.
        let both = contract_line(&[result.clone(), result.clone()], false);
        assert!(both
            .get("metrics")
            .unwrap()
            .get("campaign_borg.jobs_per_s")
            .is_some());
    }
}
