//! Durable warm state across a real process boundary (Fig. 19 of this
//! reproduction; not a figure of the paper).
//!
//! The parent process runs the scenario sweep cold and persists the
//! solution-cache snapshot; it then re-executes *itself* as a child
//! process (`WATERWISE_FIG19_CHILD=<snapshot>`) whose only shared state
//! with the parent is that snapshot file. The child warm-loads the cache,
//! re-runs the identical sweep, and reports back over stdout as a single
//! `fig19-run` line. The parent asserts the two halves of the acceptance
//! contract — the resumed schedule digest is byte-identical to the cold
//! one, and ≥90% of the resumed sweep's cache lookups are exact hits —
//! then prints the comparison and writes `BENCH_fig19.json`.
//!
//! The workload is declarative: `scenarios/server_resume.spec` by
//! default, or any spec file named via `WATERWISE_SCENARIO` — run on 40
//! servers a region whatever the spec says, and without warm starts, so that
//! every round is a model the cache can carry (by default nearly every round
//! is decided without one; see `FIG19_SERVERS_PER_REGION`).

use std::path::PathBuf;
use waterwise_bench::experiments as ex;

fn load_scenario(spec_path: &std::path::Path) -> waterwise_core::Scenario {
    match waterwise_core::load_spec(spec_path) {
        Ok(scenario) => ex::apply_env_scale(scenario),
        Err(err) => {
            eprintln!(
                "invalid scenario spec: {}",
                err.located(spec_path.display())
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let spec_path = std::env::var_os("WATERWISE_SCENARIO")
        .map(PathBuf::from)
        .unwrap_or_else(|| ex::scenario_spec_path("server_resume"));
    let scenario = load_scenario(&spec_path);

    // Child mode: warm-load the snapshot, re-sweep, report one line.
    if let Some(cache_path) = std::env::var_os("WATERWISE_FIG19_CHILD").map(PathBuf::from) {
        let resumed = ex::fig19_resumed(&scenario, &cache_path);
        println!("{}", resumed.encode());
        return;
    }

    let dir = std::env::temp_dir().join(format!("ww-fig19-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create fig19 scratch dir");
    let cache_path = dir.join("cache.snapshot");
    let _ = std::fs::remove_file(&cache_path);

    let cold = ex::fig19_cold(&scenario, &cache_path);
    eprintln!("{}", cold.encode());

    // The fresh-process resume: spawn ourselves in child mode. The child
    // inherits the environment (scale knobs included) plus the explicit
    // scenario path, so both sweeps run the byte-identical workload.
    let exe = std::env::current_exe().expect("current executable path");
    let output = std::process::Command::new(exe)
        .env("WATERWISE_FIG19_CHILD", &cache_path)
        .env("WATERWISE_SCENARIO", &spec_path)
        .output()
        .expect("spawn fig19 child process");
    if !output.status.success() {
        eprintln!(
            "fig19 child process failed ({}):\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        std::process::exit(1);
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let resumed = stdout
        .lines()
        .find_map(ex::Fig19Run::parse)
        .unwrap_or_else(|| {
            eprintln!("fig19 child produced no fig19-run line:\n{stdout}");
            std::process::exit(1);
        });

    let tables = ex::fig19_tables(&cold, &resumed);
    ex::print_tables(&tables);
    ex::save_json("fig19", &tables);
    let _ = std::fs::remove_dir_all(&dir);
}
