//! The committed perf ledger of the WaterWise reproduction.
//!
//! Five workloads, nine end-to-end metrics, and a per-layer budget measured
//! from outside the product crates — see `README.md` for the tables and
//! `BENCHMARK.json` at the repository root for the acceptance contract.
//!
//! The crate only calls public API that `ROADMAP.md` says survives the
//! planned collapse of the serving and engine surface: `CampaignConfig`,
//! `Campaign::run_matrix`, `Simulator::run`, the `Scheduler` and
//! `ConditionsProvider` traits, `WaterWiseScheduler::stats()`,
//! `ClusterHost`, `TcpClusterServer`, `HostPersistence`, `wire::*`,
//! `Journal` and `JournalWriter`. It reads no `WATERWISE_*` variable.

pub mod campaign;
pub mod cli;
pub mod compare;
pub mod driver;
pub mod json;
pub mod measure;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

use cli::Command;

/// Entry point of both binaries. `traced_binary` is true in `ledger_traced`,
/// which installs the counting allocator and always traces.
pub fn main_with(traced_binary: bool) -> std::process::ExitCode {
    use std::process::ExitCode;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match cli::parse(&args, traced_binary) {
        Ok(Command::Help) => {
            println!("{}", cli::USAGE);
            Ok(true)
        }
        Ok(Command::Child { workload, options }) => {
            // The result goes to the driver as the last line of stdout; the
            // driver, not the child, turns a failed check into an exit code.
            println!(
                "{}",
                driver::run_child(workload, &options).to_json().encode()
            );
            Ok(true)
        }
        Ok(Command::Run { workloads, options }) => driver::run(&workloads, &options),
        Ok(Command::Compare {
            reference,
            candidate,
        }) => compare::run(&reference, &candidate),
        Err(problem) => Err(format!("{problem}\n{}", cli::USAGE)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(problem) => {
            eprintln!("ledger: {problem}");
            ExitCode::from(2)
        }
    }
}
