//! Command line of the `ledger` binaries.

use crate::workload::{RunOptions, Timed, Workload, DEFAULT_PASSES, MIN_PASSES};
use std::path::PathBuf;

pub const USAGE: &str = "\
usage: ledger [--seed N] [--workload NAME]... [--passes N | --seconds S] [--trace 0|1]
       ledger --compare A.json B.json

  --seed N        seed of every generator (default 42)
  --workload NAME run only this workload (repeatable; default: all five)
  --passes N      timed passes per workload, N >= 3 (default 5; campaign_tight
                  always runs one)
  --seconds S     fill S seconds with timed passes instead (what the
                  acceptance driver of BENCHMARK.json passes)
  --trace 1       traced run: spans, counters, direct loops and ablations;
                  the same as running the ledger_traced binary, which must be
                  built next to this one (what the acceptance driver passes)
  --compare A B   compare two result files; exit 1 if B is worse than A by
                  more than a metric's bound

results go to benchmark/target/ledger-<seed>[-traced].json";

/// What the process was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run workloads, each in a child process, and report.
    Run {
        workloads: Vec<Workload>,
        options: RunOptions,
    },
    /// Run one workload in this process and print its result (internal:
    /// what the driver spawns).
    Child {
        workload: Workload,
        options: RunOptions,
    },
    Compare {
        reference: PathBuf,
        candidate: PathBuf,
    },
    Help,
}

/// Parse the arguments after the program name. `traced_binary` is true in
/// `ledger_traced`, where tracing is always on.
pub fn parse(args: &[String], traced_binary: bool) -> Result<Command, String> {
    let mut options = RunOptions {
        seed: 42,
        timed: Timed::Passes(DEFAULT_PASSES),
        days: None,
        traced: traced_binary,
    };
    let mut workloads = Vec::new();
    let mut child = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--child" => child = true,
            "--compare" => {
                return Ok(Command::Compare {
                    reference: PathBuf::from(value("two files")?),
                    candidate: PathBuf::from(value("two files")?),
                })
            }
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                options.timed = Timed::Seconds(
                    value("a number")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--passes" => {
                options.timed = Timed::Passes(
                    value("a number")?
                        .parse()
                        .ok()
                        .filter(|p| *p >= MIN_PASSES)
                        .ok_or(format!("--passes needs a whole number >= {MIN_PASSES}"))?,
                )
            }
            "--trace" => match value("0 or 1")? {
                "0" => {}
                "1" => options.traced = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--workload" => {
                let name = value("a workload name")?;
                workloads.push(Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if child {
        return match workloads.as_slice() {
            [workload] => Ok(Command::Child {
                workload: *workload,
                options,
            }),
            _ => Err("--child runs exactly one --workload".to_string()),
        };
    }
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    Ok(Command::Run { workloads, options })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &str) -> Result<Command, String> {
        let args: Vec<String> = words.split_whitespace().map(str::to_string).collect();
        parse(&args, false)
    }

    #[test]
    fn the_acceptance_drivers_invocation_parses() {
        let command = parse_words("--workload serve_tcp --seed 7 --seconds 12 --trace 1").unwrap();
        match command {
            Command::Run { workloads, options } => {
                assert_eq!(workloads, vec![Workload::ServeTcp]);
                assert_eq!(options.seed, 7);
                assert_eq!(options.timed, Timed::Seconds(12.0));
                assert!(options.traced);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn defaults_run_everything_untraced_at_seed_42_for_five_passes() {
        match parse_words("").unwrap() {
            Command::Run { workloads, options } => {
                assert_eq!(workloads.len(), Workload::ALL.len());
                assert_eq!((options.seed, options.traced), (42, false));
                assert_eq!(options.timed, Timed::Passes(5));
                assert_eq!(options.days, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            "--passes 2",
            "--seconds 0",
            "--seconds nan",
            "--workload nope",
            "--trace 2",
            "--seed",
            "--frobnicate",
            "--child",
            "--days 1",
            "--out x.json",
        ] {
            assert!(parse_words(bad).is_err(), "{bad}");
        }
        assert!(matches!(
            parse_words("--compare a.json b.json").unwrap(),
            Command::Compare { .. }
        ));
    }
}
