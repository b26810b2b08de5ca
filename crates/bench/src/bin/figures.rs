//! Regenerates the WaterWise paper's evaluation, one row of
//! `waterwise_bench::FIGURES` at a time:
//!
//! ```text
//! figures fig09                      # one figure
//! figures fig05 fig08 table2         # several, in the order named
//! figures all                        # every figure, in table order
//! figures fig05 --scenario <path>    # a figure that has a spec, on another spec
//! ```
//!
//! Each figure prints its tables on stdout. `WATERWISE_DAYS` /
//! `WATERWISE_SEED` rescale every figure (see the crate docs).
//! `--scenario <path>` or `WATERWISE_SCENARIO` swaps the spec of a figure
//! that has one (`fig05`, `fig08`), and applies only when that figure is
//! the one figure named. Every startup error — an unknown id, a spec with no
//! figure to apply to, a refused override or a spec that does not load —
//! exits 2 before any campaign runs.

use waterwise_bench::experiments::{print_tables, SCALE_OVERRIDES};
use waterwise_bench::figures::{figure, Figure, DAYS, FIGURES, SEED};
use waterwise_core::scenario::{load_scenario, read_vars, EnvVar, StartupError};
use waterwise_core::Scenario;

/// `WATERWISE_SCENARIO`, read here only to refuse it where it cannot apply;
/// where it can, [`load_scenario`] reads it.
const SCENARIO_VAR: &[EnvVar<bool>] = &[EnvVar {
    name: "WATERWISE_SCENARIO",
    grammar: "path",
    doc: "The spec of the one figure named, in place of its committed spec.",
    set: |named, _| {
        *named = true;
        Ok(())
    },
}];

fn main() {
    let (figures, flag) = parse_args();
    let mut var = false;
    read_vars(SCENARIO_VAR, &mut var).unwrap_or_else(|err| err.exit());
    let one_spec = matches!(figures.as_slice(), [figure] if figure.spec);
    if !one_spec && (flag || var) {
        let named = if flag {
            "--scenario"
        } else {
            "WATERWISE_SCENARIO"
        };
        let specs: Vec<&str> = FIGURES.iter().filter(|f| f.spec).map(|f| f.id).collect();
        refuse(&format!(
            "{named} swaps the spec of one figure: name exactly one of {}",
            specs.join(", ")
        ));
    }
    // Resolve every scenario before the first campaign runs.
    let runs: Vec<(&Figure, Scenario)> = figures
        .into_iter()
        .map(|figure| (figure, scenario(figure)))
        .collect();
    for (figure, scenario) in runs {
        print_tables(&(figure.run)(&scenario));
    }
}

/// The figures the command line names, and whether it names a spec.
fn parse_args() -> (Vec<&'static Figure>, bool) {
    let mut figures = Vec::new();
    let mut flag = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--scenario" {
            args.next()
                .ok_or(StartupError::ScenarioFlagWithoutPath)
                .unwrap_or_else(|err| err.exit());
            flag = true;
        } else if arg.starts_with("--scenario=") {
            flag = true;
        } else if arg == "all" {
            figures.extend(FIGURES);
        } else {
            figures
                .push(figure(&arg).unwrap_or_else(|| refuse(&format!("unknown figure `{arg}`"))));
        }
    }
    if figures.is_empty() {
        refuse("name a figure, or `all`");
    }
    (figures, flag)
}

/// The scenario `figure` runs, scale overrides applied: its spec (the one
/// `--scenario` or `WATERWISE_SCENARIO` names, once `main` has refused them
/// where they cannot apply, else its committed spec), or the paper's default
/// scenario.
fn scenario(figure: &Figure) -> Scenario {
    let scenario = if figure.spec {
        load_scenario(figure.id, &SCALE_OVERRIDES)
    } else {
        let mut scenario = Scenario::paper_default(figure.id, DAYS, SEED);
        scenario.apply_env(&SCALE_OVERRIDES).map(|()| scenario)
    };
    scenario.unwrap_or_else(|err| err.exit())
}

/// Print `message` and the figure ids, and exit with the operator-error
/// status 2.
fn refuse(message: &str) -> ! {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    eprintln!(
        "{message}\nusage: figures <id>... | all [--scenario <path>]\nfigures: {}",
        ids.join(", ")
    );
    std::process::exit(2);
}
