//! Runs every experiment in sequence (the full paper reproduction) and
//! writes the machine-readable `BENCH_figNN.json` artifact for the
//! experiment that has one (Fig. 14).
//!
//! Before anything runs, every scenario spec the sweep will load is
//! re-validated; a malformed spec fails the whole suite immediately with
//! the offending `file:line` instead of dying mid-sweep after the earlier
//! figures have already burned their runtime.
//!
//! `WATERWISE_DAYS` / `WATERWISE_SEED` rescale the campaigns; see the crate
//! docs of `waterwise-bench`.

use waterwise_bench::experiments as ex;

fn main() {
    // Fail fast on the first bad spec, before any campaign starts.
    if let Err(located) = ex::validate_scenarios(&ex::SCENARIO_NAMES) {
        eprintln!("invalid scenario spec: {located}");
        std::process::exit(2);
    }
    let load = |name: &str| {
        ex::load_scenario(name).unwrap_or_else(|err| {
            eprintln!(
                "invalid scenario spec: {}",
                err.located(ex::scenario_spec_path(name).display())
            );
            std::process::exit(2);
        })
    };

    let scale = ex::ExperimentScale::from_env();
    eprintln!("running the full WaterWise experiment suite at scale {scale:?}");
    ex::print_tables(&ex::fig01_energy_sources());
    ex::print_tables(&ex::fig02_regional_factors(scale));
    ex::print_tables(&ex::fig03_greedy_opportunity(scale));
    ex::print_tables(&ex::fig05_waterwise_google(&load("fig05")));
    ex::print_tables(&ex::fig06_wri_dataset(scale));
    ex::print_tables(&ex::fig07_ecovisor(scale));
    ex::print_tables(&ex::fig08_weight_sensitivity(&load("fig08")));
    ex::print_tables(&ex::fig09_alibaba(scale));
    ex::print_tables(&ex::fig10_loadbalancers(scale));
    ex::print_tables(&ex::fig11_utilization(scale));
    ex::print_tables(&ex::fig12_region_availability(scale));
    ex::print_tables(&ex::fig13_overhead(scale));
    let fig14 = ex::fig14_warmstart(&load("fig14"));
    ex::print_tables(&fig14);
    ex::save_json("fig14", &fig14);
    ex::print_tables(&ex::table2_service_time(scale));
    ex::print_tables(&ex::table3_comm_overhead(scale));
    ex::print_tables(&ex::sens_perturbation(scale));
    ex::print_tables(&ex::sens_request_rate(scale));
}
