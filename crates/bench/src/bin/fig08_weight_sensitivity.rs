//! Regenerates Fig. 8 of the WaterWise paper. See the crate docs for scaling.
//!
//! The workload is declarative: `scenarios/fig08.spec` by default, or any
//! spec file named via `--scenario <path>` / `WATERWISE_SCENARIO`.

fn main() {
    let scenario = waterwise_bench::experiments::scenario_or_exit("fig08");
    waterwise_bench::experiments::print_tables(
        &waterwise_bench::experiments::fig08_weight_sensitivity(&scenario),
    );
}
