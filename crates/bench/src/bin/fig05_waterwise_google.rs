//! Regenerates Fig. 5 of the WaterWise paper. See the crate docs for scaling.
//!
//! The workload is declarative: `scenarios/fig05.spec` by default, or any
//! spec file named via `--scenario <path>` / `WATERWISE_SCENARIO`.

fn main() {
    let scenario = waterwise_bench::experiments::scenario_or_exit("fig05");
    waterwise_bench::experiments::print_tables(
        &waterwise_bench::experiments::fig05_waterwise_google(&scenario),
    );
}
