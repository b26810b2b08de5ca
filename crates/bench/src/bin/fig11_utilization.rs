//! Regenerates Fig. 11 of the WaterWise paper. See the crate docs for scaling.

fn main() {
    let scale = waterwise_bench::ExperimentScale::from_env();
    waterwise_bench::experiments::print_tables(&waterwise_bench::experiments::fig11_utilization(
        scale,
    ));
}
