//! Regenerates Fig. 1 of the WaterWise paper. See the crate docs for scaling.

fn main() {
    waterwise_bench::experiments::print_tables(
        &waterwise_bench::experiments::fig01_energy_sources(),
    );
}
