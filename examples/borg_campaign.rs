//! A larger Borg-like campaign comparing every scheduler the paper
//! evaluates (Fig. 5 / Fig. 10 style), printing savings relative to the
//! baseline and the resulting placement distribution across regions.
//!
//! ```text
//! cargo run --release --example borg_campaign
//! ```
//!
//! Set `WATERWISE_DAYS` to lengthen the trace (default 0.1 days); a value
//! that is not a finite number of days > 0 exits 2.

use waterwise::core::{Campaign, CampaignConfig, SchedulerKind};
use waterwise::telemetry::ALL_REGIONS;

fn main() {
    let days: f64 = match std::env::var_os("WATERWISE_DAYS") {
        None => 0.1,
        Some(raw) => raw
            .to_str()
            .and_then(|v| v.parse().ok())
            .filter(|days: &f64| days.is_finite() && *days > 0.0)
            .unwrap_or_else(|| {
                eprintln!("invalid WATERWISE_DAYS: {raw:?} is not a finite number of days > 0");
                std::process::exit(2);
            }),
    };
    let campaign = Campaign::new(CampaignConfig::paper_default(days, 0.5, 7));
    println!(
        "replaying {} Borg-like jobs across {} regions (50% delay tolerance)\n",
        campaign.jobs().len(),
        ALL_REGIONS.len()
    );

    let baseline = campaign
        .run(SchedulerKind::Baseline)
        .expect("baseline campaign");

    println!(
        "{:<18} {:>14} {:>14} {:>10} {:>12}",
        "scheduler", "carbon saving", "water saving", "stretch", "violations"
    );
    for kind in [
        SchedulerKind::RoundRobin,
        SchedulerKind::LeastLoad,
        SchedulerKind::Ecovisor,
        SchedulerKind::CarbonGreedyOpt,
        SchedulerKind::WaterGreedyOpt,
        SchedulerKind::WaterWise,
    ] {
        let outcome = campaign.run(kind).expect("campaign run");
        println!(
            "{:<18} {:>13.1}% {:>13.1}% {:>9.3}x {:>11.2}%",
            kind.label(),
            outcome.carbon_saving_vs(&baseline),
            outcome.water_saving_vs(&baseline),
            outcome.summary.mean_service_stretch,
            outcome.summary.violation_fraction * 100.0
        );
    }

    let waterwise = campaign
        .run(SchedulerKind::WaterWise)
        .expect("campaign run");
    println!("\nWaterWise placement distribution:");
    for region in ALL_REGIONS {
        let share = waterwise.summary.region_distribution()[region.index()];
        println!("  {:<8} {:>5.1}%", region.name(), share * 100.0);
    }
}
