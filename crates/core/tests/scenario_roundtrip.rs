//! Roundtrip properties of the scenario spec format.
//!
//! 1. Serialize → parse is the identity: for any scenario assembled from a
//!    spec, `to_spec()` followed by `parse_spec` yields an identical
//!    `Scenario` (and therefore an identical `CampaignConfig`).
//! 2. Parsing is insensitive to presentation: comments, blank lines, key
//!    order, and equivalent numeric spellings never change the parsed
//!    configuration.
//! 3. Two *textually distinct* specs that parse equal produce byte-identical
//!    schedules — the property that makes a spec file, not its formatting,
//!    the unit of reproducibility.
//!
//! `CampaignConfig` carries no `PartialEq`, so configs are compared via
//! their exhaustive `Debug` rendering.

use proptest::prelude::*;
use waterwise_core::{parse_spec, Campaign, SchedulerKind};

/// A spec assembled from sweep-style knobs, in canonical key order.
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per sweep knob keeps each generated spec readable at the call site"
)]
fn spec_text(
    seed: u64,
    days: f64,
    tolerance: f64,
    lambda: f64,
    servers: usize,
    clock_scale: usize,
    horizon: Option<usize>,
    warm: bool,
) -> String {
    let clock = if clock_scale == 0 {
        "discrete".to_string()
    } else {
        format!("real-time:{:?}", clock_scale as f64 * 30.5)
    };
    let horizon = horizon.map_or("capacity".to_string(), |h| h.to_string());
    format!(
        "[scenario]\nname = prop\nseed = {seed}\n\
         [trace]\nkind = borg\ndays = {days:?}\n\
         [simulation]\nservers_per_region = {servers}\ndelay_tolerance = {tolerance:?}\nclock = {clock}\n\
         [objective]\nlambda_co2 = {lambda:?}\n\
         [waterwise]\nwarm_start = {warm}\nhorizon = {horizon}\n"
    )
}

fn debug_of(spec: &str) -> String {
    format!("{:?}", parse_spec(spec).expect("spec must parse"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Spec → `to_spec()` → parse yields an identical scenario.
    #[test]
    fn serialize_then_parse_is_identity(
        seed in 0u64..10_000,
        days in 0.01f64..2.0,
        tolerance in 0.0f64..4.0,
        lambda in 0.0f64..1.0,
        servers in 1usize..500,
        clock_scale in 0usize..5,
        horizon_raw in 0usize..40,
        warm_raw in 0usize..2,
    ) {
        let horizon = if horizon_raw == 0 { None } else { Some(horizon_raw) };
        let text = spec_text(seed, days, tolerance, lambda, servers, clock_scale, horizon, warm_raw == 1);
        let first = parse_spec(&text).expect("generated spec must parse");
        let reparsed = parse_spec(&first.to_spec()).expect("canonical form must parse");
        prop_assert_eq!(format!("{first:?}"), format!("{reparsed:?}"));
        // And the canonical form is a fixed point: rendering again is
        // byte-identical.
        prop_assert_eq!(first.to_spec(), reparsed.to_spec());
    }

    /// Comments, blank lines, indentation, and key order are presentation,
    /// not meaning.
    #[test]
    fn presentation_never_changes_the_parse(
        seed in 0u64..10_000,
        days in 0.01f64..2.0,
        tolerance in 0.0f64..4.0,
    ) {
        let plain = format!(
            "[scenario]\nname = prop\nseed = {seed}\n[trace]\ndays = {days:?}\n\
             [simulation]\ndelay_tolerance = {tolerance:?}\n"
        );
        let noisy = format!(
            "# header comment\n\n[scenario]\n  seed = {seed}   # trailing comment\n\
             name = prop\n\n[simulation]\ndelay_tolerance = {tolerance:?}\n\
             [trace]\n   days = {days:?}\n# footer\n"
        );
        prop_assert_eq!(debug_of(&plain), debug_of(&noisy));
    }
}

/// Two textually distinct specs that parse equal produce byte-identical
/// schedules: same campaign outcomes, byte for byte.
#[test]
fn textually_distinct_equal_specs_produce_byte_identical_schedules() {
    // Same scenario, spelled differently: reordered sections and keys,
    // comments, scientific notation, and an explicit default
    // (`clock = discrete`) on one side only.
    let first = "[scenario]\nname = twin\nseed = 42\n\
                 [trace]\nkind = borg\ndays = 0.02\n\
                 [simulation]\nservers_per_region = 280\ndelay_tolerance = 0.5\n";
    let second = "# the same campaign, spelled differently\n\
                  [trace]\ndays = 2e-2\nkind = borg\n\
                  [simulation]\nclock = discrete\ndelay_tolerance = 5e-1\n\
                  servers_per_region = 280\n\
                  [scenario]\nseed = 42\nname = twin\n";
    assert_ne!(first, second, "the specs must be textually distinct");
    assert_eq!(debug_of(first), debug_of(second), "but parse identically");

    let run = |spec: &str| {
        Campaign::new(parse_spec(spec).expect("spec must parse").config)
            .run(SchedulerKind::WaterWise)
            .expect("campaign must run")
    };
    let (a, b) = (run(first), run(second));
    assert_eq!(
        a.report.outcomes, b.report.outcomes,
        "equal-parsing specs must schedule byte-identically"
    );
    assert_eq!(
        waterwise_cluster::schedule_digest(&a.report.outcomes),
        waterwise_cluster::schedule_digest(&b.report.outcomes)
    );
}
