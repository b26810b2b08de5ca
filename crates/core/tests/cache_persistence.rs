//! Campaign-level cache persistence: durable warm state loaded through
//! [`Campaign::try_new`] must be indistinguishable from warm state built
//! in memory.
//!
//! The headline property: a campaign whose solution cache was warm-loaded
//! from a snapshot file produces the *byte-identical* schedule of a
//! campaign whose cache was warmed by running the same workload in the
//! same process — across both engine modes. Everything else here is the
//! negative space: missing snapshots are cold starts, corrupt or
//! mismatched snapshots are typed errors, and the autosave drop-guard
//! actually writes the file.

use std::path::PathBuf;
use waterwise_core::{
    parse_spec, CachePersistError, Campaign, CampaignConfig, EngineMode, SchedulerKind,
    SolutionCacheMode, WaterWiseError,
};

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ww-core-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The demo campaign with a per-campaign cache, solved without warm starts:
/// by default the hint or the transportation kernel decides every round of
/// it without a model, so the cache would never be asked.
fn base_config() -> CampaignConfig {
    let mut config =
        CampaignConfig::small_demo(42).with_solution_cache(SolutionCacheMode::PerCampaign);
    config.waterwise.warm_start = false;
    config
}

/// Warm-loading the cache from disk reproduces the in-memory-warmed
/// schedule byte for byte, under both the sync and the pipelined engine —
/// and both are the default scheduler's schedule.
#[test]
fn warmed_from_disk_matches_in_memory_warmed_schedules() {
    let default = Campaign::new(CampaignConfig::small_demo(42))
        .run(SchedulerKind::WaterWise)
        .expect("default run");
    for (label, engine) in [
        ("sync", EngineMode::Sync),
        ("pipelined", EngineMode::Pipelined { workers: 2 }),
    ] {
        let dir = scratch(&format!("warm-{label}"));
        let path = dir.join("cache.snapshot");
        let config = base_config()
            .with_engine_mode(engine)
            .with_cache_path(&path);

        // Campaign A: cold start (no snapshot yet), warm the cache by
        // running once, then run again warmed and persist.
        let warmer = Campaign::try_new(config.clone()).expect("cold start");
        assert!(
            warmer.solution_cache().expect("cache resolved").is_empty(),
            "a missing snapshot must be a cold start"
        );
        warmer.run(SchedulerKind::WaterWise).expect("warming run");
        let in_memory = warmer.run(SchedulerKind::WaterWise).expect("warmed run");
        assert!(warmer.save_cache().expect("save"), "snapshot written");

        // Campaign B: a fresh campaign warm-loads the snapshot and must
        // schedule exactly like the in-memory-warmed run.
        let resumed = Campaign::try_new(config.clone()).expect("warm load");
        let cache = resumed.solution_cache().expect("cache resolved");
        assert!(!cache.is_empty(), "snapshot must arrive warm");
        let from_disk = resumed.run(SchedulerKind::WaterWise).expect("resumed run");
        assert_eq!(
            in_memory.report.outcomes, from_disk.report.outcomes,
            "{label}: disk-warmed schedule diverged from memory-warmed"
        );
        assert_eq!(in_memory.summary.total_jobs, from_disk.summary.total_jobs);
        assert_eq!(
            default.report.outcomes, from_disk.report.outcomes,
            "{label}"
        );
        assert!(
            cache.stats().exact_hits > 0,
            "{label}: the resumed run never hit the loaded entries"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Setting a cache path implies caching even under `SolutionCacheMode::Off`.
#[test]
fn cache_path_implies_caching_under_mode_off() {
    let dir = scratch("implied");
    let path = dir.join("cache.snapshot");
    let config = CampaignConfig::small_demo(7)
        .with_solution_cache(SolutionCacheMode::Off)
        .with_cache_path(&path);
    let campaign = Campaign::try_new(config).expect("cold start");
    assert!(campaign.solution_cache().is_some());
    campaign.run(SchedulerKind::WaterWise).expect("run");
    assert!(campaign.save_cache().expect("save"));
    assert!(path.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a cache path, `save_cache` is a no-op reported as `Ok(false)`
/// and `try_new` behaves exactly like `new`.
#[test]
fn no_cache_path_means_no_persistence() {
    let campaign = Campaign::try_new(base_config()).expect("no path");
    assert!(!campaign.save_cache().expect("save is a no-op"));
    assert!(campaign.autosave_guard().is_none());

    let off = Campaign::try_new(CampaignConfig::small_demo(7)).expect("off");
    assert!(
        off.solution_cache().is_none(),
        "Off without a path stays off"
    );
}

/// A corrupt snapshot is a typed `WaterWiseError::CachePersist` whose
/// source names the offending file — never a panic, never a silent cold
/// start.
#[test]
fn corrupt_snapshot_is_a_typed_error() {
    let dir = scratch("corrupt");
    let path = dir.join("cache.snapshot");
    std::fs::write(&path, b"definitely not a waterwise cache snapshot\n").expect("write");
    let err = Campaign::try_new(base_config().with_cache_path(&path))
        .err()
        .expect("corrupt snapshot must fail");
    match &err {
        WaterWiseError::CachePersist(CachePersistError::BadHeader { path: reported, .. }) => {
            assert_eq!(reported, &path);
        }
        other => panic!("expected CachePersist(BadHeader), got {other:?}"),
    }
    assert!(err.to_string().starts_with("cache persistence error"));
    assert!(std::error::Error::source(&err).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot saved under different solver settings refuses to load: its
/// solutions are exact only for the solver that produced them.
#[test]
fn solver_config_mismatch_is_a_typed_error() {
    let dir = scratch("mismatch");
    let path = dir.join("cache.snapshot");
    let config = base_config().with_cache_path(&path);
    let campaign = Campaign::try_new(config.clone()).expect("cold start");
    campaign.run(SchedulerKind::WaterWise).expect("run");
    assert!(campaign.save_cache().expect("save"));

    let mut other = config;
    other.waterwise.branch_bound.max_nodes += 1;
    match Campaign::try_new(other).err() {
        Some(WaterWiseError::CachePersist(CachePersistError::ConfigMismatch {
            path: reported,
            ..
        })) => assert_eq!(reported, path),
        other => panic!("expected CachePersist(ConfigMismatch), got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shared handle is authoritative: `try_new` keeps the caller's cache
/// and leaves the snapshot unread, so cross-campaign warm state can never
/// become order-dependent on disk contents.
#[test]
fn shared_handles_are_not_overwritten_by_disk_state() {
    let dir = scratch("shared");
    let path = dir.join("cache.snapshot");
    // Persist a warm snapshot first.
    let warmer = Campaign::try_new(base_config().with_cache_path(&path)).expect("cold");
    warmer.run(SchedulerKind::WaterWise).expect("run");
    assert!(warmer.save_cache().expect("save"));

    let shared = waterwise_core::SolutionCache::shared();
    let campaign = Campaign::try_new(
        CampaignConfig::small_demo(42)
            .with_solution_cache(SolutionCacheMode::Shared(shared.clone()))
            .with_cache_path(&path),
    )
    .expect("shared mode ignores the snapshot");
    let cache = campaign.solution_cache().expect("handle kept");
    assert!(
        cache.is_empty(),
        "the caller's empty shared handle must stay authoritative"
    );
    // Saving still works and targets the configured path.
    campaign.run(SchedulerKind::WaterWise).expect("run");
    assert!(campaign.save_cache().expect("save"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The autosave drop-guard persists the cache when it goes out of scope,
/// and the snapshot warm-loads in a later campaign.
#[test]
fn autosave_guard_persists_on_drop() {
    let dir = scratch("autosave");
    let path = dir.join("cache.snapshot");
    let config = base_config()
        .with_cache_path(&path)
        .with_cache_autosave(true);
    {
        let campaign = Campaign::try_new(config.clone()).expect("cold start");
        let guard = campaign.autosave_guard().expect("autosave armed");
        campaign.run(SchedulerKind::WaterWise).expect("run");
        drop(guard);
    }
    assert!(path.exists(), "drop must have written the snapshot");
    let resumed = Campaign::try_new(config).expect("warm load");
    assert!(!resumed.solution_cache().expect("cache").is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scenario-spec persistence keys parse, render canonically, and
/// roundtrip; `none` is the explicit no-persistence sentinel.
#[test]
fn spec_persistence_keys_roundtrip() {
    let text = "[scenario]\nname = persist\nseed = 1\n\
                [trace]\nkind = borg\ndays = 0.02\n\
                [campaign]\ncache_path = /tmp/ww-spec.snapshot\ncache_autosave = true\n";
    let scenario = parse_spec(text).expect("spec parses");
    assert_eq!(
        scenario.config.cache_path.as_deref(),
        Some(std::path::Path::new("/tmp/ww-spec.snapshot"))
    );
    assert!(scenario.config.cache_autosave);
    let canonical = scenario.to_spec();
    assert!(canonical.contains("cache_path = /tmp/ww-spec.snapshot"));
    assert!(canonical.contains("cache_autosave = true"));
    let reparsed = parse_spec(&canonical).expect("canonical form parses");
    assert_eq!(
        canonical,
        reparsed.to_spec(),
        "canonical form is a fixed point"
    );

    let none = parse_spec(
        "[scenario]\nname = cold\nseed = 1\n[trace]\nkind = borg\ndays = 0.02\n\
         [campaign]\ncache_path = none\n",
    )
    .expect("none sentinel parses");
    assert_eq!(none.config.cache_path, None);
    assert!(!none.config.cache_autosave);
    assert!(none.to_spec().contains("cache_path = none"));
}
