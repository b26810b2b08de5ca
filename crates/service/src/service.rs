//! The placement service: the simulated cluster, its telemetry, and the
//! response enrichment a [`crate::ClusterHost`] serves sessions against.

use crate::error::ServiceError;
use crate::request::PlacementResponse;
use std::sync::Arc;
use waterwise_cluster::{ClockMode, PlacementNotice, SimulationConfig, Simulator};
use waterwise_sustain::{FootprintEstimator, JobResourceUsage, KilowattHours, Seconds};
use waterwise_telemetry::{ConditionsProvider, SyntheticTelemetry, TelemetryConfig};
use waterwise_traces::JobSpec;

/// Configuration of one placement service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The simulated cluster the service places jobs onto (regions, server
    /// counts, scheduling interval, delay tolerance).
    pub simulation: SimulationConfig,
    /// The seeded telemetry both the scheduler and the footprint
    /// projections read.
    pub telemetry: TelemetryConfig,
    /// The time authority: [`ClockMode::Discrete`] for deterministic
    /// replay, [`ClockMode::RealTime`] for live pacing.
    pub clock: ClockMode,
    /// Bounded depth of the arrival channel into the engine. A full
    /// channel blocks the host's feeder thread; admitted requests then
    /// wait in the admission queue.
    pub ingest_queue: usize,
    /// Bounded depth of the engine→router notice channel and of each
    /// session's response outbox. A full channel blocks the engine's
    /// commit step, which backpressures the whole pipeline.
    pub notice_queue: usize,
}

impl ServiceConfig {
    /// A service over the given cluster with the default knobs: discrete
    /// clock, 256-deep bounded queues.
    pub fn new(simulation: SimulationConfig, telemetry: TelemetryConfig) -> Self {
        Self {
            simulation,
            telemetry,
            clock: ClockMode::Discrete,
            ingest_queue: 256,
            notice_queue: 256,
        }
    }

    /// A small demo cluster (five regions, 40 servers each) for examples,
    /// doctests, and smoke tests.
    pub fn small_demo(seed: u64) -> Self {
        Self::new(
            SimulationConfig::paper_default(40, 0.5),
            TelemetryConfig {
                seed,
                ..TelemetryConfig::default()
            },
        )
    }

    /// Override the clock mode.
    pub fn with_clock(mut self, clock: ClockMode) -> Self {
        self.clock = clock;
        self
    }
}

/// The simulated cluster behind the online placement front-end.
///
/// One service instance owns the simulated cluster and its telemetry. It
/// serves nothing by itself: a [`crate::ClusterHost`] runs one engine
/// campaign over it and multiplexes sessions onto that run (see the
/// host's docs for a worked example), enriching every engine placement
/// notice into a [`PlacementResponse`] (region, slot, projected
/// carbon/water footprint, deadline feasibility).
pub struct PlacementService {
    config: ServiceConfig,
    telemetry: Arc<SyntheticTelemetry>,
    simulator: Simulator<Arc<SyntheticTelemetry>>,
}

impl PlacementService {
    /// Build a service: validates the cluster configuration and generates
    /// the seeded telemetry.
    pub fn new(config: ServiceConfig) -> Result<Self, ServiceError> {
        let telemetry = SyntheticTelemetry::generate(config.telemetry).shared();
        let simulator = Simulator::new(config.simulation.clone(), telemetry.clone())?;
        Ok(Self {
            config,
            telemetry,
            simulator,
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The ground-truth telemetry provider (shareable; hand clones to the
    /// scheduler you build for the host).
    pub fn telemetry(&self) -> Arc<SyntheticTelemetry> {
        self.telemetry.clone()
    }

    /// The footprint estimator responses are projected with.
    pub fn estimator(&self) -> &FootprintEstimator {
        self.simulator.estimator()
    }

    /// The simulator backing the service — the host drives its engine
    /// run (and journal replays) through this.
    pub(crate) fn simulator(&self) -> &Simulator<Arc<SyntheticTelemetry>> {
        &self.simulator
    }

    /// Turn an engine placement notice into a client-facing response:
    /// project the decision's carbon/water footprint under the conditions
    /// at the projected start and evaluate deadline feasibility — all on
    /// the scheduler-visible *estimates*, mirroring the information the
    /// placement was made with.
    pub(crate) fn enrich(&self, notice: PlacementNotice, spec: &JobSpec) -> PlacementResponse {
        let conditions = self
            .telemetry
            .conditions(notice.region, notice.projected_start);
        let transfer_energy = if notice.region == spec.home_region {
            KilowattHours::zero()
        } else {
            self.config.simulation.transfer.transfer_energy(
                spec.home_region,
                notice.region,
                spec.package_bytes,
            )
        };
        let usage = JobResourceUsage::new(spec.estimated_energy, spec.estimated_execution_time);
        let projection =
            self.simulator
                .estimator()
                .project_decision(usage, transfer_energy, conditions);
        let projected_completion =
            notice.projected_start.value() + spec.estimated_execution_time.value();
        let deadline = notice.submitted_at.value()
            + (1.0 + self.config.simulation.delay_tolerance)
                * spec.estimated_execution_time.value();
        PlacementResponse {
            job: notice.job,
            region: notice.region,
            slot: notice.slot,
            decided_at: notice.decided_at,
            submitted_at: notice.submitted_at,
            deferrals: notice.deferrals,
            projected_start: notice.projected_start,
            projected_completion: Seconds::new(projected_completion),
            deadline: Seconds::new(deadline),
            deadline_feasible: projected_completion <= deadline + 1e-6,
            projection,
            solver: notice.solver,
        }
    }
}
