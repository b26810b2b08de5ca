//! The paper's evaluation as one table: [`FIGURES`] has a row per figure,
//! table and Sec. 6 study, in the order `figures all` prints them. A row
//! names the figure, the function that regenerates it, and the [`Claim`]s
//! its printed numbers must show — who wins, or which way a trend moves.
//!
//! A claim is an ordering that a doc comment, a scheduler's module doc,
//! README or a qualitative test already states; its bound is the one that
//! source gives. It is read off the tables the figure returns, with no
//! second run. The root `tests/figures.rs` checks every row at its defaults.

use crate::experiments as ex;
use crate::table::{Record, Table};
use std::path::Path;
use waterwise_core::{load_spec, Scenario, ScenarioError};

/// Trace length in days of a figure without a committed spec.
pub const DAYS: f64 = 0.25;

/// Seed of a figure without a committed spec.
pub const SEED: u64 = 42;

/// One paper figure, table or study.
pub struct Figure {
    /// The id `figures <id>` runs it by.
    pub id: &'static str,
    /// What it reproduces in the paper.
    pub paper_ref: &'static str,
    /// Whether its workload is the committed spec `scenarios/<id>.spec`;
    /// otherwise it runs [`Scenario::paper_default`] at [`DAYS`] and
    /// [`SEED`].
    pub spec: bool,
    /// Regenerate it: the tables it prints.
    pub run: fn(&Scenario) -> Vec<Table>,
    /// What those tables must show.
    pub claims: &'static [Claim],
}

/// An ordering a figure's printed numbers must show.
pub struct Claim {
    /// The ordering, in one sentence.
    pub states: &'static str,
    /// Where it is stated: the doc or test it is copied from.
    pub source: &'static str,
    /// Read it off the figure's tables: `Err` names the rows that break it.
    pub check: fn(&[Table]) -> Result<(), String>,
}

impl Figure {
    /// The scenario the figure runs without overrides: its committed spec
    /// under the workspace's `scenarios/`, or the paper's default scenario.
    /// No environment variable is read.
    pub fn default_scenario(&self) -> Result<Scenario, ScenarioError> {
        if self.spec {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
            load_spec(dir.join(format!("{}.spec", self.id)))
        } else {
            Ok(Scenario::paper_default(self.id, DAYS, SEED))
        }
    }

    /// The claims `tables` do not show, each with the reason.
    pub fn broken_claims(&self, tables: &[Table]) -> Vec<(&'static Claim, String)> {
        self.claims
            .iter()
            .filter_map(|claim| (claim.check)(tables).err().map(|why| (claim, why)))
            .collect()
    }
}

/// The row of [`FIGURES`] with this id.
pub fn figure(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|figure| figure.id == id)
}

/// Every paper figure, table and study, in the paper's order.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "fig01",
        paper_ref: "Fig. 1",
        spec: false,
        run: ex::fig01_energy_sources,
        claims: &[
            Claim {
                states: "Every renewable source emits less carbon than every fossil one.",
                source: "`waterwise_sustain::energy` module doc",
                check: |t| {
                    let fossil = rows(&t[0], &[("renewable", "false")])?;
                    let cleanest = min(&fossil, "carbon (gCO2/kWh)");
                    every(&t[0], &[("renewable", "true")], |r| {
                        r.value("carbon (gCO2/kWh)") < cleanest
                    })
                },
            },
            Claim {
                states: "Hydropower needs more water than any fossil source.",
                source: "`waterwise_sustain::energy` module doc",
                check: |t| {
                    let hydro = min(&rows(&t[0], &[("source", "hydro")])?, "EWIF (L/kWh)");
                    every(&t[0], &[("renewable", "false")], |r| {
                        r.value("EWIF (L/kWh)") < hydro
                    })
                },
            },
        ],
    },
    Figure {
        id: "fig02",
        paper_ref: "Fig. 2",
        spec: false,
        run: ex::fig02_regional_factors,
        claims: &[
            Claim {
                states: "Carbon intensity rises from Zurich, Madrid, Oregon, Milan to Mumbai.",
                source: "`waterwise_telemetry::ALL_REGIONS` doc",
                check: |t| {
                    let carbon: Vec<f64> = (t[0].records())
                        .map(|r| r.value("carbon (gCO2/kWh)"))
                        .collect();
                    let rising = carbon.len() == 5 && carbon.windows(2).all(|w| w[0] < w[1]);
                    ensure(rising, || format!("{carbon:?}"))
                },
            },
            Claim {
                states: "Zurich has the lowest carbon intensity but the highest EWIF.",
                source: "test `zurich_has_lowest_carbon_but_highest_ewif`",
                check: |t| {
                    let zurich = rows(&t[0], &[("region", "Zurich")])?;
                    let (carbon, ewif) = ("carbon (gCO2/kWh)", "EWIF (L/kWh)");
                    every(&t[0], &[], |r| {
                        r.cell("region") == "Zurich"
                            || (min(&zurich, carbon) < r.value(carbon)
                                && min(&zurich, ewif) > r.value(ewif))
                    })
                },
            },
            Claim {
                states: "Oregon's carbon and water intensity vary from hour to hour.",
                source: "`waterwise_telemetry::grid` module doc",
                check: |t| every(&t[1], &[], |r| r.value("min") < r.value("max")),
            },
        ],
    },
    Figure {
        id: "fig03",
        paper_ref: "Fig. 3",
        spec: false,
        run: ex::fig03_greedy_opportunity,
        claims: &[ORACLES_WIN_THEIR_OWN_AXIS],
    },
    Figure {
        id: "fig05",
        paper_ref: "Fig. 5",
        spec: true,
        run: ex::fig05_waterwise_google,
        claims: &[
            Claim {
                states: "WaterWise saves > 5 % carbon and > 0 % water at every tolerance.",
                source: "copied from test `waterwise_saves_carbon_and_water_vs_baseline`",
                check: |t| saves(t, 5.0, 0.0),
            },
            Claim {
                states: "WaterWise's carbon saving at 100 % tolerance is at most 5 points \
                         below its saving at 25 %.",
                source: "copied from test `higher_delay_tolerance_does_not_hurt_savings`",
                check: |t| {
                    let at = |tolerance| {
                        let keys = [("delay tolerance", tolerance), WATERWISE];
                        rows(&t[0], &keys).map(|r| min(&r, CARBON))
                    };
                    let (low, high) = (at("25%")?, at("100%")?);
                    ensure(high >= low - 5.0, || format!("{low}% -> {high}%"))
                },
            },
            ORACLES_WIN_THEIR_OWN_AXIS,
        ],
    },
    Figure {
        id: "fig06",
        paper_ref: "Fig. 6",
        spec: false,
        run: ex::fig06_wri_dataset,
        claims: &[WATERWISE_SAVES],
    },
    Figure {
        id: "fig07",
        paper_ref: "Fig. 7",
        spec: false,
        run: ex::fig07_ecovisor,
        claims: &[Claim {
            states: "Ecovisor saves less carbon and less water than WaterWise on both datasets.",
            source: "moved from test `ecovisor_saves_less_than_waterwise`",
            check: |t| beats(&t[0], "dataset", "waterwise", "ecovisor", &[CARBON, WATER]),
        }],
    },
    Figure {
        id: "fig08",
        paper_ref: "Fig. 8",
        spec: true,
        run: ex::fig08_weight_sensitivity,
        claims: &[Claim {
            states: "λ_CO2 = 0.7 emits at most 1.05× the carbon of λ_CO2 = 0.3, which uses \
                     at most 1.05× the water of λ_CO2 = 0.7.",
            source: "moved from test `carbon_weight_tilts_the_outcome`",
            check: |t| {
                // Every weighting is measured against the same baseline, so a
                // footprint is proportional to 100 minus its saving.
                let left = |lambda, column| {
                    rows(&t[0], &[("lambda_co2", lambda)]).map(|r| 100.0 - min(&r, column))
                };
                let carbon = (left("0.7", CARBON)?, left("0.3", CARBON)?);
                let water = (left("0.3", WATER)?, left("0.7", WATER)?);
                ensure(
                    carbon.0 <= carbon.1 * 1.05 && water.0 <= water.1 * 1.05,
                    || format!("carbon left {carbon:?}, water left {water:?}"),
                )
            },
        }],
    },
    Figure {
        id: "fig09",
        paper_ref: "Fig. 9",
        spec: false,
        run: ex::fig09_alibaba,
        claims: &[WATERWISE_SAVES],
    },
    Figure {
        id: "fig10",
        paper_ref: "Fig. 10",
        spec: false,
        run: ex::fig10_loadbalancers,
        claims: &[Claim {
            states: "Round-Robin and Least-Load save less carbon and less water than WaterWise.",
            source: "moved from test `load_balancers_are_not_sustainability_aware`",
            check: |t| {
                beats(&t[0], "", "waterwise", "round-robin", &[CARBON, WATER])?;
                beats(&t[0], "", "waterwise", "least-load", &[CARBON, WATER])
            },
        }],
    },
    Figure {
        id: "fig11",
        paper_ref: "Fig. 11",
        spec: false,
        run: ex::fig11_utilization,
        claims: &[
            Claim {
                states: "Each scheduler's measured utilization rises as servers are cut.",
                source: "`fig11_utilization` doc",
                check: |t| {
                    let records: Vec<Record> = t[0].records().collect();
                    every(&t[0], &[], |r| {
                        // The same scheduler's row at the next server level.
                        (records.iter())
                            .filter(|n| n.cell("scheduler") == r.cell("scheduler"))
                            .find(|n| n.value("servers/region") < r.value("servers/region"))
                            .is_none_or(|n| n.value("mean util") > r.value("mean util"))
                    })
                },
            },
            WATERWISE_SAVES,
        ],
    },
    Figure {
        id: "fig12",
        paper_ref: "Fig. 12",
        spec: false,
        run: ex::fig12_region_availability,
        claims: &[Claim {
            states: "On every region subset WaterWise saves carbon (> 0 %) and loses at most \
                     5 % water.",
            source: "moved from test `region_restricted_campaign_still_saves`",
            check: |t| saves(t, 0.0, -5.0),
        }],
    },
    Figure {
        id: "fig13",
        paper_ref: "Fig. 13",
        spec: false,
        run: ex::fig13_overhead,
        claims: &[
            Claim {
                states: "Every window's mean decision time reads above zero µs.",
                source: "README, \"Running the paper's experiments\"",
                check: |t| every(&t[0], &[], |r| r.value("mean decision time (µs)") > 0.0),
            },
            Claim {
                states: "Deciding takes under 2 % of the mean execution time in every window.",
                source: "test `decision_overhead_is_negligible`",
                check: |t| every(&t[0], &[], |r| r.value("% of mean execution time") < 2.0),
            },
        ],
    },
    Figure {
        id: "table2",
        paper_ref: "Table 2",
        spec: false,
        run: ex::table2_service_time,
        claims: &[Claim {
            states: "WaterWise keeps violations under 10 % and its service stretch under \
                     1.5× at every tolerance.",
            source: "moved from test `violations_stay_bounded_and_stretch_stays_modest`",
            check: |t| {
                every(&t[0], &[WATERWISE], |r| {
                    r.value("% jobs violating") < 10.0 && r.value("service time (x exec)") < 1.5
                })
            },
        }],
    },
    Figure {
        id: "table3",
        paper_ref: "Table 3",
        spec: false,
        run: ex::table3_comm_overhead,
        claims: &[Claim {
            states: "Moving a job out of Oregon costs under 5 % of its execution carbon and \
                     water.",
            source: "test `table3_has_four_destinations`",
            check: |t| {
                every(&t[0], &[], |r| {
                    r.value("carbon overhead (% exec)") < 5.0
                        && r.value("water overhead (% exec)") < 5.0
                })
            },
        }],
    },
    Figure {
        id: "sens_perturbation",
        paper_ref: "Sec. 6, estimate error",
        spec: false,
        run: ex::sens_perturbation,
        claims: &[Claim {
            states: "Every ±10 % estimate-error row prints the accurate row's savings: a \
                     uniform error cancels in Eq. 7's per-round normalisation.",
            source: "`sens_perturbation` doc",
            check: |t| {
                let exact = [
                    ("carbon estimate error", "+0%"),
                    ("water estimate error", "+0%"),
                ];
                let exact = &rows(&t[0], &exact)?[0];
                every(&t[0], &[], |r| {
                    r.cell(CARBON) == exact.cell(CARBON) && r.cell(WATER) == exact.cell(WATER)
                })
            },
        }],
    },
    Figure {
        id: "sens_request_rate",
        paper_ref: "Sec. 6, request rate",
        spec: false,
        run: ex::sens_request_rate,
        claims: &[WATERWISE_SAVES],
    },
];

const CARBON: &str = "carbon saving";
const WATER: &str = "water saving";
const WATERWISE: (&str, &str) = ("scheduler", "waterwise");

/// Fig. 3(a)'s tension, which Fig. 5 repeats: each greedy oracle out-saves
/// the other on its own axis.
const ORACLES_WIN_THEIR_OWN_AXIS: Claim = Claim {
    states: "Carbon-Greedy-Opt saves more carbon, and Water-Greedy-Opt more water, than the \
             other at every tolerance.",
    source: "test `waterwise_balances_between_the_single_objective_oracles`",
    check: |t| {
        let group = "delay tolerance";
        beats(
            &t[0],
            group,
            "carbon-greedy-opt",
            "water-greedy-opt",
            &[CARBON],
        )?;
        beats(
            &t[0],
            group,
            "water-greedy-opt",
            "carbon-greedy-opt",
            &[WATER],
        )
    },
};

/// The headline of Fig. 5, carried to a figure that varies the workload,
/// the dataset or the cluster.
const WATERWISE_SAVES: Claim = Claim {
    states: "WaterWise saves carbon and water (both > 0 %) at every setting.",
    source: "the figure's doc: the headline of Fig. 5 carries over",
    check: |t| saves(t, 0.0, 0.0),
};

/// WaterWise's rows of `t[0]` (every row, in a table without a `scheduler`
/// column) save more than `carbon` % carbon and `water` % water.
fn saves(t: &[Table], carbon: f64, water: f64) -> Result<(), String> {
    let keys: &[_] = if t[0].has_column("scheduler") {
        &[WATERWISE]
    } else {
        &[]
    };
    every(&t[0], keys, |r| {
        r.value(CARBON) > carbon && r.value(WATER) > water
    })
}

/// In every group of rows sharing their `group` cell (the whole table when
/// `group` is empty), `winner`'s row prints more than `loser`'s in each of
/// `columns`.
fn beats(
    table: &Table,
    group: &str,
    winner: &str,
    loser: &str,
    columns: &[&str],
) -> Result<(), String> {
    let winners = rows(table, &[("scheduler", winner)])?;
    every(table, &[("scheduler", loser)], |r| {
        winners.iter().any(|w| {
            (group.is_empty() || w.cell(group) == r.cell(group))
                && columns.iter().all(|&c| w.value(c) > r.value(c))
        })
    })
}

/// `Ok` when `holds`, else the `Err` `broken` describes.
fn ensure(holds: bool, broken: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(broken())
    }
}

/// The rows whose cells read `keys` (column, text); an `Err` if none does.
fn rows<'t>(table: &'t Table, keys: &[(&str, &str)]) -> Result<Vec<Record<'t>>, String> {
    let matching: Vec<Record> = (table.records())
        .filter(|r| keys.iter().all(|&(column, text)| r.cell(column) == text))
        .collect();
    ensure(!matching.is_empty(), || {
        format!("{}: no row reads {keys:?}", table.title())
    })?;
    Ok(matching)
}

/// The smallest number `records` print under `column`.
fn min(records: &[Record], column: &str) -> f64 {
    records
        .iter()
        .map(|r| r.value(column))
        .fold(f64::INFINITY, f64::min)
}

/// `Ok` when the rows that read `keys` exist and `holds` accepts each;
/// else the printed cells of the rows it rejects.
fn every(
    table: &Table,
    keys: &[(&str, &str)],
    holds: impl Fn(&Record) -> bool,
) -> Result<(), String> {
    let broken: Vec<String> = (rows(table, keys)?.iter())
        .filter(|r| !holds(r))
        .map(|r| r.cells().join(" | "))
        .collect();
    ensure(broken.is_empty(), || broken.join("; "))
}
