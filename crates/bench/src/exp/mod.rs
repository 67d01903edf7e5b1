//! The experiment table: one module per paper table/figure or
//! acceptance scenario, one [`Experiment`] row per `results/<name>.json`.
//! Modules touch the outside world only through their [`crate::Ctx`].

use crate::{Experiment, Scale};

mod collectives;
mod ctrl_faults;
mod faults;
mod fig10_11;
mod fig12;
mod fig13;
mod fig14;
mod fig5;
mod fig6;
mod fig7;
mod fig8_9;
mod fleet;
mod hunt;
mod probe;
mod table2;
mod table4;

/// Every experiment, in `exp list` / `exp all` order.
pub static ALL: [Experiment; 20] = [
    Experiment::figure("table2", "Table II: default vs expert algbw", table2::run),
    Experiment::figure("fig5", "Fig 5: single-parameter impacts", fig5::run),
    Experiment::figure("fig6", "Fig 6: rpg_time_reset x K_max grid", fig6::run),
    Experiment::figure("fig7_fb", "Fig 7(a,b): FB_Hadoop slowdown", fig7::fb),
    Experiment::figure("fig7_llm", "Fig 7(c,d): LLM alltoall FCT CDF", fig7::llm),
    Experiment::figure("fig8", "Fig 8: FB_Hadoop influx dynamics", fig8_9::fig8),
    Experiment::figure("fig9", "Fig 9: vs pretrained statics", fig8_9::fig9),
    Experiment::figure("fig10", "Fig 10: monitors vs load", fig10_11::fig10),
    Experiment::figure("fig11", "Fig 11: monitors vs interval", fig10_11::fig11),
    Experiment::figure("fig12", "Fig 12: SA ablation convergence", fig12::run),
    Experiment::figure("fig13", "Fig 13: alltoall algbw vs scale", fig13::run),
    Experiment::figure("fig14", "Fig 14: SolarRPC burst dynamics", fig14::run),
    Experiment::figure("table4", "Table IV: CPU, memory, ctrl bytes", table4::run),
    Experiment::figure("collectives", "collective/topology sweep", collectives::run),
    Experiment {
        name: "faults",
        about: "link flap + PFC storm + rogue dispatch: guardrail acceptance",
        scales: &[Scale::Reduced, Scale::Smoke],
        run: faults::run,
    },
    // One scripted scenario on one fabric: the gate pins one seed.
    Experiment {
        name: "ctrl_faults",
        about: "lossy control channel + warm controller crash: protocol acceptance",
        scales: &[Scale::Reduced],
        run: ctrl_faults::run,
    },
    Experiment {
        name: "fleet",
        about: "fleet service: N heterogeneous tenants, memory + identity gates",
        scales: &[Scale::Reduced, Scale::Paper, Scale::Smoke],
        run: fleet::run,
    },
    // Event and completion counts of one paper-fabric run: the pin
    // `benchmark/` asserts from outside the workspace.
    Experiment {
        name: "probe",
        about: "determinism pin: paper fabric, FB_Hadoop, full loop (2-worker twin under --check)",
        scales: &[Scale::Paper],
        run: probe::run,
    },
    // The search's findings and the corpus replay are pure functions of
    // the code at any thread count.
    Experiment {
        name: "hunt",
        about: "anomaly hunt: seed 42, budget 64, every default oracle plus a ctrl_divergence lane",
        scales: &[Scale::Reduced],
        run: hunt::hunt,
    },
    Experiment {
        name: "corpus",
        about: "regression corpus: every corpus/*.json case fires again (repinned without --check)",
        scales: &[Scale::Reduced],
        run: hunt::corpus,
    },
];
