//! The benchmark's workloads, built from the seed alone.
//!
//! `fig13_grid` and `fig14_lanes` are in-process campaigns; `service_jobs`
//! submits many small campaigns to the daemon (see `service.rs`). The
//! program under test only ever sees the generated campaign.

use qismet_bench::{Campaign, GridSpec, ScenarioSpec, Scheme};
use qismet_mathkit::derive_seed;
use qismet_qnoise::Machine;
use qismet_vqa::AppSpec;

/// An in-process campaign and the executor shape it runs under.
pub struct CampaignWorkload {
    pub campaign: Campaign,
    /// Executor threads.
    pub threads: usize,
    /// Lockstep lane count (`1` = scalar).
    pub batch_lanes: usize,
}

/// Fig. 13's machines with the paper's per-machine iteration counts.
const FIG13_MACHINES: [(Machine, usize); 6] = [
    (Machine::Guadalupe, 270),
    (Machine::Toronto, 450),
    (Machine::Sydney, 350),
    (Machine::Casablanca, 220),
    (Machine::Jakarta, 320),
    (Machine::Mumbai, 330),
];

/// The campaign workload called `name`, or `None` for an unknown name.
pub fn campaign_workload(name: &str, seed: u64) -> Option<CampaignWorkload> {
    let app2 = AppSpec::by_id(2).expect("App2 is in Table 1");
    match name {
        // App2 on six machines x {Baseline, QISMET} x 3 trials at 0.3x the
        // paper's iteration counts (66-135), sequential and scalar.
        "fig13_grid" => {
            let mut campaign = Campaign::new(name, seed);
            for (machine, iterations) in FIG13_MACHINES {
                let cell_seed = derive_seed(seed, machine.seed_stream());
                for scheme in [Scheme::Baseline, Scheme::Qismet] {
                    campaign.push(
                        ScenarioSpec::new(app2.clone(), scheme, iterations * 3 / 10)
                            .on_machine(machine)
                            .seeded(cell_seed)
                            .with_trials(3),
                    );
                }
            }
            Some(CampaignWorkload {
                campaign,
                threads: 1,
                batch_lanes: 1,
            })
        }
        // App2 x {Baseline, Blocking, Resampling, QISMET} x 8 trials at the
        // full 2000 iterations, 8 lockstep lanes, 2 executor threads.
        "fig14_lanes" => {
            let cell_seed = derive_seed(seed, 0xf14);
            let mut campaign = Campaign::new(name, seed);
            for scheme in [
                Scheme::Baseline,
                Scheme::Blocking,
                Scheme::Resampling,
                Scheme::Qismet,
            ] {
                campaign.push(
                    ScenarioSpec::new(app2.clone(), scheme, 2000)
                        .seeded(cell_seed)
                        .with_trials(8),
                );
            }
            Some(CampaignWorkload {
                campaign,
                threads: 2,
                batch_lanes: 8,
            })
        }
        _ => None,
    }
}

/// The `index`-th job `tenant` submits in `service_jobs`: App2 x
/// {Baseline, QISMET} x 2 trials x 50 iterations under a seed of its own
/// (the daemon refuses a second live job with the same fingerprint).
pub fn service_job(seed: u64, tenant: usize, index: usize) -> GridSpec {
    GridSpec {
        name: format!("svc-t{tenant}-{index}"),
        seed: derive_seed(seed, ((tenant as u64) << 32) | index as u64),
        apps: vec![2],
        machines: Vec::new(),
        schemes: vec!["baseline".into(), "qismet".into()],
        thresholds: Vec::new(),
        magnitudes: Vec::new(),
        iterations: 50,
        trials: 2,
    }
}
