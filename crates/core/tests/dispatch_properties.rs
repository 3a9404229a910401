//! Property tests on the Hetis dispatcher: every outcome respects the
//! paper's constraints (Eq. 5 integrality, Eq. 7b capacity, Eq. 7c head
//! integrity) under randomized resident load, and the §5.3.1 closed-form
//! balance certificate never suppresses a re-dispatch the ideal LP would
//! trigger.

use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::GpuType;
use hetis_core::{DispatchSolver, Dispatcher, HetisConfig, Profiler};
use hetis_engine::{KvState, StageTopo};
use hetis_model::llama_70b;
use hetis_parallel::StageConfig;
use hetis_workload::RequestId;
use proptest::prelude::*;
use std::collections::HashMap;

/// Θ values the certificate is checked at: zero, the paper's default
/// neighbourhood, and far beyond it.
const THETAS: [f64; 4] = [0.0, 0.1, 0.5, 2.0];

const SOLVERS: [DispatchSolver; 2] = [DispatchSolver::WaterFill, DispatchSolver::Simplex];

fn setup(
    resident: &[(usize, u32, u32)],
    solver: DispatchSolver,
) -> (
    hetis_cluster::Cluster,
    hetis_model::ModelSpec,
    KvState,
    StageTopo,
    Dispatcher,
) {
    let cluster = paper_cluster();
    let model = llama_70b();
    let mut kv = KvState::new(&cluster, &model, 16, &HashMap::new()).unwrap();
    let mut stage = StageTopo::plain(StageConfig {
        devices: cluster.devices_of_type(GpuType::A100),
        layers: 80,
    });
    stage.attention_workers = cluster.devices_of_type(GpuType::P100)[..2].to_vec();
    let devices = stage.attention_devices();
    for (k, &(dev_idx, groups, tokens)) in resident.iter().enumerate() {
        let dev = devices[dev_idx % devices.len()];
        let _ = kv.device_mut(dev).allocate(
            RequestId(10_000 + k as u64),
            0,
            groups.clamp(1, 8),
            tokens.max(16),
            80,
        );
    }
    let profiler = Profiler::profile(&cluster, 8, 0.0, 17);
    let cfg = HetisConfig {
        solver,
        ..HetisConfig::default()
    };
    (cluster, model, kv, stage, Dispatcher::new(profiler, cfg))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dispatch_respects_all_constraints(
        resident in proptest::collection::vec((0usize..6, 1u32..9, 16u32..4000), 0..40),
        lens in proptest::collection::vec(16u32..4000, 1..5),
    ) {
        let (cluster, model, kv, stage, dispatcher) = setup(&resident, DispatchSolver::default());
        let devices = stage.attention_devices();
        let Some(out) = dispatcher.dispatch(&cluster, &model, &kv, &stage, 0, &lens) else {
            // Infeasible is a legal outcome under heavy residency.
            return Ok(());
        };
        prop_assert_eq!(out.heads.len(), lens.len());
        let kappa = Dispatcher::head_token_bytes(&model);
        let mut added_per_dev = vec![0.0f64; devices.len()];
        for (j, per_req) in out.heads.iter().enumerate() {
            // Eq. 7c: heads sum to H.
            prop_assert_eq!(per_req.iter().sum::<u32>(), model.num_heads);
            for (i, &h) in per_req.iter().enumerate() {
                // Eq. 5: group-integral.
                prop_assert!(h % model.gqa_ratio() == 0);
                added_per_dev[i] += h as f64 * lens[j] as f64 * kappa;
            }
        }
        // Eq. 7b: per-device free capacity honored (per-layer units).
        for (i, &dev) in devices.iter().enumerate() {
            let free = kv.device(dev).free_bytes() as f64 / 80.0;
            prop_assert!(
                added_per_dev[i] <= free + 1e-6,
                "device {dev} over capacity: {} > {}",
                added_per_dev[i],
                free
            );
        }
        // Predicted max must be positive when anything was placed.
        prop_assert!(out.predicted_max >= 0.0);
    }

    #[test]
    fn ideal_never_exceeds_current(
        resident in proptest::collection::vec((0usize..6, 1u32..9, 64u32..3000), 1..40),
    ) {
        let (cluster, model, kv, stage, dispatcher) = setup(&resident, DispatchSolver::default());
        let (current, _) = dispatcher.current_attention_time(&cluster, &model, &kv, &stage, 0);
        if let Some(ideal) = dispatcher.ideal_attention_time(&cluster, &model, &kv, &stage, 0) {
            // §5.3.1: f* is a relaxation — never worse than the status quo
            // (small tolerance for LP roundoff).
            prop_assert!(ideal <= current * 1.001 + 1e-9, "ideal {ideal} > current {current}");
        }
    }

    #[test]
    fn balance_certificate_is_sound(
        resident in proptest::collection::vec((0usize..6, 1u32..9, 64u32..3000), 1..40),
    ) {
        for solver in SOLVERS {
            let (cluster, model, kv, stage, dispatcher) = setup(&resident, solver);
            let check = dispatcher.balance_check(&cluster, &model, &kv, &stage, 0);
            let Some(ideal) = dispatcher.ideal_attention_time(&cluster, &model, &kv, &stage, 0)
            else {
                continue;
            };
            let lb = check.ideal_lower_bound;
            // Weak duality: the bound never exceeds the LP optimum (the
            // ideal is only clamped below it when it reaches `current`).
            if ideal < check.current {
                prop_assert!(
                    lb <= ideal + 1e-9 * ideal.abs(),
                    "{solver:?}: bound {lb} above ideal {ideal}"
                );
            }
            for theta in THETAS {
                if check.certifies_balanced(theta) {
                    prop_assert!(
                        !(ideal > 0.0 && check.current > (1.0 + theta) * ideal),
                        "{solver:?} Θ={theta}: certified a stage that fires \
                         (current {}, ideal {ideal}, bound {lb})",
                        check.current
                    );
                }
            }
        }
    }
}

#[test]
fn certificate_lets_a_loaded_remote_worker_fire() {
    // All load on one remote P100 worker: the four A100 primaries sit
    // idle, so re-balancing would cut the bottleneck several-fold.
    let resident: Vec<(usize, u32, u32)> = (0..24).map(|_| (4, 8, 2000)).collect();
    for solver in SOLVERS {
        let (cluster, model, kv, stage, dispatcher) = setup(&resident, solver);
        let check = dispatcher.balance_check(&cluster, &model, &kv, &stage, 0);
        assert_eq!(check.bottleneck, Some(stage.attention_workers[0]));
        let ideal = dispatcher
            .ideal_attention_time(&cluster, &model, &kv, &stage, 0)
            .unwrap();
        for theta in THETAS {
            assert!(
                check.current > (1.0 + theta) * ideal,
                "{solver:?} Θ={theta}: current {} vs ideal {ideal}",
                check.current
            );
            assert!(
                !check.certifies_balanced(theta),
                "{solver:?} Θ={theta}: certificate suppressed a real fire"
            );
        }
    }
}
