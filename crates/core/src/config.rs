//! Hetis configuration and workload profiles.

use hetis_model::ModelSpec;
use hetis_parallel::{DecodeBatch, PrefillBatch};
use hetis_workload::{Dataset, DatasetKind};

/// Which solver the Dispatcher uses for the per-iteration Eq. (7)
/// min–max dispatch and the §5.3.1 ideal-time relaxation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchSolver {
    /// Structure-exploiting parametric water-fill
    /// ([`hetis_lp::WaterFill`]): exact on the fast path, transparently
    /// falling back to the simplex oracle when a capacity row binds at
    /// the optimum. The default — dispatching runs every iteration, so
    /// it must cost microseconds, not simplex pivots.
    #[default]
    WaterFill,
    /// Generic dense two-phase simplex on the epigraph LP (the pre-fast-
    /// path behavior, bit-for-bit). Retained as the property-test oracle
    /// and for pinning runs.
    Simplex,
}

/// Tunables of the Hetis system, with the paper's defaults.
#[derive(Debug, Clone)]
pub struct HetisConfig {
    /// Exclusion threshold Δ of the Parallelizer's heuristic (§4.1,
    /// default 0.05).
    pub delta: f64,
    /// Re-dispatch trigger threshold Θ (§5.3, default 0.5 = 50%).
    pub theta: f64,
    /// Profile grid resolution (paper: eight `h` × eight `g` values).
    pub profile_grid: usize,
    /// Measurement noise amplitude used while profiling (multiplicative;
    /// the real system sees run-to-run variance).
    pub profile_noise: f64,
    /// RNG seed for profiling noise.
    pub profile_seed: u64,
    /// Eq. (7) solver selection (default [`DispatchSolver::WaterFill`]).
    pub solver: DispatchSolver,
}

impl Default for HetisConfig {
    fn default() -> Self {
        HetisConfig {
            delta: 0.05,
            theta: 0.5,
            profile_grid: 8,
            profile_noise: 0.02,
            profile_seed: 0x4E75,
            solver: DispatchSolver::default(),
        }
    }
}

/// The request-distribution summary `R` the Parallelizer optimizes for
/// (Eq. 1 conditions the search on batch size and sequence length).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadProfile {
    /// Steady-state decode batch.
    pub decode: DecodeBatch,
    /// Typical prefill batch.
    pub prefill: PrefillBatch,
    /// Expected decode iterations per prefill (≈ mean output length).
    pub decode_steps: f64,
}

impl WorkloadProfile {
    /// Builds the profile a dataset induces on a model: a steady decode
    /// batch sized from Little's-law-style occupancy and mean context.
    pub fn from_dataset(kind: DatasetKind, concurrency: u64) -> WorkloadProfile {
        let (mean_in, mean_out) = Dataset::of(kind).mean_lengths();
        let avg_ctx = mean_in + mean_out / 2.0;
        WorkloadProfile {
            decode: DecodeBatch {
                seqs: concurrency,
                sum_context: (concurrency as f64 * avg_ctx) as u64,
            },
            prefill: PrefillBatch::uniform(4.max(concurrency / 32), mean_in as u64),
            decode_steps: mean_out,
        }
    }

    /// Sizes the profile's concurrency to the *cluster's* saturation
    /// point: the decode working set should occupy `utilization` of the
    /// best-case cluster KV capacity (total memory minus one copy of the
    /// weights and the activation reserves). This is how the search's
    /// capacity side-condition (Eq. 1: "host the decoding process of R")
    /// gets a peak-load R rather than an arbitrary batch size.
    pub fn for_cluster(
        kind: DatasetKind,
        cluster: &hetis_cluster::Cluster,
        model: &ModelSpec,
        utilization: f64,
    ) -> WorkloadProfile {
        let (mean_in, mean_out) = Dataset::of(kind).mean_lengths();
        let avg_ctx = mean_in + mean_out / 2.0;
        let reserves: u64 = cluster
            .devices()
            .iter()
            .map(|d| hetis_cluster::MemoryLedger::new(d.spec.mem_bytes).activation_reserve())
            .sum();
        let best_case_pool = cluster
            .total_memory()
            .saturating_sub(model.weight_bytes_total())
            .saturating_sub(reserves);
        let per_token = hetis_model::KvFootprint::new(model).bytes_per_token();
        let concurrency = ((best_case_pool as f64 * utilization) / (avg_ctx * per_token as f64))
            .floor()
            .max(1.0) as u64;
        Self::from_dataset(kind, concurrency)
    }

    /// KV bytes the decode batch needs across the whole model.
    pub fn required_kv_bytes(&self, model: &ModelSpec) -> u64 {
        let per_token = hetis_model::KvFootprint::new(model).bytes_per_token();
        self.decode.sum_context * per_token
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_model::llama_70b;

    #[test]
    fn defaults_match_paper() {
        let c = HetisConfig::default();
        assert_eq!(c.delta, 0.05);
        assert_eq!(c.theta, 0.5);
        assert_eq!(c.profile_grid, 8);
        assert_eq!(c.solver, DispatchSolver::WaterFill);
    }

    #[test]
    fn dataset_profiles_differ() {
        let sg = WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 64);
        let lb = WorkloadProfile::from_dataset(DatasetKind::LongBench, 64);
        assert!(lb.decode.sum_context > 2 * sg.decode.sum_context);
        assert!(lb.prefill.tokens > sg.prefill.tokens);
        assert!(sg.decode_steps > lb.decode_steps / 10.0);
    }

    #[test]
    fn required_kv_scales_with_context() {
        let m = llama_70b();
        let small = WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 16);
        let big = WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 64);
        assert!(big.required_kv_bytes(&m) > 3 * small.required_kv_bytes(&m));
    }
}
