//! Serving topology: instances, stages, attention workers, and per-request
//! head placements.

use hetis_cluster::DeviceId;
use hetis_parallel::StageConfig;

/// Role of an instance — Splitwise splits phases across instances; every
/// other system serves both phases everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceRole {
    /// Serves prefill and decode (default).
    Both,
    /// Prefill-only (Splitwise's high-end pool).
    PrefillOnly,
    /// Decode-only (Splitwise's low-end pool).
    DecodeOnly,
    /// Out of service: a device of its primary TP group died (cluster
    /// churn). Down instances schedule nothing and accept no routes; a
    /// later `Join` of the lost device may revive them.
    Down,
}

/// One pipeline stage of an instance: the primary TP group plus any
/// attention workers pooled behind it (Hetis; empty for baselines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTopo {
    /// Primary TP group and its layer count.
    pub primary: StageConfig,
    /// Attention workers multiplexed by this stage (decode attention +
    /// KV hosting only).
    pub attention_workers: Vec<DeviceId>,
}

impl StageTopo {
    /// A stage with no attention workers.
    pub fn plain(primary: StageConfig) -> Self {
        StageTopo {
            primary,
            attention_workers: Vec::new(),
        }
    }

    /// All devices that can hold this stage's KV or compute its attention:
    /// primary TP group first, then attention workers.
    pub fn attention_devices(&self) -> Vec<DeviceId> {
        let mut v = self.primary.devices.clone();
        v.extend(self.attention_workers.iter().copied());
        v
    }
}

/// One data-parallel serving instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceTopo {
    /// Pipeline stages in order.
    pub stages: Vec<StageTopo>,
    /// Phase role.
    pub role: InstanceRole,
}

impl InstanceTopo {
    /// Pipeline depth.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }
}

/// A complete serving topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// The instances.
    pub instances: Vec<InstanceTopo>,
}

impl Topology {
    /// Indices of instances that accept new requests (route targets).
    pub fn entry_instances(&self) -> Vec<usize> {
        let prefill: Vec<usize> = self
            .instances
            .iter()
            .enumerate()
            .filter(|(_, i)| i.role != InstanceRole::DecodeOnly && i.role != InstanceRole::Down)
            .map(|(k, _)| k)
            .collect();
        prefill
    }
}

/// Where one request's query heads live, per pipeline stage:
/// `per_stage[s]` lists `(device, query_heads)` with heads summing to the
/// model's head count and each entry a multiple of the GQA ratio.
///
/// Baselines use [`HeadPlacement::stage_local`]; Hetis builds these from
/// the dispatch LP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadPlacement {
    /// Per stage: (device, query heads) with nonzero head counts only.
    pub per_stage: Vec<Vec<(DeviceId, u32)>>,
}

impl HeadPlacement {
    /// The conventional TP placement: each stage's heads split evenly
    /// across its primary devices.
    pub fn stage_local(stages: &[StageTopo], num_heads: u32) -> Self {
        let per_stage = stages
            .iter()
            .map(|s| {
                let tp = s.primary.tp() as u32;
                let per = num_heads / tp;
                s.primary
                    .devices
                    .iter()
                    .map(|&d| (d, per))
                    .collect::<Vec<_>>()
            })
            .collect();
        HeadPlacement { per_stage }
    }

    /// Total heads in stage `s`.
    pub fn heads_in_stage(&self, s: usize) -> u32 {
        self.per_stage[s].iter().map(|&(_, h)| h).sum()
    }

    /// Heads of stage `s` on `device` (0 if absent).
    pub fn heads_on(&self, s: usize, device: DeviceId) -> u32 {
        self.per_stage[s]
            .iter()
            .find(|&&(d, _)| d == device)
            .map(|&(_, h)| h)
            .unwrap_or(0)
    }

    /// Devices of every stage in placement order, repeats included (a
    /// device serving several stages appears once per stage). Allocates
    /// nothing, unlike [`HeadPlacement::devices`].
    pub fn iter_devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.per_stage.iter().flatten().map(|&(d, _)| d)
    }

    /// Devices used anywhere in the placement, deduplicated, sorted.
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut v: Vec<DeviceId> = self.iter_devices().collect();
        v.sort();
        v.dedup();
        v
    }

    /// Validates the placement against head count and group ratio.
    pub fn validate(&self, num_heads: u32, r: u32) -> Result<(), String> {
        for (s, stage) in self.per_stage.iter().enumerate() {
            let sum: u32 = stage.iter().map(|&(_, h)| h).sum();
            if sum != num_heads {
                return Err(format!("stage {s}: {sum} heads, expected {num_heads}"));
            }
            for &(d, h) in stage {
                if h == 0 {
                    return Err(format!("stage {s}: zero-head entry on {d}"));
                }
                if h % r != 0 {
                    return Err(format!(
                        "stage {s}: {h} heads on {d} not a multiple of r={r}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(devs: &[u32], layers: u32) -> StageTopo {
        StageTopo::plain(StageConfig {
            devices: devs.iter().map(|&i| DeviceId(i)).collect(),
            layers,
        })
    }

    #[test]
    fn stage_local_placement() {
        let stages = vec![stage(&[0, 1], 20), stage(&[2, 3], 20)];
        let p = HeadPlacement::stage_local(&stages, 40);
        assert_eq!(p.heads_in_stage(0), 40);
        assert_eq!(p.heads_on(0, DeviceId(0)), 20);
        assert_eq!(p.heads_on(0, DeviceId(2)), 0);
        assert_eq!(p.heads_on(1, DeviceId(2)), 20);
        p.validate(40, 1).unwrap();
        assert_eq!(p.devices().len(), 4);
    }

    #[test]
    fn validate_catches_bad_sum_and_ratio() {
        let p = HeadPlacement {
            per_stage: vec![vec![(DeviceId(0), 30), (DeviceId(1), 20)]],
        };
        assert!(p.validate(40, 1).is_err());
        let p2 = HeadPlacement {
            per_stage: vec![vec![(DeviceId(0), 36), (DeviceId(1), 28)]],
        };
        // 64 heads, r=8: 36 not a multiple of 8.
        assert!(p2.validate(64, 8).is_err());
        let p3 = HeadPlacement {
            per_stage: vec![vec![(DeviceId(0), 32), (DeviceId(1), 32)]],
        };
        p3.validate(64, 8).unwrap();
    }

    #[test]
    fn entry_instances_exclude_decode_only() {
        let topo = Topology {
            instances: vec![
                InstanceTopo {
                    stages: vec![stage(&[0], 40)],
                    role: InstanceRole::PrefillOnly,
                },
                InstanceTopo {
                    stages: vec![stage(&[1], 40)],
                    role: InstanceRole::DecodeOnly,
                },
            ],
        };
        assert_eq!(topo.entry_instances(), vec![0]);
    }

    #[test]
    fn attention_devices_order() {
        let mut s = stage(&[0, 1], 40);
        s.attention_workers = vec![DeviceId(5), DeviceId(6)];
        assert_eq!(
            s.attention_devices(),
            vec![DeviceId(0), DeviceId(1), DeviceId(5), DeviceId(6)]
        );
    }
}
