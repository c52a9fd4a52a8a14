//! Synthetic wide-fleet workload: many independent sensor clusters at once.
//!
//! The paper's evaluation replays *one* sensor network through one engine.
//! The sharded runtime (`tkcm-runtime`) instead serves a wide fleet — many
//! networks under one roof — and needs a workload shaped like one: clusters
//! of mutually referencing series with **no candidate edges between
//! clusters**, recurring short outages in every cluster (so the shortlist
//! maintainers stay hot, as in a real deployment), and a catalog whose
//! connected components are exactly the clusters.
//!
//! Each cluster gets its own daily-profile mixture (random phase, second
//! harmonic, amplitude) and its members are phase-shifted, scaled copies of
//! the cluster signal plus noise — the same pattern-determining structure as
//! the SBR/Chlorine generators, repeated per cluster.

use rand::Rng;
use tkcm_timeseries::{Catalog, SampleInterval, SeriesId, TimeSeries, Timestamp};

use crate::generator::{Dataset, DatasetKind};
use crate::rng::{normal, seeded};

/// A skewed-outage storm: a subset of clusters whose series suffer much
/// denser outages than the rest of the fleet.  Storm clusters cost far more
/// imputation compute per tick, so whichever shard hosts them becomes the
/// fleet's latency straggler — the workload the elastic rebalancer exists
/// for.
#[derive(Clone, Debug, PartialEq)]
pub struct StormProfile {
    /// Cluster indices hit by the storm.
    pub clusters: Vec<usize>,
    /// Outage cadence inside storm clusters (replaces
    /// [`FleetConfig::outage_every`] there).
    pub outage_every: usize,
    /// Outage length inside storm clusters (replaces
    /// [`FleetConfig::outage_length`] there).
    pub outage_length: usize,
}

/// Configuration of the fleet workload generator.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetConfig {
    /// Number of independent clusters (catalog components).
    pub clusters: usize,
    /// Series per cluster.
    pub series_per_cluster: usize,
    /// Number of days of 5-minute data.
    pub days: usize,
    /// RNG seed.
    pub seed: u64,
    /// Mean ticks between the start of one outage and the next per series.
    pub outage_every: usize,
    /// Length of each outage in ticks.
    pub outage_length: usize,
    /// Optional skewed-outage storm over a subset of clusters.
    pub storm: Option<StormProfile>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            clusters: 8,
            series_per_cluster: 4,
            days: 10,
            seed: 42,
            outage_every: 40,
            outage_length: 6,
            storm: None,
        }
    }
}

/// A generated fleet: the dataset (with outages already injected as missing
/// values) plus the cluster-structured reference catalog.
#[derive(Clone, Debug)]
pub struct FleetWorkload {
    /// The fleet dataset; values inside outages are missing.
    pub dataset: Dataset,
    /// Within-cluster ring catalog; its connected components are the
    /// clusters, so `FleetPartition` shards it without dropping any edge.
    pub catalog: Catalog,
    /// Number of missing values across the fleet.
    pub missing: usize,
}

impl FleetConfig {
    /// Total number of series in the fleet.
    pub fn width(&self) -> usize {
        self.clusters * self.series_per_cluster
    }

    /// Number of ticks the workload will contain (5-minute sampling).
    pub fn ticks(&self) -> usize {
        self.days * SampleInterval::FIVE_MINUTES.ticks_per_day() as usize
    }

    /// The within-cluster ring catalog this shape generates — a function of
    /// `clusters`/`series_per_cluster` only, so callers (e.g. the storm
    /// experiment) can partition the fleet *before* deciding which clusters
    /// a storm hits, without generating any data.
    pub fn catalog(&self) -> Catalog {
        let mut catalog = Catalog::new();
        for cluster in 0..self.clusters {
            let base_id = cluster * self.series_per_cluster;
            for member in 0..self.series_per_cluster {
                let ranked: Vec<SeriesId> = (1..self.series_per_cluster)
                    .map(|step| SeriesId::from(base_id + (member + step) % self.series_per_cluster))
                    .collect();
                catalog
                    .set_candidates(SeriesId::from(base_id + member), ranked)
                    .expect("cluster ring candidates are valid");
            }
        }
        catalog
    }

    /// Generates the fleet workload.
    pub fn generate(&self) -> FleetWorkload {
        assert!(self.clusters > 0, "need at least one cluster");
        assert!(
            self.series_per_cluster > 0,
            "need at least one series per cluster"
        );
        assert!(self.days > 0, "need at least one day");
        assert!(
            self.outage_every > self.outage_length,
            "outages must not overlap themselves"
        );
        if let Some(storm) = &self.storm {
            assert!(
                storm.outage_every > storm.outage_length,
                "storm outages must not overlap themselves"
            );
            assert!(
                storm.clusters.iter().all(|c| *c < self.clusters),
                "storm cluster index out of range"
            );
        }
        let interval = SampleInterval::FIVE_MINUTES;
        let ticks_per_day = interval.ticks_per_day() as f64;
        let len = self.ticks();
        let mut rng = seeded(self.seed);

        let mut series = Vec::with_capacity(self.width());
        let mut missing = 0usize;
        for cluster in 0..self.clusters {
            // Cluster signal: daily fundamental plus a second harmonic with
            // cluster-specific phases and mix.
            let phase = rng.gen::<f64>() * ticks_per_day;
            let harmonic_phase = rng.gen::<f64>() * ticks_per_day;
            let harmonic_mix = 0.2 + 0.4 * rng.gen::<f64>();
            let amplitude = 0.5 + rng.gen::<f64>();
            let base: Vec<f64> = (0..len)
                .map(|t| {
                    let day = (t as f64 + phase) / ticks_per_day * std::f64::consts::TAU;
                    let harm =
                        (t as f64 + harmonic_phase) / ticks_per_day * 2.0 * std::f64::consts::TAU;
                    amplitude * (day.sin() + harmonic_mix * harm.sin())
                })
                .collect();

            // Storm clusters override the fleet-wide outage profile: much
            // denser gaps, so their imputation load dwarfs the calm
            // clusters'.
            let (outage_every, outage_length) = match &self.storm {
                Some(storm) if storm.clusters.contains(&cluster) => {
                    (storm.outage_every, storm.outage_length)
                }
                _ => (self.outage_every, self.outage_length),
            };
            for member in 0..self.series_per_cluster {
                let id = cluster * self.series_per_cluster + member;
                // Members are delayed, scaled copies of the cluster signal —
                // phase-shifted like the Chlorine junctions, so the cluster
                // stays pattern-determining but not linearly aligned.
                let delay = rng.gen_range(0usize..18);
                let scale = 0.7 + 0.6 * rng.gen::<f64>();
                let offset = normal(&mut rng, 0.0, 0.3);
                // Outage schedule: one `outage_length` block roughly every
                // `outage_every` ticks, with a random per-series phase so
                // outages stagger across the cluster.
                let outage_phase = rng.gen_range(0usize..outage_every);
                let values: Vec<Option<f64>> = (0..len)
                    .map(|t| {
                        let in_outage = t >= 2 * outage_every
                            && (t + outage_phase) % outage_every < outage_length;
                        if in_outage {
                            missing += 1;
                            None
                        } else {
                            let src = base[t.saturating_sub(delay)];
                            Some(scale * src + offset + normal(&mut rng, 0.0, 0.01))
                        }
                    })
                    .collect();
                series.push(TimeSeries::new(
                    id as u32,
                    format!("fleet-{cluster:03}-{member:02}"),
                    Timestamp::new(0),
                    interval,
                    values,
                ));
            }
        }

        FleetWorkload {
            dataset: Dataset::new(DatasetKind::Fleet, interval, series),
            catalog: self.catalog(),
            missing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkcm_timeseries::FleetPartition;

    #[test]
    fn shape_and_outages() {
        let cfg = FleetConfig {
            clusters: 3,
            series_per_cluster: 4,
            days: 2,
            ..FleetConfig::default()
        };
        let fleet = cfg.generate();
        assert_eq!(fleet.dataset.width(), 12);
        assert_eq!(fleet.dataset.len(), 2 * 288);
        assert!(fleet.missing > 0);
        // Every series has outages but most values are present.
        for s in &fleet.dataset.series {
            let gaps = s.values().iter().filter(|v| v.is_none()).count();
            assert!(gaps > 0, "{} has no outage", s.name());
            assert!(gaps * 4 < s.len(), "{} mostly missing", s.name());
        }
    }

    #[test]
    fn catalog_components_are_the_clusters() {
        let cfg = FleetConfig {
            clusters: 5,
            series_per_cluster: 3,
            days: 1,
            ..FleetConfig::default()
        };
        let fleet = cfg.generate();
        let partition = FleetPartition::new(cfg.width(), &fleet.catalog, 5).unwrap();
        assert_eq!(partition.shard_count(), 5);
        assert_eq!(partition.dropped_edges(&fleet.catalog), 0);
        for shard in 0..5 {
            assert_eq!(partition.members(shard).len(), 3);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FleetConfig {
            clusters: 2,
            series_per_cluster: 2,
            days: 1,
            ..FleetConfig::default()
        };
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.missing, b.missing);
        assert_eq!(a.dataset.series[3].values(), b.dataset.series[3].values());
    }

    #[test]
    fn storm_clusters_get_denser_outages_deterministically() {
        let calm = FleetConfig {
            clusters: 4,
            series_per_cluster: 3,
            days: 2,
            ..FleetConfig::default()
        };
        let storm = FleetConfig {
            storm: Some(StormProfile {
                clusters: vec![1, 3],
                outage_every: 20,
                outage_length: 10,
            }),
            ..calm.clone()
        };
        let gaps = |workload: &FleetWorkload, cluster: usize| -> usize {
            workload.dataset.series[cluster * 3..(cluster + 1) * 3]
                .iter()
                .map(|s| s.values().iter().filter(|v| v.is_none()).count())
                .sum()
        };
        let a = storm.generate();
        // Storm clusters are far denser than calm ones in the same fleet.
        assert!(gaps(&a, 1) > 3 * gaps(&a, 0), "storm cluster 1 not denser");
        assert!(gaps(&a, 3) > 3 * gaps(&a, 2), "storm cluster 3 not denser");
        // The storm is deterministic and leaves the catalog unchanged.
        let b = storm.generate();
        assert_eq!(a.missing, b.missing);
        assert_eq!(a.dataset.series[5].values(), b.dataset.series[5].values());
        assert_eq!(
            format!("{:?}", storm.catalog()),
            format!("{:?}", calm.generate().catalog)
        );
    }

    #[test]
    #[should_panic(expected = "storm cluster index out of range")]
    fn out_of_range_storm_cluster_panics() {
        let _ = FleetConfig {
            storm: Some(StormProfile {
                clusters: vec![8],
                outage_every: 20,
                outage_length: 10,
            }),
            ..FleetConfig::default()
        }
        .generate();
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_clusters_panics() {
        let _ = FleetConfig {
            clusters: 0,
            ..FleetConfig::default()
        }
        .generate();
    }
}
