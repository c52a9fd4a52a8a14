//! Partitioning a wide stream fleet into catalog-connected shards.
//!
//! The paper's setting (Section 3) is one synchronous window over one sensor
//! fleet.  A production deployment serves *many* fleets at once, and the
//! natural unit of parallelism is catalog connectivity: two series can only
//! ever interact through imputation if they are connected in the (undirected)
//! candidate graph, so the connected components of that graph can be imputed
//! by fully independent engines with no cross-talk.
//!
//! [`FleetPartition`] computes those components and assigns them to a target
//! number of shards (one downstream worker per shard):
//!
//! 1. **Components ≥ shards:** greedy bin packing — components sorted by
//!    decreasing size, each assigned to the currently smallest shard.  No
//!    candidate edge is lost; sharded imputation is *exactly* equivalent to
//!    a single global engine.
//! 2. **Components < shards (e.g. one giant component):** the largest groups
//!    are greedily split by BFS order (neighbours stay together) until the
//!    shard count is reached.  Candidate edges that end up crossing a
//!    fragment boundary are dropped from the per-component catalogs — a
//!    documented approximation that trades reference-set completeness for
//!    parallelism.
//!
//! Components are ordered by their smallest global id and members are sorted
//! ascending, so the partition (and everything downstream of it) is fully
//! deterministic.
//!
//! ## Live mapping and migrations
//!
//! Components are the *atomic migration unit* of the elastic fleet runtime:
//! the partition is a **versioned live mapping** from components to shards.
//! [`FleetPartition::migrate`] moves one whole component to another shard,
//! bumps [`FleetPartition::version`] and appends a [`Migration`] record to
//! the deterministic migration log.  Because no candidate edge ever crosses
//! a component boundary, moving a component between shards cannot change any
//! imputation — only *where* it is computed — which is what keeps the
//! rebalanced fleet bit-identical to a static one.

use std::collections::VecDeque;

use crate::catalog::Catalog;
use crate::errors::TsError;
use crate::series::SeriesId;

/// Layout tag of the encoded [`FleetPartition`] (the component / assignment
/// / migration-log representation).  The single source of truth for the
/// partition's on-disk assignment format — bump it whenever the encoded
/// layout changes shape (checked by `tkcm-lint`'s `single-definition` rule).
pub const PARTITION_FORMAT_VERSION: u32 = 2;

/// One entry of the partition's migration log: component `component` moved
/// from shard `from` to shard `to` at fleet tick `at_tick` (the number of
/// ticks fully processed when the migration ran — migrations only happen at
/// batch boundaries, so this is exact, not approximate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// The migrated component's id.
    pub component: usize,
    /// Shard the component lived on before the migration.
    pub from: usize,
    /// Shard the component lives on after the migration.
    pub to: usize,
    /// Fleet ticks processed when the migration took effect.
    pub at_tick: u64,
}

/// A deterministic, versioned assignment of every series of a fleet to one
/// shard, in whole catalog-connected components.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetPartition {
    // `pub(crate)` for the snapshot codec in `persist` (the manifest of a
    // checkpointed fleet stores the partition verbatim).
    pub(crate) width: usize,
    /// The atomic units: catalog-connected groups (post-split fragments),
    /// each sorted ascending, ordered by smallest member.  The
    /// component-local dense id of `components[c][i]` is `i`.
    pub(crate) components: Vec<Vec<SeriesId>>,
    /// `components[c]` currently lives on shard `assignment[c]`.
    pub(crate) assignment: Vec<usize>,
    /// Number of shards (fixed for the lifetime of the partition; only the
    /// component → shard mapping is live).
    pub(crate) shard_count: usize,
    /// Bumped by one per migration; version 0 is the freshly-built mapping.
    /// Durable fleets stamp checkpoint files with this, making the manifest
    /// rename the atomic commit point of a migration.
    pub(crate) version: u64,
    /// Append-only migration log, in execution order.
    pub(crate) log: Vec<Migration>,
    /// `locate_component[global] = (component, component-local)`: derived
    /// from `components`, so a migration leaves it as it is.
    locate_component: Vec<(usize, usize)>,
}

impl FleetPartition {
    /// Partitions a fleet of `width` series into `shards` shards along the
    /// connected components of `catalog`'s candidate graph.
    ///
    /// `shards` is a *target* (one worker per shard downstream): more
    /// components than shards are bin-packed together, fewer are reached by
    /// splitting the largest components.  The result can fall short of the
    /// target only when every component is already a singleton.
    ///
    /// Series without any candidate edge (empty or absent candidate lists)
    /// form their own singleton components.
    pub fn new(width: usize, catalog: &Catalog, shards: usize) -> Result<Self, TsError> {
        let max_shards = shards;
        if width == 0 {
            return Err(TsError::invalid("width", "need at least one series"));
        }
        if max_shards == 0 {
            return Err(TsError::invalid("shards", "need at least one shard"));
        }
        let adjacency = undirected_adjacency(width, catalog)?;
        let mut groups = connected_components(&adjacency);
        if groups.len() < max_shards {
            while groups.len() < max_shards {
                // Split the largest splittable group by BFS order so that
                // graph neighbours stay in the same half where possible.
                let Some(largest) = groups
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.len() > 1)
                    .max_by_key(|(_, g)| g.len())
                    .map(|(i, _)| i)
                else {
                    break; // only singletons left; fewer shards than asked
                };
                let group = groups.swap_remove(largest);
                let (a, b) = split_by_bfs(&group, &adjacency);
                groups.push(a);
                groups.push(b);
            }
        }
        for g in &mut groups {
            g.sort_unstable();
        }
        // Canonical component order: by smallest member.
        groups.sort_by_key(|g| g[0]);

        // Assign components to bins: greedy size balancing when there are
        // more components than shards, identity otherwise.  Bins are then
        // renumbered by their smallest member so shard ids are deterministic
        // (and identical to the historical shard layout).
        let shard_target = groups.len().min(max_shards);
        let mut bin_of = vec![usize::MAX; groups.len()];
        if groups.len() > shard_target {
            let mut order: Vec<usize> = (0..groups.len()).collect();
            order.sort_by_key(|&c| (std::cmp::Reverse(groups[c].len()), groups[c][0]));
            let mut bin_sizes = vec![0usize; shard_target];
            for c in order {
                let smallest = bin_sizes
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, len)| (**len, *i))
                    .map(|(i, _)| i)
                    .expect("bins >= 1");
                bin_of[c] = smallest;
                bin_sizes[smallest] += groups[c].len();
            }
        } else {
            for (c, slot) in bin_of.iter_mut().enumerate() {
                *slot = c;
            }
        }
        let mut bin_min = vec![usize::MAX; shard_target];
        for (c, group) in groups.iter().enumerate() {
            let b = bin_of[c];
            bin_min[b] = bin_min[b].min(group[0]);
        }
        let mut bin_order: Vec<usize> = (0..shard_target).collect();
        bin_order.sort_by_key(|&b| bin_min[b]);
        let mut shard_of_bin = vec![usize::MAX; shard_target];
        for (shard, &bin) in bin_order.iter().enumerate() {
            shard_of_bin[bin] = shard;
        }
        let assignment: Vec<usize> = bin_of.into_iter().map(|b| shard_of_bin[b]).collect();

        let components: Vec<Vec<SeriesId>> = groups
            .into_iter()
            .map(|g| g.into_iter().map(SeriesId::from).collect())
            .collect();
        Ok(FleetPartition {
            locate_component: locate_components(width, &components),
            width,
            components,
            assignment,
            shard_count: shard_target,
            version: 0,
            log: Vec::new(),
        })
    }

    /// Rebuilds a partition from its core fields (used by the snapshot
    /// codec), validating that every series is assigned exactly once.
    pub(crate) fn from_parts(
        width: usize,
        components: Vec<Vec<SeriesId>>,
        assignment: Vec<usize>,
        shard_count: usize,
        version: u64,
        log: Vec<Migration>,
    ) -> Result<Self, TsError> {
        if components.len() != assignment.len() {
            return Err(TsError::invalid(
                "partition",
                format!(
                    "{} components but {} assignment entries",
                    components.len(),
                    assignment.len()
                ),
            ));
        }
        if shard_count == 0 || assignment.iter().any(|&s| s >= shard_count) {
            return Err(TsError::invalid(
                "partition",
                "component assigned outside the shard range",
            ));
        }
        let mut seen = vec![false; width];
        let mut assigned = 0usize;
        for component in &components {
            if component.is_empty() {
                return Err(TsError::invalid("partition", "empty component"));
            }
            for id in component {
                let slot = seen
                    .get_mut(id.index())
                    .ok_or(TsError::UnknownSeries(*id))?;
                if *slot {
                    return Err(TsError::invalid(
                        "partition",
                        format!("series {id} assigned to more than one component"),
                    ));
                }
                *slot = true;
                assigned += 1;
            }
        }
        if assigned != width {
            return Err(TsError::invalid(
                "partition",
                format!("partition assigns {assigned} of {width} series"),
            ));
        }
        Ok(FleetPartition {
            locate_component: locate_components(width, &components),
            width,
            components,
            assignment,
            shard_count,
            version,
            log,
        })
    }

    /// Moves one whole component to `to_shard`, bumping the partition
    /// version and appending to the migration log.  `at_tick` is the number
    /// of fleet ticks processed at the batch boundary the migration runs
    /// at.
    ///
    /// Fails on an unknown component or shard, and on a no-op migration
    /// (the component already lives on `to_shard`).
    pub fn migrate(
        &mut self,
        component: usize,
        to_shard: usize,
        at_tick: u64,
    ) -> Result<Migration, TsError> {
        if component >= self.components.len() {
            return Err(TsError::invalid(
                "partition",
                format!("unknown component {component}"),
            ));
        }
        if to_shard >= self.shard_count {
            return Err(TsError::invalid(
                "partition",
                format!("unknown shard {to_shard}"),
            ));
        }
        let from = self.assignment[component];
        if from == to_shard {
            return Err(TsError::invalid(
                "partition",
                format!("component {component} already lives on shard {to_shard}"),
            ));
        }
        self.assignment[component] = to_shard;
        self.version += 1;
        let migration = Migration {
            component,
            from,
            to: to_shard,
            at_tick,
        };
        self.log.push(migration);
        Ok(migration)
    }

    /// Number of series in the fleet.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Number of catalog components (atomic migration units).
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Global series ids of one component, sorted ascending.
    pub fn component_members(&self, component: usize) -> &[SeriesId] {
        &self.components[component]
    }

    /// The shard a component currently lives on.
    pub fn shard_of_component(&self, component: usize) -> usize {
        self.assignment[component]
    }

    /// The component → shard assignment, indexed by component id.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The components currently living on `shard`, ascending.
    pub fn components_on(&self, shard: usize) -> Vec<usize> {
        (0..self.components.len())
            .filter(|&c| self.assignment[c] == shard)
            .collect()
    }

    /// The partition's live-mapping version: 0 at construction, +1 per
    /// migration.  Durable checkpoints stamp their per-shard files with it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The migration log, in execution order.
    pub fn migration_log(&self) -> &[Migration] {
        &self.log
    }

    /// The `(component, component-local index)` of a global series id.
    fn locate_component(&self, id: SeriesId) -> Option<(usize, usize)> {
        self.locate_component
            .get(id.index())
            .copied()
            .filter(|(c, _)| *c != usize::MAX)
    }

    /// The catalog of one component: candidate lists restricted to
    /// in-component members (cross-component edges are dropped — only
    /// possible after a giant-component split) and remapped to
    /// component-local dense ids.
    pub fn component_catalog(
        &self,
        component: usize,
        catalog: &Catalog,
    ) -> Result<Catalog, TsError> {
        let mut local = Catalog::new();
        for (i, &id) in self.components[component].iter().enumerate() {
            let ranked: Vec<SeriesId> = catalog
                .candidates(id)
                .iter()
                .filter_map(|c| match self.locate_component(*c) {
                    Some((cc, l)) if cc == component => Some(SeriesId::from(l)),
                    _ => None,
                })
                .collect();
            local.set_candidates(SeriesId::from(i), ranked)?;
        }
        Ok(local)
    }

    /// Count of candidate edges of `catalog` that cross a component boundary
    /// (and are therefore invisible to the per-component engines).  Zero
    /// unless a giant component had to be split.  Invariant under
    /// migrations: moving a component never drops or restores an edge.
    pub fn dropped_edges(&self, catalog: &Catalog) -> usize {
        let mut dropped = 0;
        self.walk_dropped_edges(catalog, |_, _| {
            dropped += 1;
            true
        });
        dropped
    }

    /// The first `limit` dropped candidate edges as `(series, candidate)`
    /// pairs, in deterministic component/member/rank order.  Nightly
    /// artifacts record this sample alongside
    /// [`FleetPartition::dropped_edges`] so a giant-component split names
    /// *which* cross-component references the per-component engines lost,
    /// not just how many.
    pub fn dropped_edge_sample(
        &self,
        catalog: &Catalog,
        limit: usize,
    ) -> Vec<(SeriesId, SeriesId)> {
        let mut sample = Vec::new();
        self.walk_dropped_edges(catalog, |id, cand| {
            if sample.len() == limit {
                return false;
            }
            sample.push((id, cand));
            true
        });
        sample
    }

    /// Visits every candidate edge that crosses a component boundary, in
    /// deterministic component/member/rank order, until `visit` returns
    /// `false`.  The single source of truth for what "dropped" means,
    /// shared by the count and the sample so the two cannot drift apart.
    fn walk_dropped_edges(
        &self,
        catalog: &Catalog,
        mut visit: impl FnMut(SeriesId, SeriesId) -> bool,
    ) {
        for component in 0..self.components.len() {
            for &id in &self.components[component] {
                for &cand in catalog.candidates(id) {
                    if matches!(self.locate_component(cand), Some((c, _)) if c != component)
                        && !visit(id, cand)
                    {
                        return;
                    }
                }
            }
        }
    }
}

/// `(component, component-local index)` of every global series id
/// (`usize::MAX` pairs for ids no component holds).
fn locate_components(width: usize, components: &[Vec<SeriesId>]) -> Vec<(usize, usize)> {
    let mut locate = vec![(usize::MAX, usize::MAX); width];
    for (c, component) in components.iter().enumerate() {
        for (i, id) in component.iter().enumerate() {
            locate[id.index()] = (c, i);
        }
    }
    locate
}

/// Undirected adjacency lists of the candidate graph over `0..width`.
fn undirected_adjacency(width: usize, catalog: &Catalog) -> Result<Vec<Vec<usize>>, TsError> {
    let mut adjacency = vec![Vec::new(); width];
    for s in 0..width {
        for cand in catalog.candidates(SeriesId::from(s)) {
            let c = cand.index();
            if c >= width {
                return Err(TsError::UnknownSeries(*cand));
            }
            adjacency[s].push(c);
            adjacency[c].push(s);
        }
    }
    for adj in &mut adjacency {
        adj.sort_unstable();
        adj.dedup();
    }
    Ok(adjacency)
}

/// Connected components (as sorted global-index groups) of an adjacency list.
fn connected_components(adjacency: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let width = adjacency.len();
    let mut seen = vec![false; width];
    let mut groups = Vec::new();
    for start in 0..width {
        if seen[start] {
            continue;
        }
        let mut group = Vec::new();
        let mut queue = VecDeque::from([start]);
        seen[start] = true;
        while let Some(n) = queue.pop_front() {
            group.push(n);
            for &m in &adjacency[n] {
                if !seen[m] {
                    seen[m] = true;
                    queue.push_back(m);
                }
            }
        }
        group.sort_unstable();
        groups.push(group);
    }
    groups
}

/// Splits one connected group into two halves of (near) equal size by BFS
/// order from its smallest id, so that graph neighbours tend to stay on the
/// same side of the cut.
fn split_by_bfs(group: &[usize], adjacency: &[Vec<usize>]) -> (Vec<usize>, Vec<usize>) {
    let target = group.len() / 2;
    let in_group: std::collections::BTreeSet<usize> = group.iter().copied().collect();
    let mut order = Vec::with_capacity(group.len());
    let mut seen: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    // The group is connected when produced by `connected_components`, but a
    // split fragment may hold several pieces — seed BFS repeatedly.
    for &start in group {
        if seen.contains(&start) {
            continue;
        }
        let mut queue = VecDeque::from([start]);
        seen.insert(start);
        while let Some(n) = queue.pop_front() {
            order.push(n);
            for &m in &adjacency[n] {
                if in_group.contains(&m) && seen.insert(m) {
                    queue.push_back(m);
                }
            }
        }
    }
    let second = order.split_off(target.max(1));
    (order, second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamTick;
    use crate::timestamp::Timestamp;

    /// The global ids on `shard`, ascending: its components' members.
    fn shard_members(p: &FleetPartition, shard: usize) -> Vec<SeriesId> {
        let mut members: Vec<SeriesId> = p
            .components_on(shard)
            .into_iter()
            .flat_map(|c| p.component_members(c).to_vec())
            .collect();
        members.sort_unstable();
        members
    }

    /// Every shard's members, in shard order, flattened and sorted.
    fn all_members(p: &FleetPartition) -> Vec<SeriesId> {
        let mut all: Vec<SeriesId> = (0..p.shard_count())
            .flat_map(|s| shard_members(p, s))
            .collect();
        all.sort_unstable();
        all
    }

    fn pair_catalog(pairs: &[(usize, usize)]) -> Catalog {
        let mut c = Catalog::new();
        for &(a, b) in pairs {
            c.set_candidates(SeriesId::from(a), vec![SeriesId::from(b)])
                .unwrap();
        }
        c
    }

    #[test]
    fn components_become_shards() {
        // 0—1, 2—3, 4 isolated -> three components.
        let catalog = pair_catalog(&[(0, 1), (2, 3)]);
        let p = FleetPartition::new(5, &catalog, 3).unwrap();
        assert_eq!(p.shard_count(), 3);
        assert_eq!(p.component_count(), 3);
        assert_eq!(p.component_members(0), &[SeriesId(0), SeriesId(1)]);
        assert_eq!(p.component_members(1), &[SeriesId(2), SeriesId(3)]);
        assert_eq!(p.component_members(2), &[SeriesId(4)]);
        assert_eq!(p.assignment(), &[0, 1, 2]);
        assert_eq!(p.dropped_edges(&catalog), 0);
        assert_eq!(p.locate_component(SeriesId(3)), Some((1, 1)));
        assert_eq!(p.version(), 0);
        assert!(p.migration_log().is_empty());
    }

    #[test]
    fn bin_packing_balances_shard_sizes() {
        // Four 2-series components into two shards -> 4 + 4.
        let catalog = pair_catalog(&[(0, 1), (2, 3), (4, 5), (6, 7)]);
        let p = FleetPartition::new(8, &catalog, 2).unwrap();
        assert_eq!(p.shard_count(), 2);
        assert_eq!(p.component_count(), 4);
        assert_eq!(all_members(&p).len(), 8);
        assert_eq!(shard_members(&p, 0).len(), 4);
        assert_eq!(p.dropped_edges(&catalog), 0);
        // Equal-sized components are dealt round-robin: components {0, 2}
        // land on shard 0, {1, 3} on shard 1.
        assert_eq!(p.components_on(0), vec![0, 2]);
        assert_eq!(p.components_on(1), vec![1, 3]);
    }

    #[test]
    fn giant_component_is_split_with_dropped_edges() {
        let catalog = Catalog::ring_neighbours(8);
        let p = FleetPartition::new(8, &catalog, 2).unwrap();
        assert_eq!(p.shard_count(), 2);
        assert_eq!(shard_members(&p, 0).len(), 4);
        assert_eq!(shard_members(&p, 1).len(), 4);
        assert!(p.dropped_edges(&catalog) > 0);
        // Every series is still assigned exactly once.
        assert_eq!(
            all_members(&p),
            (0..8usize).map(SeriesId::from).collect::<Vec<_>>()
        );
    }

    #[test]
    fn giant_component_splits_to_eight_shards() {
        // One 32-series ring split down to 8 shards: every shard non-empty,
        // every series assigned exactly once, deterministic, and the dropped
        // edge count matches the number of cut ring edges (each cut edge is
        // seen from both endpoints).
        let catalog = Catalog::ring_neighbours(32);
        let p = FleetPartition::new(32, &catalog, 8).unwrap();
        assert_eq!(p.shard_count(), 8);
        assert_eq!(p.component_count(), 8);
        for shard in 0..8 {
            assert!(!shard_members(&p, shard).is_empty());
        }
        assert_eq!(
            all_members(&p),
            (0..32usize).map(SeriesId::from).collect::<Vec<_>>()
        );
        let dropped = p.dropped_edges(&catalog);
        assert!(dropped > 0 && dropped.is_multiple_of(2));
        assert_eq!(p.dropped_edge_sample(&catalog, dropped.min(4)).len(), 4);
        assert_eq!(p, FleetPartition::new(32, &catalog, 8).unwrap());
        // A width not divisible by the shard target still covers all shards.
        let odd = FleetPartition::new(29, &Catalog::ring_neighbours(29), 8).unwrap();
        assert_eq!(odd.shard_count(), 8);
        assert_eq!(all_members(&odd).len(), 29);
    }

    #[test]
    fn mixed_components_reach_eight_shards_by_splitting_the_largest() {
        // Three components (16-ring, 4-ring, 2-pair) into 8 shards: the
        // giant ring is split repeatedly, smaller components stay whole.
        let mut catalog = Catalog::new();
        for i in 0..16usize {
            catalog
                .set_candidates(SeriesId::from(i), vec![SeriesId::from((i + 1) % 16)])
                .unwrap();
        }
        for i in 0..4usize {
            catalog
                .set_candidates(
                    SeriesId::from(16 + i),
                    vec![SeriesId::from(16 + (i + 1) % 4)],
                )
                .unwrap();
        }
        catalog
            .set_candidates(SeriesId::from(20usize), vec![SeriesId::from(21usize)])
            .unwrap();
        let p = FleetPartition::new(22, &catalog, 8).unwrap();
        assert_eq!(p.shard_count(), 8);
        // The 4-ring and the pair survive as whole components.
        assert!(p
            .components
            .iter()
            .any(|c| c == &(16usize..20).map(SeriesId::from).collect::<Vec<_>>()));
        assert!(p
            .components
            .iter()
            .any(|c| c == &[SeriesId(20), SeriesId(21)]));
        assert_eq!(
            all_members(&p),
            (0..22usize).map(SeriesId::from).collect::<Vec<_>>()
        );
    }

    #[test]
    fn partition_is_deterministic() {
        let catalog = Catalog::ring_neighbours(12);
        let a = FleetPartition::new(12, &catalog, 4).unwrap();
        let b = FleetPartition::new(12, &catalog, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn migrate_moves_whole_components_and_logs() {
        let catalog = pair_catalog(&[(0, 1), (2, 3), (4, 5), (6, 7)]);
        let mut p = FleetPartition::new(8, &catalog, 2).unwrap();
        let before_members: Vec<SeriesId> = p.component_members(2).to_vec();
        let migration = p.migrate(2, 1, 17).unwrap();
        assert_eq!(
            migration,
            Migration {
                component: 2,
                from: 0,
                to: 1,
                at_tick: 17
            }
        );
        assert_eq!(p.version(), 1);
        assert_eq!(p.migration_log(), &[migration]);
        assert_eq!(p.shard_of_component(2), 1);
        assert_eq!(p.component_members(2), &before_members[..]);
        // The shards' members follow the move.
        assert_eq!(p.components_on(0), vec![0]);
        assert_eq!(
            shard_members(&p, 1),
            (2..8usize).map(SeriesId::from).collect::<Vec<_>>()
        );
        // The component reverse map does not move with its shard.
        for id in (0..8usize).map(SeriesId::from) {
            let (component, local) = p.locate_component(id).unwrap();
            assert_eq!(p.component_members(component)[local], id);
        }
        // Dropped edges are component-relative and unaffected by the move.
        assert_eq!(p.dropped_edges(&catalog), 0);
        // Moving back works and logs again.
        p.migrate(2, 0, 40).unwrap();
        assert_eq!(p.version(), 2);
        assert_eq!(p.migration_log().len(), 2);
        assert_eq!(p, {
            let mut q = FleetPartition::new(8, &catalog, 2).unwrap();
            q.migrate(2, 1, 17).unwrap();
            q.migrate(2, 0, 40).unwrap();
            q
        });
    }

    #[test]
    fn migrate_rejects_invalid_moves() {
        let catalog = pair_catalog(&[(0, 1), (2, 3)]);
        let mut p = FleetPartition::new(4, &catalog, 2).unwrap();
        assert!(p.migrate(9, 0, 0).is_err(), "unknown component");
        assert!(p.migrate(0, 9, 0).is_err(), "unknown shard");
        assert!(p.migrate(0, 0, 0).is_err(), "no-op migration");
        assert_eq!(p.version(), 0);
        assert!(p.migration_log().is_empty());
    }

    #[test]
    fn component_catalog_remaps_to_local_ids() {
        let catalog = pair_catalog(&[(0, 1), (2, 3)]);
        let p = FleetPartition::new(4, &catalog, 2).unwrap();
        let local = p.component_catalog(1, &catalog).unwrap();
        // Global 2—3 becomes local 0—1.
        assert_eq!(local.candidates(SeriesId(0)), &[SeriesId(1)]);
        assert!(local.candidates(SeriesId(1)).is_empty());
    }

    #[test]
    fn tick_projection_carries_member_values() {
        let catalog = pair_catalog(&[(0, 1), (2, 3)]);
        let p = FleetPartition::new(4, &catalog, 2).unwrap();
        let tick = StreamTick::new(
            Timestamp::new(7),
            vec![Some(0.0), None, Some(2.0), Some(3.0)],
        );
        let sub = tick.project(p.component_members(1));
        assert_eq!(sub.time, Timestamp::new(7));
        assert_eq!(sub.values, vec![Some(2.0), Some(3.0)]);
    }

    #[test]
    fn fewer_series_than_shards_yields_singletons() {
        let p = FleetPartition::new(2, &Catalog::new(), 8).unwrap();
        assert_eq!(p.shard_count(), 2);
        assert_eq!(shard_members(&p, 0), vec![SeriesId(0)]);
        let one = FleetPartition::new(1, &Catalog::new(), 4).unwrap();
        assert_eq!(one.shard_count(), 1);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(FleetPartition::new(0, &Catalog::new(), 1).is_err());
        assert!(FleetPartition::new(1, &Catalog::new(), 0).is_err());
        // Catalog edge pointing outside the fleet.
        let catalog = pair_catalog(&[(0, 5)]);
        assert!(FleetPartition::new(2, &catalog, 1).is_err());
        assert!(FleetPartition::new(1, &Catalog::new(), 1)
            .unwrap()
            .locate_component(SeriesId(9))
            .is_none());
    }
}
