//! Startup reconciliation for interrupted component migrations.
//!
//! The online migration protocol (DESIGN.md §18) is copy-then-delete:
//! export from the source shard, journal + import on the destination,
//! then drain the source. Its commit point is the destination's WAL
//! `import-component` record — so the only inconsistent crash window
//! leaves the *same component on two shards* (imported on the
//! destination, not yet drained from the source). Reads stay correct
//! on the destination, but a stale routing table could answer from the
//! leftover source copy.
//!
//! [`reconcile_fleet`] runs at fleet startup (in-process deployments:
//! `probase-cli serve --shards N`) and resolves every such duplicate:
//!
//! * **winner** = the shard whose WAL holds an import record for the
//!   label — the migration committed there;
//! * with no (or ambiguous) import record, the copy with the **larger
//!   component** (edge count) wins, ties to the **lowest shard index**
//!   — deterministic, so every restart converges to the same fleet;
//! * every losing copy is drained through the same journalled drop
//!   path a live migration uses, arming `moved` tombstones that
//!   redirect stale readers to the winner.
//!
//! The standalone wire-only `route` mode cannot reconcile (it has no
//! handle on shard state); there the table rebuild in
//! [`crate::Router::rebuild_table_from_shards`] at least routes every
//! label somewhere consistent, and duplicate copies persist until the
//! fleet is restarted in-process. Documented in DESIGN.md §18.

use probase_serve::ServeState;
use probase_store::component_summary;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// What one reconciliation pass found and fixed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Labels found on more than one shard.
    pub duplicate_labels: usize,
    /// Component copies dropped from losing shards.
    pub components_dropped: usize,
}

/// Resolve components duplicated across an in-process fleet after a
/// crash mid-migration. Idempotent: a clean fleet reports all zeros
/// and is left untouched.
pub fn reconcile_fleet(states: &[Arc<ServeState>]) -> Result<ReconcileReport, String> {
    let mut report = ReconcileReport::default();
    if states.len() < 2 {
        return Ok(report);
    }
    // Which shards hold each label (senses deduped per shard; the push
    // order is ascending shard index).
    let mut owners: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, state) in states.iter().enumerate() {
        let labels: HashSet<String> = state
            .store()
            .read(|g| g.nodes().map(|n| g.label(n).to_string()).collect());
        for label in labels {
            owners.entry(label).or_default().push(i);
        }
    }
    let mut dups: Vec<(String, Vec<usize>)> = owners
        .into_iter()
        .filter(|(_, shards)| shards.len() > 1)
        .collect();
    // Deterministic pass order regardless of hash-map iteration.
    dups.sort();
    report.duplicate_labels = dups.len();
    let mut resolved: HashSet<String> = HashSet::new();
    for (label, shards) in dups {
        if resolved.contains(&label) {
            // Already handled as part of an earlier label's component.
            continue;
        }
        let imported: Vec<usize> = shards
            .iter()
            .copied()
            .filter(|&i| {
                states[i]
                    .durability()
                    .map(|d| d.imported_labels().contains_key(&label))
                    .unwrap_or(false)
            })
            .collect();
        let winner = match imported.as_slice() {
            // Exactly one shard journalled an import: the migration
            // committed there, its copy is the newest.
            [only] => *only,
            // No import record (or two — only possible after manual
            // WAL surgery): keep the larger copy, ties to the lowest
            // shard index.
            _ => {
                let mut best = shards[0];
                let mut best_edges = component_edges(&states[best], &label);
                for &i in &shards[1..] {
                    let edges = component_edges(&states[i], &label);
                    if edges > best_edges {
                        best = i;
                        best_edges = edges;
                    }
                }
                best
            }
        };
        for &i in &shards {
            if i == winner {
                continue;
            }
            let (component, _) = states[i].store().read(|g| component_summary(g, &label));
            if component.is_empty() {
                continue;
            }
            resolved.extend(component.iter().cloned());
            states[i]
                .drop_labels(component, winner as u32)
                .map_err(|e| format!("reconcile: shard {i}: {e}"))?;
            report.components_dropped += 1;
        }
        resolved.insert(label);
    }
    Ok(report)
}

/// Edge count of the component containing `label` on one shard.
fn component_edges(state: &ServeState, label: &str) -> usize {
    state.store().read(|g| component_summary(g, label).1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use probase_store::{ConceptGraph, SharedStore};

    fn state_with(pairs: &[(&str, &str, u32)]) -> Arc<ServeState> {
        let mut g = ConceptGraph::new();
        for (parent, child, count) in pairs {
            let p = g.ensure_node(parent, 0);
            let c = g.ensure_node(child, 0);
            g.add_evidence(p, c, *count);
        }
        Arc::new(ServeState::new(SharedStore::new(g), 16, 1))
    }

    #[test]
    fn clean_fleet_is_untouched() {
        let a = state_with(&[("country", "China", 3)]);
        let b = state_with(&[("animal", "cat", 2)]);
        let report = reconcile_fleet(&[a.clone(), b.clone()]).expect("reconcile");
        assert_eq!(report, ReconcileReport::default());
        assert_eq!(a.store().read(|g| g.node_count()), 2);
        assert_eq!(b.store().read(|g| g.node_count()), 2);
    }

    #[test]
    fn larger_copy_wins_and_loser_is_tombstoned() {
        // Shard 0 holds a stale two-edge copy, shard 1 the grown one.
        let stale = state_with(&[("country", "China", 3), ("country", "India", 2)]);
        let grown = state_with(&[
            ("country", "China", 3),
            ("country", "India", 2),
            ("country", "Brazil", 1),
        ]);
        let report = reconcile_fleet(&[stale.clone(), grown.clone()]).expect("reconcile");
        assert!(report.duplicate_labels >= 1);
        assert_eq!(report.components_dropped, 1);
        assert_eq!(stale.store().read(|g| g.node_count()), 0);
        assert_eq!(grown.store().read(|g| g.node_count()), 4);
        // The loser redirects stale readers to the winner (shard 1).
        assert_eq!(stale.tombstones().get("country"), Some(&1));
    }

    #[test]
    fn equal_copies_tie_to_the_lowest_shard() {
        let a = state_with(&[("animal", "cat", 2)]);
        let b = state_with(&[("animal", "cat", 2)]);
        let report = reconcile_fleet(&[a.clone(), b.clone()]).expect("reconcile");
        assert_eq!(report.components_dropped, 1);
        assert_eq!(a.store().read(|g| g.node_count()), 2);
        assert_eq!(b.store().read(|g| g.node_count()), 0);
    }
}
