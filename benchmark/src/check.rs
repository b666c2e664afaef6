//! Output correctness: every distinct forest a workload served is checked
//! once, after timing, against the paper's invariants.

use crate::drive::Key;
use corgi_core::{geoind, ObfuscationProblem};
use corgi_framework::messages::PrivacyForestResponse;
use corgi_framework::{ForestGenerator, MatrixService};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Numerical tolerance of the row-sum and Geo-Indistinguishability checks.
const TOLERANCE: f64 = 1e-6;

/// Checks forests against a local generator with the server's configuration,
/// whose subtree problems supply the distances and ε.
pub struct Checker {
    generator: ForestGenerator,
    /// Problems per privacy level, in privacy-forest order.
    problems: BTreeMap<u8, Vec<ObfuscationProblem>>,
}

impl Checker {
    pub fn new(generator: ForestGenerator) -> Self {
        Self {
            generator,
            problems: BTreeMap::new(),
        }
    }

    /// Entries per forest, indexed by privacy level (0 for the leaf level).
    pub fn entries_per_level(&self) -> Vec<usize> {
        let tree = self.generator.tree();
        (0..=tree.height())
            .map(|level| tree.privacy_forest(level).map_or(0, |forest| forest.len()))
            .collect()
    }

    /// Check each forest: echoed key, one entry per subtree in forest order,
    /// row-stochastic matrices, and ε-Geo-Ind over all pairs of each subtree.
    /// Returns one message per failed forest.
    pub fn check_all(
        &mut self,
        forests: &BTreeMap<Key, Arc<PrivacyForestResponse>>,
    ) -> Vec<String> {
        forests
            .iter()
            .filter_map(|(&key, forest)| self.check(key, forest).err())
            .collect()
    }

    fn check(&mut self, (level, delta): Key, forest: &PrivacyForestResponse) -> Result<(), String> {
        let at = format!("forest (level {level}, δ {delta})");
        if (forest.request.privacy_level, forest.request.delta) != (level, delta) {
            return Err(format!("{at}: echoed key {:?}", forest.request));
        }
        let generator = &self.generator;
        let problems = self.problems.entry(level).or_insert_with(|| {
            generator
                .tree()
                .privacy_forest(level)
                .expect("the checked level exists")
                .iter()
                .map(|subtree| {
                    generator
                        .problem_for_subtree(subtree)
                        .expect("subtree problem")
                })
                .collect()
        });
        if forest.entries.len() != problems.len() {
            return Err(format!(
                "{at}: {} entries, expected {}",
                forest.entries.len(),
                problems.len()
            ));
        }
        for (entry, problem) in forest.entries.iter().zip(problems.iter()) {
            if entry.matrix.cells() != problem.cells() {
                return Err(format!(
                    "{at}: subtree {:?} out of order",
                    entry.subtree_root
                ));
            }
            entry
                .matrix
                .check_stochastic(TOLERANCE)
                .map_err(|e| format!("{at}: {e}"))?;
            let report = geoind::check_all_pairs(
                &entry.matrix,
                problem.distances(),
                problem.epsilon(),
                TOLERANCE,
            );
            if !report.is_satisfied() {
                return Err(format!(
                    "{at}: {} Geo-Ind violations in subtree {:?} (worst margin {:e})",
                    report.violated, entry.subtree_root, report.worst_margin
                ));
            }
        }
        Ok(())
    }
}
