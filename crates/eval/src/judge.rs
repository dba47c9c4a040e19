//! The judge: ground-truth evaluation of extracted knowledge.
//!
//! The paper evaluated precision with human judges over a 40-concept
//! benchmark (§5.2, Table 5, Figure 9). In the reproduction the sentence
//! generator knows the truth, so the judge is exact: an isA pair is
//! correct iff the sub-term is an instance or descendant concept of some
//! sense of the super-label in the ground-truth world (transitive
//! membership counts, as human judges would accept it).

use probase_corpus::benchmark::benchmark_labels;
use probase_corpus::{World, WorldIndex};
use probase_extract::Knowledge;
use probase_rng::SmallRng;
use probase_text::singularize;

/// A correct/total tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Precision {
    pub correct: usize,
    pub total: usize,
}

impl Precision {
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    pub fn add(&mut self, ok: bool) {
        self.total += 1;
        self.correct += usize::from(ok);
    }

    pub fn merge(&mut self, other: Precision) {
        self.correct += other.correct;
        self.total += other.total;
    }
}

/// Ground-truth judge over a world.
pub struct Judge<'w> {
    index: WorldIndex<'w>,
}

impl<'w> Judge<'w> {
    pub fn new(world: &'w World) -> Self {
        Self {
            index: WorldIndex::new(world),
        }
    }

    pub fn index(&self) -> &WorldIndex<'w> {
        &self.index
    }

    /// Is `(x isA y)` true in the world? Tries the sub-term verbatim and
    /// with a singularized head (extraction canonicalizes lowercase items,
    /// but judge inputs may come from baselines that do not).
    pub fn pair_valid(&self, x: &str, y: &str) -> bool {
        if self.index.is_valid_isa(x, y) {
            return true;
        }
        let head_singular = match y.rsplit_once(' ') {
            Some((head, last)) => format!("{head} {}", singularize(&last.to_lowercase())),
            None => singularize(&y.to_lowercase()),
        };
        head_singular != y && self.index.is_valid_isa(x, &head_singular)
    }

    /// Precision over an iterator of pairs.
    pub fn precision<'a>(&self, pairs: impl Iterator<Item = (&'a str, &'a str)>) -> Precision {
        let mut p = Precision::default();
        for (x, y) in pairs {
            p.add(self.pair_valid(x, y));
        }
        p
    }

    /// The paper's benchmark protocol (§5.2): for each of the 40 Table 5
    /// concepts, sample up to `sample` extracted subs and judge them.
    /// Returns `(label, precision)` per concept with at least one pair.
    pub fn benchmark_precision(
        &self,
        knowledge: &Knowledge,
        sample: usize,
        seed: u64,
    ) -> Vec<(String, Precision)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for label in benchmark_labels() {
            let Some(sym) = knowledge.lookup(label) else {
                continue;
            };
            let mut subs = knowledge.subs_of(sym);
            if subs.is_empty() {
                continue;
            }
            rng.shuffle(&mut subs);
            subs.truncate(sample);
            let mut p = Precision::default();
            for (y, _) in subs {
                p.add(self.pair_valid(label, knowledge.resolve(y)));
            }
            out.push((label.to_string(), p));
        }
        out
    }

    /// Recall against ground truth: the fraction of true direct
    /// (concept, instance) memberships with typicality at least
    /// `min_typicality` whose pair was extracted into Γ. Heads-weighted
    /// recall is the honest measure at simulation scale — tail instances
    /// may simply never have been rendered in the corpus.
    pub fn recall(&self, knowledge: &Knowledge, min_typicality: f64) -> Precision {
        let world = self.index.world();
        let mut p = Precision::default();
        for c in &world.concepts {
            let Some(x) = knowledge.lookup(&c.label) else {
                for m in c
                    .instances
                    .iter()
                    .filter(|m| m.typicality >= min_typicality)
                {
                    let _ = m;
                    p.add(false);
                }
                continue;
            };
            for m in c
                .instances
                .iter()
                .filter(|m| m.typicality >= min_typicality)
            {
                let surface = &world.instance(m.instance).surface;
                let found = knowledge
                    .lookup(surface)
                    .map(|y| knowledge.count(x, y) > 0)
                    .unwrap_or(false);
                p.add(found);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probase_corpus::{generate, WorldConfig};

    fn world() -> World {
        generate(&WorldConfig::small(51))
    }

    #[test]
    fn judges_curated_truths() {
        let w = world();
        let j = Judge::new(&w);
        assert!(j.pair_valid("country", "China"));
        assert!(j.pair_valid("animal", "cat"));
        assert!(j.pair_valid("animal", "cats")); // plural sub accepted
        assert!(j.pair_valid("country", "tropical country"));
        assert!(!j.pair_valid("country", "cat"));
        assert!(!j.pair_valid("dog", "cat"));
    }

    #[test]
    fn transitive_membership_accepted() {
        let w = world();
        let j = Judge::new(&w);
        // cat is under household pet / domestic animal / animal.
        assert!(j.pair_valid("organism", "cat"));
    }

    #[test]
    fn precision_counts() {
        let w = world();
        let j = Judge::new(&w);
        let pairs = [("country", "China"), ("country", "cat")];
        let p = j.precision(pairs.iter().map(|&(a, b)| (a, b)));
        assert_eq!(p.total, 2);
        assert_eq!(p.correct, 1);
        assert!((p.ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn benchmark_precision_over_knowledge() {
        let w = world();
        let j = Judge::new(&w);
        let mut g = Knowledge::new();
        let company = g.intern("company");
        let ibm = g.intern("IBM");
        let junk = g.intern("wombatron");
        g.add_pair(company, ibm);
        g.add_pair(company, junk);
        let per = j.benchmark_precision(&g, 50, 1);
        let company_entry = per.iter().find(|(l, _)| l == "company").unwrap();
        assert_eq!(company_entry.1.total, 2);
        assert_eq!(company_entry.1.correct, 1);
    }
}
