//! The knowledge store Γ (paper Table 3).
//!
//! Γ is the set of isA pairs discovered so far, with the statistics the
//! semantic-iteration machinery consults:
//!
//! * `n(x, y)` — how many times pair `(x, y)` was discovered;
//! * `p(x)` — fraction of pairs with super-concept `x` (§2.3.2);
//! * `p(y | x)` — fraction of `x`'s pairs with sub-concept `y` (§2.3.2),
//!   with ε-smoothing for unseen pairs;
//! * `p(yi | c, x)` — co-occurrence likelihood of two sub-concepts under
//!   the same super-concept (§2.3.3);
//! * corpus-wide *segment frequencies*, the Downey-style signal (§2.1,
//!   \[10\]) used to break join-vs-split ties for multiword candidates like
//!   "Proctor and Gamble";
//! * negative (part-of) evidence counts (§4.1).
//!
//! Strings are interned once; all statistics are integer counters keyed by
//! symbols, so iteration rescans stay cheap.

use probase_store::{FxHashMap, Interner, Symbol};

/// The knowledge accumulated by iterative extraction.
///
/// ```
/// use probase_extract::Knowledge;
/// let mut g = Knowledge::new();
/// let animal = g.intern("animal");
/// let cat = g.intern("cat");
/// g.add_pair(animal, cat);
/// g.add_pair(animal, cat);
/// assert_eq!(g.count(animal, cat), 2);
/// assert!((g.p_sub_given_super(cat, animal, 1e-6) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Knowledge {
    interner: Interner,
    /// `n(x, y)` per pair.
    pairs: FxHashMap<(Symbol, Symbol), u32>,
    /// Σ_y n(x, y) per super-concept.
    super_totals: FxHashMap<Symbol, u32>,
    /// Σ n over all pairs.
    total: u64,
    /// Co-occurrence: #sentences where `a` and `b` were both extracted as
    /// subs of `x`. Key is `(x, min(a,b), max(a,b))`.
    cooccur: FxHashMap<(Symbol, Symbol, Symbol), u32>,
    /// Corpus-wide frequency of comma-bounded list segments (pre-pass).
    segment_freq: FxHashMap<Symbol, u32>,
    /// Negative part-of evidence per pair.
    negative: FxHashMap<(Symbol, Symbol), u32>,
}

impl Knowledge {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a string (public so callers can pre-resolve hot labels).
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Symbol of `s` if already interned.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.interner.get(s)
    }

    /// Resolve a symbol to its string.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Number of interned strings. Symbols are dense and append-only, so
    /// the strings interned since an earlier count `n` are exactly the
    /// symbols `n..symbol_count()`.
    pub(crate) fn symbol_count(&self) -> usize {
        self.interner.len()
    }

    // ---- updates ------------------------------------------------------

    /// Record one discovery of the pair `(x, y)`. Returns `true` when the
    /// pair is new to Γ.
    pub fn add_pair(&mut self, x: Symbol, y: Symbol) -> bool {
        let e = self.pairs.entry((x, y)).or_insert(0);
        let is_new = *e == 0;
        *e += 1;
        *self.super_totals.entry(x).or_insert(0) += 1;
        self.total += 1;
        is_new
    }

    /// Record `n` discoveries of the pair `(x, y)` at once (snapshot
    /// replay). Counters saturate instead of overflowing so a corrupt
    /// or adversarial count cannot panic the decoder. Returns `true`
    /// when the pair is new to Γ; `n == 0` is a no-op.
    pub fn add_pair_n(&mut self, x: Symbol, y: Symbol, n: u32) -> bool {
        if n == 0 {
            return false;
        }
        let e = self.pairs.entry((x, y)).or_insert(0);
        let is_new = *e == 0;
        *e = e.saturating_add(n);
        let sup = self.super_totals.entry(x).or_insert(0);
        *sup = sup.saturating_add(n);
        self.total = self.total.saturating_add(n as u64);
        is_new
    }

    /// Record that `a` and `b` were both extracted as subs of `x` in the
    /// same sentence.
    pub fn add_cooccurrence(&mut self, x: Symbol, a: Symbol, b: Symbol) {
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        *self.cooccur.entry((x, lo, hi)).or_insert(0) += 1;
    }

    /// Record one occurrence of a comma-bounded segment (pre-pass).
    pub fn add_segment(&mut self, segment: &str) {
        let sym = self.interner.intern(segment);
        *self.segment_freq.entry(sym).or_insert(0) += 1;
    }

    /// Record negative (part-of) evidence for `(x, y)`.
    pub fn add_negative(&mut self, x: Symbol, y: Symbol) {
        *self.negative.entry((x, y)).or_insert(0) += 1;
    }

    /// Bulk [`Knowledge::add_cooccurrence`] for snapshot replay
    /// (saturating; `n == 0` is a no-op).
    pub fn add_cooccurrence_n(&mut self, x: Symbol, a: Symbol, b: Symbol, n: u32) {
        if a == b || n == 0 {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let e = self.cooccur.entry((x, lo, hi)).or_insert(0);
        *e = e.saturating_add(n);
    }

    /// Bulk [`Knowledge::add_segment`] for snapshot replay (saturating;
    /// `n == 0` is a no-op).
    pub fn add_segment_n(&mut self, segment: &str, n: u32) {
        if n == 0 {
            return;
        }
        let sym = self.interner.intern(segment);
        let e = self.segment_freq.entry(sym).or_insert(0);
        *e = e.saturating_add(n);
    }

    /// Bulk [`Knowledge::add_negative`] for snapshot replay (saturating;
    /// `n == 0` is a no-op).
    pub fn add_negative_n(&mut self, x: Symbol, y: Symbol, n: u32) {
        if n == 0 {
            return;
        }
        let e = self.negative.entry((x, y)).or_insert(0);
        *e = e.saturating_add(n);
    }

    // ---- statistics ----------------------------------------------------

    /// `n(x, y)`.
    pub fn count(&self, x: Symbol, y: Symbol) -> u32 {
        self.pairs.get(&(x, y)).copied().unwrap_or(0)
    }

    /// Number of distinct pairs in Γ.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Number of distinct super-concepts in Γ.
    pub fn concept_count(&self) -> usize {
        self.super_totals.len()
    }

    /// Total evidence mass Σ n(x, y).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Evidence mass of `x` as a super-concept.
    pub fn super_total(&self, x: Symbol) -> u32 {
        self.super_totals.get(&x).copied().unwrap_or(0)
    }

    /// `p(x)`: share of all evidence with `x` as the super-concept,
    /// ε-smoothed.
    pub fn p_super(&self, x: Symbol, eps: f64) -> f64 {
        if self.total == 0 {
            return eps;
        }
        let n = self.super_total(x);
        if n == 0 {
            eps
        } else {
            n as f64 / self.total as f64
        }
    }

    /// `p(y | x)`: share of `x`'s evidence carrying `y`, ε-smoothed.
    pub fn p_sub_given_super(&self, y: Symbol, x: Symbol, eps: f64) -> f64 {
        let sx = self.super_total(x);
        if sx == 0 {
            return eps;
        }
        let n = self.count(x, y);
        if n == 0 {
            eps
        } else {
            n as f64 / sx as f64
        }
    }

    /// `p(yi | c, x)`: likelihood that `yi` appears as a valid sub in a
    /// sentence with super `x` where `c` is also a valid sub (§2.3.3),
    /// ε-smoothed.
    pub fn p_sub_given_cosub(&self, yi: Symbol, c: Symbol, x: Symbol, eps: f64) -> f64 {
        let denom = self.count(x, c);
        if denom == 0 {
            return eps;
        }
        let (lo, hi) = if yi < c { (yi, c) } else { (c, yi) };
        let n = self.cooccur.get(&(x, lo, hi)).copied().unwrap_or(0);
        if n == 0 {
            eps
        } else {
            (n as f64 / denom as f64).min(1.0)
        }
    }

    /// Corpus-wide frequency of a segment string.
    pub fn segment_frequency(&self, segment: &str) -> u32 {
        self.interner
            .get(segment)
            .and_then(|s| self.segment_freq.get(&s).copied())
            .unwrap_or(0)
    }

    /// Negative evidence count for `(x, y)`.
    pub fn negative_count(&self, x: Symbol, y: Symbol) -> u32 {
        self.negative.get(&(x, y)).copied().unwrap_or(0)
    }

    /// Iterate all pairs as `(x, y, n)`.
    pub fn pairs(&self) -> impl Iterator<Item = (Symbol, Symbol, u32)> + '_ {
        self.pairs.iter().map(|(&(x, y), &n)| (x, y, n))
    }

    /// Iterate negative pairs as `(x, y, n)`.
    pub fn negatives(&self) -> impl Iterator<Item = (Symbol, Symbol, u32)> + '_ {
        self.negative.iter().map(|(&(x, y), &n)| (x, y, n))
    }

    /// Absorb another knowledge store (paper §4.1: "It is easy to
    /// integrate new evidence" — e.g. an encyclopedia extraction merged
    /// into a web extraction). Symbols are re-interned; all counters add.
    pub fn absorb(&mut self, other: &Knowledge) {
        // Pre-translate other's symbols into ours.
        let mut map: Vec<Symbol> = Vec::with_capacity(other.interner.len());
        for (_, s) in other.interner.iter() {
            map.push(self.interner.intern(s));
        }
        let tr = |s: Symbol| map[s.index()];
        for (&(x, y), &n) in &other.pairs {
            let (x, y) = (tr(x), tr(y));
            *self.pairs.entry((x, y)).or_insert(0) += n;
            *self.super_totals.entry(x).or_insert(0) += n;
            self.total += n as u64;
        }
        for (&(x, a, b), &n) in &other.cooccur {
            let (x, a, b) = (tr(x), tr(a), tr(b));
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            *self.cooccur.entry((x, lo, hi)).or_insert(0) += n;
        }
        for (&s, &n) in &other.segment_freq {
            *self.segment_freq.entry(tr(s)).or_insert(0) += n;
        }
        for (&(x, y), &n) in &other.negative {
            *self.negative.entry((tr(x), tr(y))).or_insert(0) += n;
        }
    }

    /// Iterate co-occurrence triples as `(x, a, b, n)` with `a < b`.
    pub fn cooccurrences(&self) -> impl Iterator<Item = (Symbol, Symbol, Symbol, u32)> + '_ {
        self.cooccur.iter().map(|(&(x, a, b), &n)| (x, a, b, n))
    }

    /// Iterate segment frequencies as `(symbol, n)`.
    pub fn segment_frequencies(&self) -> impl Iterator<Item = (Symbol, u32)> + '_ {
        self.segment_freq.iter().map(|(&s, &n)| (s, n))
    }

    /// Iterate interned strings in symbol order (for persistence).
    pub fn interner_strings(&self) -> impl Iterator<Item = &str> {
        self.interner.iter().map(|(_, s)| s)
    }

    /// Distinct sub-concepts extracted for `x`, with counts. O(pairs);
    /// intended for reporting, not hot paths.
    pub fn subs_of(&self, x: Symbol) -> Vec<(Symbol, u32)> {
        let mut v: Vec<(Symbol, u32)> = self
            .pairs
            .iter()
            .filter(|(&(px, _), _)| px == x)
            .map(|(&(_, y), &n)| (y, n))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k() -> (Knowledge, Symbol, Symbol, Symbol) {
        let mut g = Knowledge::new();
        let animal = g.intern("animal");
        let cat = g.intern("cats");
        let dog = g.intern("dogs");
        for _ in 0..8 {
            g.add_pair(animal, cat);
        }
        for _ in 0..2 {
            g.add_pair(animal, dog);
        }
        (g, animal, cat, dog)
    }

    #[test]
    fn counts_accumulate() {
        let (g, animal, cat, dog) = k();
        assert_eq!(g.count(animal, cat), 8);
        assert_eq!(g.count(animal, dog), 2);
        assert_eq!(g.super_total(animal), 10);
        assert_eq!(g.total(), 10);
        assert_eq!(g.pair_count(), 2);
        assert_eq!(g.concept_count(), 1);
    }

    #[test]
    fn add_pair_reports_novelty() {
        let mut g = Knowledge::new();
        let a = g.intern("a");
        let b = g.intern("b");
        assert!(g.add_pair(a, b));
        assert!(!g.add_pair(a, b));
    }

    #[test]
    fn probabilities_follow_counts() {
        let (g, animal, cat, dog) = k();
        let eps = 1e-6;
        assert!((g.p_sub_given_super(cat, animal, eps) - 0.8).abs() < 1e-12);
        assert!((g.p_sub_given_super(dog, animal, eps) - 0.2).abs() < 1e-12);
        assert!((g.p_super(animal, eps) - 1.0).abs() < 1e-12);
        // unseen pair → eps
        let bird = {
            let mut g2 = g.clone();
            g2.intern("birds")
        };
        assert_eq!(g.p_sub_given_super(bird, animal, eps), eps);
    }

    #[test]
    fn epsilon_when_super_unknown() {
        let (g, _, cat, _) = k();
        let mut g = g;
        let robot = g.intern("robots");
        assert_eq!(g.p_sub_given_super(cat, robot, 1e-4), 1e-4);
        assert_eq!(g.p_super(robot, 1e-4), 1e-4);
    }

    #[test]
    fn cooccurrence_symmetric() {
        let (mut g, animal, cat, dog) = k();
        g.add_cooccurrence(animal, cat, dog);
        g.add_cooccurrence(animal, dog, cat);
        // p(dog | cat, animal) = cooccur / n(animal, cat) = 2/8
        assert!((g.p_sub_given_cosub(dog, cat, animal, 1e-6) - 0.25).abs() < 1e-12);
        // self co-occurrence is ignored
        g.add_cooccurrence(animal, cat, cat);
        assert!((g.p_sub_given_cosub(dog, cat, animal, 1e-6) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn segment_frequencies() {
        let mut g = Knowledge::new();
        g.add_segment("Proctor and Gamble");
        g.add_segment("Proctor and Gamble");
        g.add_segment("IBM");
        assert_eq!(g.segment_frequency("Proctor and Gamble"), 2);
        assert_eq!(g.segment_frequency("IBM"), 1);
        assert_eq!(g.segment_frequency("Proctor"), 0);
    }

    #[test]
    fn negative_evidence_tracked() {
        let mut g = Knowledge::new();
        let car = g.intern("car");
        let wheel = g.intern("wheels");
        g.add_negative(car, wheel);
        g.add_negative(car, wheel);
        assert_eq!(g.negative_count(car, wheel), 2);
        assert_eq!(g.negatives().count(), 1);
    }

    #[test]
    fn absorb_merges_all_counters() {
        let (mut g, animal, cat, _) = k();
        let mut other = Knowledge::new();
        // Different interner order on purpose.
        let o_cat = other.intern("cats");
        let o_bird = other.intern("birds");
        let o_animal = other.intern("animal");
        for _ in 0..4 {
            other.add_pair(o_animal, o_cat);
        }
        other.add_pair(o_animal, o_bird);
        other.add_cooccurrence(o_animal, o_cat, o_bird);
        other.add_segment("Proctor and Gamble");
        other.add_negative(o_animal, o_bird);

        g.absorb(&other);
        assert_eq!(g.count(animal, cat), 12); // 8 + 4
        let bird = g.lookup("birds").unwrap();
        assert_eq!(g.count(animal, bird), 1);
        assert_eq!(g.super_total(animal), 15);
        assert_eq!(g.total(), 15);
        assert_eq!(g.segment_frequency("Proctor and Gamble"), 1);
        assert_eq!(g.negative_count(animal, bird), 1);
        assert!(g.p_sub_given_cosub(bird, cat, animal, 1e-6) > 0.0);
    }

    #[test]
    fn absorb_empty_is_noop() {
        let (mut g, animal, cat, _) = k();
        let before = g.total();
        g.absorb(&Knowledge::new());
        assert_eq!(g.total(), before);
        assert_eq!(g.count(animal, cat), 8);
    }

    #[test]
    fn subs_of_sorted_by_count() {
        let (g, animal, cat, dog) = k();
        let subs = g.subs_of(animal);
        assert_eq!(subs, vec![(cat, 8), (dog, 2)]);
    }
}
