//! String interning.
//!
//! Probase handles millions of distinct labels; comparing and hashing them
//! as strings everywhere would dominate runtime. The [`Interner`] maps each
//! distinct string to a dense [`Symbol`] (a `u32` newtype) so the graph can
//! store and compare labels as integers. See the hashing chapter of the
//! Rust Performance Book for why small integer keys matter here.

use crate::hash::FxHasher;
use std::hash::Hasher;

/// A handle to an interned string. Cheap to copy, hash, and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Index into the interner's string table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Slot marker for an empty `SymbolIndex` cell.
const EMPTY: u32 = u32::MAX;

/// An open-addressing hash index from string content to [`Symbol`],
/// storing only symbol ids — the strings themselves live in the
/// interner's table, so interning a new string costs exactly one
/// allocation (the table copy). A map keyed by owned `String`s would pay
/// a second allocation per distinct string on the hottest path of local
/// taxonomy construction (every label of every sentence goes through
/// [`Interner::intern`]).
#[derive(Debug, Clone, Default)]
struct SymbolIndex {
    /// Power-of-two slot table of symbol ids (`EMPTY` = vacant).
    slots: Vec<u32>,
    /// Occupied slot count.
    len: usize,
}

fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

impl SymbolIndex {
    fn get(&self, s: &str, strings: &[String]) -> Option<Symbol> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash_str(s) as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => return None,
                sym if strings[sym as usize] == s => return Some(Symbol(sym)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Insert `sym`, whose string is `strings[sym.index()]`. The caller
    /// guarantees the string is not already present.
    fn insert(&mut self, sym: Symbol, strings: &[String]) {
        if self.slots.len() < 2 * (self.len + 1) {
            self.grow(strings);
        }
        let mask = self.slots.len() - 1;
        let mut i = hash_str(&strings[sym.index()]) as usize & mask;
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = sym.0;
        self.len += 1;
    }

    /// Double the slot table (min 16) and rehash every occupied slot.
    fn grow(&mut self, strings: &[String]) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap]);
        let mask = new_cap - 1;
        for sym in old.into_iter().filter(|&s| s != EMPTY) {
            let mut i = hash_str(&strings[sym as usize]) as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = sym;
        }
    }
}

/// An append-only string interner. Symbols are dense indices in insertion
/// order, which snapshots rely on.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Vec<String>,
    lookup: SymbolIndex,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its symbol (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(sym) = self.lookup.get(s, &self.strings) {
            return sym;
        }
        let sym = Symbol(self.strings.len() as u32);
        self.strings.push(s.to_string());
        self.lookup.insert(sym, &self.strings);
        sym
    }

    /// Look up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.lookup.get(s, &self.strings)
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if the symbol did not come from this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate `(Symbol, &str)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol(i as u32), s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("animal");
        let b = i.intern("animal");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn symbols_are_dense() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), Symbol(0));
        assert_eq!(i.intern("b"), Symbol(1));
        assert_eq!(i.intern("a"), Symbol(0));
        assert_eq!(i.intern("c"), Symbol(2));
    }

    #[test]
    fn resolve_roundtrip() {
        let mut i = Interner::new();
        let s = i.intern("tropical country");
        assert_eq!(i.resolve(s), "tropical country");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        assert_eq!(i.len(), 0);
        i.intern("x");
        assert_eq!(i.get("x"), Some(Symbol(0)));
    }

    #[test]
    fn index_survives_growth_and_collisions() {
        let mut i = Interner::new();
        let syms: Vec<Symbol> = (0..5_000)
            .map(|n| i.intern(&format!("label {n}")))
            .collect();
        assert_eq!(i.len(), 5_000);
        for (n, &sym) in syms.iter().enumerate() {
            assert_eq!(i.get(&format!("label {n}")), Some(sym));
            assert_eq!(i.intern(&format!("label {n}")), sym);
        }
        assert_eq!(i.get("label 5000"), None);
    }

    #[test]
    fn iter_in_insertion_order() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        let v: Vec<_> = i.iter().map(|(s, t)| (s.0, t.to_string())).collect();
        assert_eq!(v, [(0, "x".to_string()), (1, "y".to_string())]);
    }
}
