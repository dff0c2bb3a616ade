//! String interning.
//!
//! Every distinct attribute value in play (table cells, rule patterns, facts)
//! is interned once into a [`SymbolTable`] and handled as a [`Symbol`]
//! afterwards. All equality tests in the repair and consistency algorithms
//! then become `u32` comparisons, and hash maps keyed by values hash a
//! single integer.

use std::collections::HashMap;
use std::fmt;

/// Interned handle for a string value.
///
/// Symbols are only meaningful relative to the [`SymbolTable`] that produced
/// them; two tables assign ids independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// ⊥: a cell whose value is none of Σ's constants, as
    /// `csv_io::par_repair_csv` and `fixd` read it. No table hands it out,
    /// so it never equals a constant and is never resolved; its text stays
    /// with the input it came from.
    pub const BOTTOM: Symbol = Symbol(u32::MAX - 1);

    /// Raw index into the owning table's storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// Append-only string interner.
///
/// `intern` is amortised O(1); `resolve` is a vector index. The table never
/// frees strings — the workloads here intern bounded vocabularies (active
/// domains plus typo corpora) so this is the right trade.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    by_name: HashMap<Box<str>, Symbol>,
    names: Vec<Box<str>>,
}

impl SymbolTable {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an interner sized for roughly `cap` distinct values.
    pub fn with_capacity(cap: usize) -> Self {
        SymbolTable {
            by_name: HashMap::with_capacity(cap),
            names: Vec::with_capacity(cap),
        }
    }

    /// Intern `value`, returning the existing symbol if already present.
    pub fn intern(&mut self, value: &str) -> Symbol {
        if let Some(&sym) = self.by_name.get(value) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.names.len()).expect("more than u32::MAX symbols"));
        let boxed: Box<str> = value.into();
        self.names.push(boxed.clone());
        self.by_name.insert(boxed, sym);
        sym
    }

    /// Look up a value without interning it.
    pub fn get(&self, value: &str) -> Option<Symbol> {
        self.by_name.get(value).copied()
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this table.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Resolve without panicking.
    pub fn try_resolve(&self, sym: Symbol) -> Option<&str> {
        self.names.get(sym.index()).map(|s| &**s)
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over `(symbol, value)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol(i as u32), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("Beijing");
        let b = t.intern("Beijing");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_values_get_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("Beijing");
        let b = t.intern("Shanghai");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "Beijing");
        assert_eq!(t.resolve(b), "Shanghai");
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = SymbolTable::new();
        assert_eq!(t.get("Tokyo"), None);
        let s = t.intern("Tokyo");
        assert_eq!(t.get("Tokyo"), Some(s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_string_is_a_value() {
        let mut t = SymbolTable::new();
        let e = t.intern("");
        assert_eq!(t.resolve(e), "");
        assert_ne!(e, t.intern("x"));
    }

    #[test]
    fn iter_in_interning_order() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        t.intern("c");
        let collected: Vec<&str> = t.iter().map(|(_, s)| s).collect();
        assert_eq!(collected, vec!["a", "b", "c"]);
    }

    #[test]
    fn try_resolve_unknown_is_none() {
        let t = SymbolTable::new();
        assert!(t.try_resolve(Symbol(42)).is_none());
    }

    #[test]
    fn with_capacity_starts_empty() {
        let t = SymbolTable::with_capacity(1024);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
