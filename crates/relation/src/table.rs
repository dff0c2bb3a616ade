//! In-memory tables of interned rows.

use std::collections::{HashMap, HashSet};

use crate::{AttrId, RelationError, Result, Schema, Symbol, SymbolTable};

/// A table: a schema plus a dense `rows × arity` matrix of [`Symbol`]s.
///
/// Rows are stored in one flat `Vec<Symbol>` (row-major) so scanning a table
/// touches memory sequentially and cloning a table for a repair run is a
/// single memcpy-able allocation.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    cells: Vec<Symbol>,
}

/// Borrowed view of a single row.
pub type TupleRef<'a> = &'a [Symbol];

impl Table {
    /// Create an empty table over `schema`.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            cells: Vec::new(),
        }
    }

    /// Create an empty table with space reserved for `rows` rows.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let arity = schema.arity();
        Table {
            schema,
            cells: Vec::with_capacity(rows * arity),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        if self.schema.arity() == 0 {
            0
        } else {
            self.cells.len() / self.schema.arity()
        }
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Append a row of pre-interned symbols.
    pub fn push_row(&mut self, row: &[Symbol]) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.cells.extend_from_slice(row);
        Ok(())
    }

    /// Intern `values` into `symbols` and append them as a row.
    pub fn push_strs(&mut self, symbols: &mut SymbolTable, values: &[&str]) -> Result<()> {
        if values.len() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        self.cells.extend(values.iter().map(|v| symbols.intern(v)));
        Ok(())
    }

    /// Borrow row `i`.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> TupleRef<'_> {
        let a = self.schema.arity();
        &self.cells[i * a..(i + 1) * a]
    }

    /// Borrow row `i` mutably.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [Symbol] {
        let a = self.schema.arity();
        &mut self.cells[i * a..(i + 1) * a]
    }

    /// Checked row access.
    pub fn try_row(&self, i: usize) -> Result<TupleRef<'_>> {
        if i >= self.len() {
            return Err(RelationError::RowOutOfBounds {
                row: i,
                len: self.len(),
            });
        }
        Ok(self.row(i))
    }

    /// Read one cell.
    #[inline]
    pub fn cell(&self, row: usize, attr: AttrId) -> Symbol {
        self.cells[row * self.schema.arity() + attr.index()]
    }

    /// Overwrite one cell.
    #[inline]
    pub fn set_cell(&mut self, row: usize, attr: AttrId, value: Symbol) {
        let a = self.schema.arity();
        self.cells[row * a + attr.index()] = value;
    }

    /// Iterate over all rows.
    pub fn rows(&self) -> impl Iterator<Item = TupleRef<'_>> {
        self.cells.chunks_exact(self.schema.arity().max(1))
    }

    /// Split the table into mutable chunks of at most `chunk_rows` rows
    /// each (the last chunk may be shorter). Chunks are disjoint, so they
    /// can be handed to worker threads for parallel per-tuple repair.
    pub fn rows_mut_chunks(&mut self, chunk_rows: usize) -> impl Iterator<Item = &mut [Symbol]> {
        let a = self.schema.arity().max(1);
        self.cells.chunks_mut(chunk_rows.max(1) * a)
    }

    /// Resolve a row back to strings (for display / CSV output).
    pub fn row_strs<'a>(&'a self, symbols: &'a SymbolTable, i: usize) -> Vec<&'a str> {
        self.row(i).iter().map(|&s| symbols.resolve(s)).collect()
    }

    /// The active domain of one attribute: every distinct symbol appearing
    /// in that column. Used by the noise generator ("errors from the active
    /// domain", §7.1) and by rule enrichment.
    pub fn active_domain(&self, attr: AttrId) -> HashSet<Symbol> {
        let mut out = HashSet::new();
        let a = self.schema.arity();
        let idx = attr.index();
        let mut i = idx;
        while i < self.cells.len() {
            out.insert(self.cells[i]);
            i += a;
        }
        out
    }

    /// Frequency histogram of one attribute's values.
    pub fn value_counts(&self, attr: AttrId) -> HashMap<Symbol, usize> {
        let mut out = HashMap::new();
        let a = self.schema.arity();
        let mut i = attr.index();
        while i < self.cells.len() {
            *out.entry(self.cells[i]).or_insert(0) += 1;
            i += a;
        }
        out
    }

    /// Count cells that differ between two tables of identical shape.
    ///
    /// This is the "number of changes" cost used when evaluating repairs.
    pub fn diff_cells(&self, other: &Table) -> Result<usize> {
        if self.schema.arity() != other.schema.arity() || self.len() != other.len() {
            return Err(RelationError::ArityMismatch {
                expected: self.cells.len(),
                got: other.cells.len(),
            });
        }
        Ok(self
            .cells
            .iter()
            .zip(other.cells.iter())
            .filter(|(a, b)| a != b)
            .count())
    }

    /// List `(row, attr)` positions where two tables differ.
    pub fn diff_positions(&self, other: &Table) -> Result<Vec<(usize, AttrId)>> {
        if self.schema.arity() != other.schema.arity() || self.len() != other.len() {
            return Err(RelationError::ArityMismatch {
                expected: self.cells.len(),
                got: other.cells.len(),
            });
        }
        let a = self.schema.arity();
        Ok(self
            .cells
            .iter()
            .zip(other.cells.iter())
            .enumerate()
            .filter(|(_, (x, y))| x != y)
            .map(|(i, _)| (i / a, AttrId((i % a) as u16)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Schema, SymbolTable, Table) {
        let schema = Schema::new("Cap", ["country", "capital"]).unwrap();
        let symbols = SymbolTable::new();
        let table = Table::new(schema.clone());
        (schema, symbols, table)
    }

    #[test]
    fn push_and_read_rows() {
        let (schema, mut sy, mut t) = setup();
        t.push_strs(&mut sy, &["China", "Beijing"]).unwrap();
        t.push_strs(&mut sy, &["Canada", "Ottawa"]).unwrap();
        assert_eq!(t.len(), 2);
        let cap = schema.attr("capital").unwrap();
        assert_eq!(sy.resolve(t.cell(1, cap)), "Ottawa");
        assert_eq!(t.row_strs(&sy, 0), vec!["China", "Beijing"]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (_, mut sy, mut t) = setup();
        let err = t.push_strs(&mut sy, &["China"]).unwrap_err();
        assert!(matches!(
            err,
            RelationError::ArityMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn set_cell_updates_in_place() {
        let (schema, mut sy, mut t) = setup();
        t.push_strs(&mut sy, &["China", "Shanghai"]).unwrap();
        let cap = schema.attr("capital").unwrap();
        let beijing = sy.intern("Beijing");
        t.set_cell(0, cap, beijing);
        assert_eq!(sy.resolve(t.cell(0, cap)), "Beijing");
    }

    #[test]
    fn active_domain_collects_distinct_values() {
        let (schema, mut sy, mut t) = setup();
        t.push_strs(&mut sy, &["China", "Beijing"]).unwrap();
        t.push_strs(&mut sy, &["China", "Shanghai"]).unwrap();
        t.push_strs(&mut sy, &["Canada", "Ottawa"]).unwrap();
        let dom = t.active_domain(schema.attr("country").unwrap());
        assert_eq!(dom.len(), 2);
        assert!(dom.contains(&sy.get("China").unwrap()));
    }

    #[test]
    fn value_counts_histograms() {
        let (schema, mut sy, mut t) = setup();
        t.push_strs(&mut sy, &["China", "Beijing"]).unwrap();
        t.push_strs(&mut sy, &["China", "Beijing"]).unwrap();
        t.push_strs(&mut sy, &["Canada", "Ottawa"]).unwrap();
        let counts = t.value_counts(schema.attr("country").unwrap());
        assert_eq!(counts[&sy.get("China").unwrap()], 2);
        assert_eq!(counts[&sy.get("Canada").unwrap()], 1);
    }

    #[test]
    fn diff_counts_changed_cells() {
        let (schema, mut sy, mut t) = setup();
        t.push_strs(&mut sy, &["China", "Shanghai"]).unwrap();
        let mut fixed = t.clone();
        fixed.set_cell(0, schema.attr("capital").unwrap(), sy.intern("Beijing"));
        assert_eq!(t.diff_cells(&fixed).unwrap(), 1);
        let pos = t.diff_positions(&fixed).unwrap();
        assert_eq!(pos, vec![(0, schema.attr("capital").unwrap())]);
    }

    #[test]
    fn diff_rejects_shape_mismatch() {
        let (_, mut sy, mut t) = setup();
        t.push_strs(&mut sy, &["China", "Beijing"]).unwrap();
        let empty = Table::new(t.schema().clone());
        assert!(t.diff_cells(&empty).is_err());
    }

    #[test]
    fn try_row_bounds_checked() {
        let (_, _, t) = setup();
        assert!(matches!(
            t.try_row(0),
            Err(RelationError::RowOutOfBounds { row: 0, len: 0 })
        ));
    }

    #[test]
    fn rows_iterator_matches_row_access() {
        let (_, mut sy, mut t) = setup();
        t.push_strs(&mut sy, &["A", "B"]).unwrap();
        t.push_strs(&mut sy, &["C", "D"]).unwrap();
        let collected: Vec<Vec<Symbol>> = t.rows().map(|r| r.to_vec()).collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[1], t.row(1).to_vec());
    }
}
