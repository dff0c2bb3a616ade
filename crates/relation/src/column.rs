//! Columnar table storage: one dense `Vec<Symbol>` per attribute.
//!
//! [`ColumnTable`] is the column-major twin of a [`Table`], the layout the
//! grouped repair core in `fixrules` takes: signature gathering there is
//! one tight integer scan per relevant attribute instead of a strided walk
//! across full rows. It is kept only for perfbench's per-layer replica of
//! that core, and goes with it (ROADMAP item 4).

use crate::{Symbol, Table};

/// A table stored column-major: `columns[a][i]` is row `i`'s value for
/// attribute `a`. There is one column per attribute of the source table's
/// schema, all of the same length.
#[derive(Debug)]
pub struct ColumnTable {
    columns: Vec<Vec<Symbol>>,
}

impl ColumnTable {
    /// Borrow every column mutably at once (index = attribute index).
    pub fn columns_mut(&mut self) -> Vec<&mut [Symbol]> {
        self.columns.iter_mut().map(Vec::as_mut_slice).collect()
    }
}

impl From<&Table> for ColumnTable {
    /// Transpose a row-major table into columns. One pass over the cells.
    fn from(table: &Table) -> Self {
        let mut columns: Vec<Vec<Symbol>> = (0..table.schema().arity())
            .map(|_| Vec::with_capacity(table.len()))
            .collect();
        for row in table.rows() {
            for (col, &sym) in columns.iter_mut().zip(row.iter()) {
                col.push(sym);
            }
        }
        ColumnTable { columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schema, SymbolTable};

    fn sample() -> (Schema, SymbolTable, Table) {
        let schema = Schema::new("Cap", ["country", "capital"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut t = Table::new(schema.clone());
        t.push_strs(&mut sy, &["China", "Beijing"]).unwrap();
        t.push_strs(&mut sy, &["Canada", "Ottawa"]).unwrap();
        t.push_strs(&mut sy, &["China", "Shanghai"]).unwrap();
        (schema, sy, t)
    }

    /// Rebuild a row-major table over `schema` from `cols`.
    fn to_table(schema: &Schema, cols: &mut ColumnTable) -> Table {
        let cols = cols.columns_mut();
        let mut t = Table::new(schema.clone());
        for i in 0..cols[0].len() {
            let row: Vec<Symbol> = cols.iter().map(|c| c[i]).collect();
            t.push_row(&row).unwrap();
        }
        t
    }

    #[test]
    fn round_trip_preserves_cells() {
        let (schema, _, t) = sample();
        let mut cols = ColumnTable::from(&t);
        let back = to_table(&schema, &mut cols);
        assert_eq!(back.len(), 3);
        assert_eq!(t.diff_cells(&back).unwrap(), 0);
    }

    #[test]
    fn columns_are_dense_per_attribute() {
        let (schema, sy, t) = sample();
        let mut cols = ColumnTable::from(&t);
        let country = schema.attr("country").unwrap();
        let cols = cols.columns_mut();
        assert_eq!(cols.len(), 2);
        let col = &cols[country.index()];
        assert_eq!(col.len(), 3);
        assert_eq!(col[0], sy.get("China").unwrap());
        assert_eq!(col[1], sy.get("Canada").unwrap());
        assert_eq!(col[2], sy.get("China").unwrap());
    }

    #[test]
    fn cell_access_matches_row_major() {
        let (schema, _, t) = sample();
        let mut cols = ColumnTable::from(&t);
        let cap = schema.attr("capital").unwrap();
        for i in 0..t.len() {
            assert_eq!(cols.columns_mut()[cap.index()][i], t.cell(i, cap));
        }
        // Writing through a column slice hits the stored cell.
        let fresh = Symbol(999);
        cols.columns_mut()[cap.index()][1] = fresh;
        assert_eq!(to_table(&schema, &mut cols).cell(1, cap), fresh);
    }

    #[test]
    fn empty_table_round_trips() {
        let schema = Schema::new("R", ["a", "b"]).unwrap();
        let t = Table::new(schema.clone());
        let mut cols = ColumnTable::from(&t);
        let columns = cols.columns_mut();
        assert_eq!(columns.len(), 2);
        assert!(columns.iter().all(|c| c.is_empty()));
        assert_eq!(to_table(&schema, &mut cols).len(), 0);
    }
}
