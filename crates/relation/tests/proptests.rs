//! Property-based tests for the relational substrate.

use proptest::prelude::*;
use relation::{AttrId, AttrSet, Schema, SymbolTable, Table};

proptest! {
    /// Interning the same strings twice yields the same symbols, and
    /// resolving always round-trips.
    #[test]
    fn symbol_round_trip(values in proptest::collection::vec("[a-zA-Z0-9 ]{0,12}", 0..64)) {
        let mut t = SymbolTable::new();
        let first: Vec<_> = values.iter().map(|v| t.intern(v)).collect();
        let second: Vec<_> = values.iter().map(|v| t.intern(v)).collect();
        prop_assert_eq!(&first, &second);
        for (sym, v) in first.iter().zip(values.iter()) {
            prop_assert_eq!(t.resolve(*sym), v.as_str());
        }
        // Distinct strings must have distinct symbols.
        let mut seen = std::collections::HashMap::new();
        for (sym, v) in first.iter().zip(values.iter()) {
            if let Some(prev) = seen.insert(v.clone(), *sym) {
                prop_assert_eq!(prev, *sym);
            }
        }
    }

    /// AttrSet behaves like a HashSet<u16> under insert/remove/union.
    #[test]
    fn attrset_models_hashset(ops in proptest::collection::vec((0u16..128, any::<bool>()), 0..200)) {
        let mut bits = AttrSet::new();
        let mut model = std::collections::HashSet::new();
        for (attr, insert) in ops {
            let a = AttrId(attr);
            if insert {
                prop_assert_eq!(bits.insert(a), model.insert(attr));
            } else {
                prop_assert_eq!(bits.remove(a), model.remove(&attr));
            }
        }
        prop_assert_eq!(bits.len(), model.len());
        for a in bits.iter() {
            prop_assert!(model.contains(&a.0));
        }
    }

    /// Union/intersection/difference satisfy the usual algebraic laws.
    #[test]
    fn attrset_algebra(
        xs in proptest::collection::vec(0u16..128, 0..32),
        ys in proptest::collection::vec(0u16..128, 0..32),
    ) {
        let a = AttrSet::from_iter(xs.into_iter().map(AttrId));
        let b = AttrSet::from_iter(ys.into_iter().map(AttrId));
        prop_assert_eq!(a.union(b), b.union(a));
        prop_assert_eq!(a.intersect(b), b.intersect(a));
        prop_assert_eq!(a.union(b).len() , a.len() + b.len() - a.intersect(b).len());
        prop_assert!(a.difference(b).is_disjoint(b));
        prop_assert!(a.intersect(b).is_subset(a));
        prop_assert!(a.is_subset(a.union(b)));
    }

    /// Table cell writes are visible at exactly the written position.
    #[test]
    fn table_set_cell_is_local(
        rows in proptest::collection::vec(("[a-z]{1,4}", "[a-z]{1,4}", "[a-z]{1,4}"), 1..20),
        target_row in 0usize..20,
        target_col in 0u16..3,
    ) {
        let schema = Schema::new("R", ["a", "b", "c"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut t = Table::new(schema.clone());
        for (x, y, z) in &rows {
            t.push_strs(&mut sy, &[x, y, z]).unwrap();
        }
        let target_row = target_row % rows.len();
        let before = t.clone();
        let fresh = sy.intern("zz-unique-value-zz");
        t.set_cell(target_row, AttrId(target_col), fresh);
        let diffs = before.diff_positions(&t).unwrap();
        if before.cell(target_row, AttrId(target_col)) == fresh {
            prop_assert!(diffs.is_empty());
        } else {
            prop_assert_eq!(diffs, vec![(target_row, AttrId(target_col))]);
        }
    }

    /// Row-major → column-major conversion is lossless: every column
    /// slice agrees with the row view, and a table rebuilt from the
    /// columns equals the original.
    #[test]
    fn column_table_round_trip(
        rows in proptest::collection::vec(("[a-z]{0,6}", "[a-z]{0,6}", "[a-z]{0,6}"), 0..24),
    ) {
        let schema = Schema::new("R", ["a", "b", "c"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut t = Table::new(schema.clone());
        for (x, y, z) in &rows {
            t.push_strs(&mut sy, &[x, y, z]).unwrap();
        }
        let mut cols = relation::ColumnTable::from(&t);
        let cols = cols.columns_mut();
        prop_assert_eq!(cols.len(), 3);
        prop_assert!(cols.iter().all(|c| c.len() == t.len()));
        let mut back = Table::new(schema);
        for i in 0..t.len() {
            for a in 0..3u16 {
                prop_assert_eq!(cols[a as usize][i], t.cell(i, AttrId(a)));
            }
            let row: Vec<_> = cols.iter().map(|c| c[i]).collect();
            back.push_row(&row).unwrap();
        }
        prop_assert!(back.diff_positions(&t).unwrap().is_empty());
    }

    /// CSV round-trips arbitrary printable content, including separators.
    #[test]
    fn csv_round_trip(rows in proptest::collection::vec(("[ -~]{0,10}", "[ -~]{0,10}"), 1..16)) {
        let schema = Schema::new("R", ["x", "y"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut t = Table::new(schema);
        for (x, y) in &rows {
            t.push_strs(&mut sy, &[x, y]).unwrap();
        }
        let mut buf = Vec::new();
        relation::csv_io::write_csv(&mut buf, &t, &sy).unwrap();
        let mut sy2 = SymbolTable::new();
        let t2 = relation::csv_io::read_csv(buf.as_slice(), "R", &mut sy2).unwrap();
        prop_assert_eq!(t.len(), t2.len());
        for i in 0..t.len() {
            prop_assert_eq!(t.row_strs(&sy, i), t2.row_strs(&sy2, i));
        }
    }
}
