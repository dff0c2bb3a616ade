//! CSV import/export for [`Table`]s.
//!
//! The paper's datasets (hosp, uis) ship as delimited files; experiments in
//! `crates/eval` can persist generated datasets and repaired outputs so runs
//! are inspectable. Readers are buffered (`csv` buffers internally) and every
//! cell goes through the shared [`SymbolTable`] so a loaded table is
//! immediately usable by the rule engine.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use crate::{Result, Schema, Symbol, SymbolTable, Table};

/// Read a table from CSV text with a header row.
///
/// The header names become the schema attributes; `relation_name` names the
/// schema. Rows with a different arity than the header are rejected.
pub fn read_csv<R: Read>(
    reader: R,
    relation_name: &str,
    symbols: &mut SymbolTable,
) -> Result<Table> {
    // Stream the input through two reused records, the current row and the
    // one above it: a cell equal to the cell above reuses that cell's
    // symbol without a hash probe. Sorted and tiled inputs repeat most
    // cells from row to row, and symbols still come out in
    // first-occurrence order.
    let mut rdr = csv::ReaderBuilder::new()
        .has_headers(true)
        .flexible(false)
        .from_reader(reader);
    let schema = Schema::new(relation_name, rdr.headers()?.iter())?;
    let mut row = vec![Symbol(0); schema.arity()];
    let mut table = Table::new(schema);
    let mut record = csv::StringRecord::new();
    let mut above = csv::StringRecord::new();
    while rdr.read_record(&mut record)? {
        for (i, cell) in record.iter().enumerate() {
            if above.get(i) != Some(cell) {
                row[i] = symbols.intern(cell);
            }
        }
        table.push_row(&row)?;
        std::mem::swap(&mut record, &mut above);
    }
    Ok(table)
}

/// Read a table from a CSV file on disk.
pub fn read_csv_file<P: AsRef<Path>>(
    path: P,
    relation_name: &str,
    symbols: &mut SymbolTable,
) -> Result<Table> {
    let file = File::open(path)?;
    read_csv(file, relation_name, symbols)
}

/// Read only the header row of CSV text: the schema [`read_csv`] would
/// build, without reading a single record.
pub fn read_csv_header<R: Read>(reader: R, relation_name: &str) -> Result<Schema> {
    let mut rdr = csv::ReaderBuilder::new()
        .has_headers(true)
        .from_reader(reader);
    Schema::new(relation_name, rdr.headers()?.iter())
}

/// Write a table as CSV with a header row.
pub fn write_csv<W: Write>(writer: W, table: &Table, symbols: &SymbolTable) -> Result<()> {
    let mut wtr = csv::Writer::from_writer(writer);
    wtr.write_record(table.schema().attr_names())?;
    for i in 0..table.len() {
        wtr.write_record(table.row(i).iter().map(|&s| symbols.resolve(s)))?;
    }
    wtr.flush()?;
    Ok(())
}

/// Write a table to a CSV file on disk (the writer buffers internally).
pub fn write_csv_file<P: AsRef<Path>>(path: P, table: &Table, symbols: &SymbolTable) -> Result<()> {
    write_csv(File::create(path)?, table, symbols)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "country,capital\nChina,Beijing\nCanada,Ottawa\n";

    #[test]
    fn read_builds_schema_from_header() {
        let mut sy = SymbolTable::new();
        let t = read_csv(SAMPLE.as_bytes(), "Cap", &mut sy).unwrap();
        assert_eq!(t.schema().name(), "Cap");
        assert_eq!(t.schema().arity(), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row_strs(&sy, 1), vec!["Canada", "Ottawa"]);
    }

    #[test]
    fn round_trip_preserves_content() {
        let mut sy = SymbolTable::new();
        let t = read_csv(SAMPLE.as_bytes(), "Cap", &mut sy).unwrap();
        let mut out = Vec::new();
        write_csv(&mut out, &t, &sy).unwrap();
        let mut sy2 = SymbolTable::new();
        let t2 = read_csv(out.as_slice(), "Cap", &mut sy2).unwrap();
        assert_eq!(t.len(), t2.len());
        for i in 0..t.len() {
            assert_eq!(t.row_strs(&sy, i), t2.row_strs(&sy2, i));
        }
    }

    #[test]
    fn ragged_rows_rejected() {
        let bad = "a,b\n1\n";
        let mut sy = SymbolTable::new();
        assert!(read_csv(bad.as_bytes(), "R", &mut sy).is_err());
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        let mut sy = SymbolTable::new();
        let schema = Schema::new("R", ["addr", "city"]).unwrap();
        let mut t = Table::new(schema);
        t.push_strs(&mut sy, &["12 Main St, Apt 4", "Doha"])
            .unwrap();
        let mut out = Vec::new();
        write_csv(&mut out, &t, &sy).unwrap();
        let mut sy2 = SymbolTable::new();
        let t2 = read_csv(out.as_slice(), "R", &mut sy2).unwrap();
        assert_eq!(t2.row_strs(&sy2, 0)[0], "12 Main St, Apt 4");
    }

    #[test]
    fn header_only_input_has_no_rows() {
        let mut sy = SymbolTable::new();
        let t = read_csv("country,capital\n".as_bytes(), "Cap", &mut sy).unwrap();
        assert_eq!(t.schema().arity(), 2);
        assert!(t.is_empty());
        assert!(sy.is_empty());
    }

    #[test]
    fn lone_cr_ends_a_record() {
        let mut sy = SymbolTable::new();
        let t = read_csv("a,b\r1,2\r3,4".as_bytes(), "R", &mut sy).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row_strs(&sy, 1), vec!["3", "4"]);
    }

    #[test]
    fn invalid_utf8_cell_rejected() {
        let mut sy = SymbolTable::new();
        let err = read_csv(&b"a,b\n1,\xFF\n"[..], "R", &mut sy).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn repeated_column_value_interns_one_symbol() {
        let mut sy = SymbolTable::new();
        let t = read_csv("a,b\nx,1\nx,2\nx,3\n".as_bytes(), "R", &mut sy).unwrap();
        assert_eq!(sy.len(), 4);
        let col: Vec<_> = (0..t.len()).map(|i| t.row(i)[0]).collect();
        assert_eq!(col, vec![col[0]; 3]);
    }

    #[test]
    fn symbols_follow_first_occurrence_order() {
        // Repeats down a column, across columns, and after a gap.
        let rows = [["x", "y"], ["x", "x"], ["y", "x"], ["x", "z"], ["z", "z"]];
        let mut text = String::from("a,b\n");
        for r in &rows {
            text += &format!("{},{}\n", r[0], r[1]);
        }
        let mut sy = SymbolTable::new();
        let t = read_csv(text.as_bytes(), "R", &mut sy).unwrap();
        let mut sy2 = SymbolTable::new();
        let mut t2 = Table::new(Schema::new("R", ["a", "b"]).unwrap());
        for r in &rows {
            t2.push_strs(&mut sy2, r).unwrap();
        }
        assert_eq!(t.len(), t2.len());
        for i in 0..t.len() {
            assert_eq!(t.row(i), t2.row(i));
        }
        assert!(sy.iter().eq(sy2.iter()));
    }

    #[test]
    fn file_round_trip() {
        let mut sy = SymbolTable::new();
        let t = read_csv(SAMPLE.as_bytes(), "Cap", &mut sy).unwrap();
        let dir = std::env::temp_dir().join("relation_csv_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cap.csv");
        write_csv_file(&path, &t, &sy).unwrap();
        let mut sy2 = SymbolTable::new();
        let t2 = read_csv_file(&path, "Cap", &mut sy2).unwrap();
        assert_eq!(t2.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_read_matches_full_read() {
        let schema = read_csv_header(SAMPLE.as_bytes(), "Cap").unwrap();
        let mut sy = SymbolTable::new();
        let full = read_csv(SAMPLE.as_bytes(), "Cap", &mut sy).unwrap();
        assert_eq!(schema.name(), full.schema().name());
        assert!(schema.attr_names().eq(full.schema().attr_names()));
        assert_eq!(
            schema.attr_names().collect::<Vec<_>>(),
            ["country", "capital"]
        );
    }
}
