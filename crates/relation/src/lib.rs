//! Relational substrate for the `fixrules` workspace.
//!
//! The SIGMOD'14 fixing-rules algorithms only ever compare attribute values
//! for equality, so this crate represents every cell as an interned
//! [`Symbol`] (a `u32` handle into a [`SymbolTable`]). Schemas assign a dense
//! [`AttrId`] to each attribute, tuples are flat `Vec<Symbol>` rows inside a
//! [`Table`], and sets of attributes are tracked with an [`AttrSet`] bitset
//! so the hot repair loops never hash strings.
//!
//! # Quick tour
//!
//! ```
//! use relation::{Schema, SymbolTable, Table};
//!
//! let schema = Schema::new(
//!     "Travel",
//!     ["name", "country", "capital", "city", "conf"],
//! ).unwrap();
//! let mut symbols = SymbolTable::new();
//! let mut table = Table::new(schema.clone());
//! table.push_strs(&mut symbols, &["George", "China", "Beijing", "Beijing", "SIGMOD"]).unwrap();
//! assert_eq!(table.len(), 1);
//! let capital = schema.attr("capital").unwrap();
//! assert_eq!(symbols.resolve(table.row(0)[capital.index()]), "Beijing");
//! ```

pub mod attrset;
mod column;
pub mod csv_io;
pub mod error;
pub mod schema;
pub mod symbol;
pub mod table;

pub use attrset::AttrSet;
pub use column::ColumnTable;
pub use error::RelationError;
pub use schema::{AttrId, Schema};
pub use symbol::{Symbol, SymbolTable};
pub use table::{Table, TupleRef};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RelationError>;
