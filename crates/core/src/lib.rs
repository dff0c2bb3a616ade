//! # fixrules — dependable data repairing with fixing rules
//!
//! A faithful implementation of *"Towards Dependable Data Repairing with
//! Fixing Rules"* (Wang & Tang, SIGMOD 2014).
//!
//! A **fixing rule** `φ : ((X, tp[X]), (B, Tp[B])) → tp+[B]` combines
//!
//! * an **evidence pattern** `tp[X]` — constants over attributes `X` that,
//!   when matched, are taken as correct;
//! * **negative patterns** `Tp[B]` — values of attribute `B` known to be
//!   wrong given that evidence;
//! * a **fact** `tp+[B]` — the correct value of `B` given that evidence.
//!
//! A tuple *matches* the rule when `t[X] = tp[X]` and `t[B] ∈ Tp[B]`;
//! applying the rule deterministically sets `t[B] := tp+[B]` and marks
//! `X ∪ {B}` as *assured* (immutable for the rest of the repair).
//!
//! The crate provides:
//!
//! * [`FixingRule`] / [`RuleSet`] — validated rule construction
//!   ([`rule`], [`ruleset`]);
//! * the repairing semantics, chase, and unique-fix machinery
//!   ([`semantics`]);
//! * consistency checking, by rule characterization (`isConsist_r`, Fig 4)
//!   and by tuple enumeration (`isConsist_t`, §5.2.1), plus conflict
//!   resolution strategies ([`consistency`]);
//! * the implication test for fixed schemas (§4.3) ([`implication`]);
//! * the two repair algorithms: chase-based `cRepair` (Fig 6) and linear
//!   `lRepair` with inverted lists and hash counters (Fig 7), plus a
//!   parallel table driver ([`repair`]);
//! * per-cell repair provenance: a replayable ledger of rule applications
//!   with their evidence bindings, feeding `fixctl explain`
//!   ([`provenance`]);
//! * rule generation from FD violations with negative-pattern enrichment
//!   (§7.1) ([`generation`]);
//! * the paper's §8 future work: automatic rule discovery from dirty data
//!   alone ([`discovery`]) and interoperation with constant CFDs
//!   ([`bridge`]);
//! * rule serialization — a human-editable line format and a portable
//!   JSON document ([`io`]).
//!
//! # Example: the paper's running example (Fig 1–3)
//!
//! ```
//! use relation::{Schema, SymbolTable, Table};
//! use fixrules::{RuleSet, repair::{lrepair_table, LRepairIndex, NoopObserver}};
//!
//! let schema = Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap();
//! let mut sy = SymbolTable::new();
//!
//! let mut rules = RuleSet::new(schema.clone());
//! // φ1: country = China, capital ∈ {Shanghai, Hongkong} → capital := Beijing
//! rules.push_named(&mut sy, &[("country", "China")], "capital",
//!                  &["Shanghai", "Hongkong"], "Beijing").unwrap();
//! // φ2: country = Canada, capital ∈ {Toronto} → capital := Ottawa
//! rules.push_named(&mut sy, &[("country", "Canada")], "capital",
//!                  &["Toronto"], "Ottawa").unwrap();
//! assert!(rules.check_consistency().is_consistent());
//!
//! let mut table = Table::new(schema.clone());
//! table.push_strs(&mut sy, &["Ian", "China", "Shanghai", "Hongkong", "ICDE"]).unwrap();
//! let index = LRepairIndex::build(&rules);
//! let outcome = lrepair_table(&rules, &index, &mut table, &NoopObserver);
//! assert_eq!(outcome.total_updates(), 1);
//! let capital = schema.attr("capital").unwrap();
//! assert_eq!(sy.resolve(table.cell(0, capital)), "Beijing");
//! ```

#![warn(missing_docs)]

pub mod bridge;
pub mod consistency;
pub mod discovery;
pub mod generation;
pub mod implication;
pub mod io;
pub mod provenance;
pub mod repair;
pub mod rule;
pub mod ruleset;
pub mod semantics;

pub use consistency::{Conflict, ConsistencyReport};
pub use provenance::{ProvenanceLedger, ProvenanceObserver, ProvenanceRecord};
pub use rule::{FixRuleError, FixingRule};
pub use ruleset::{RuleId, RuleSet};
