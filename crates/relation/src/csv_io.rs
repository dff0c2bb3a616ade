//! CSV import/export for [`Table`]s.
//!
//! The paper's datasets (hosp, uis) ship as delimited files; experiments in
//! `crates/eval` can persist generated datasets and repaired outputs so runs
//! are inspectable. Readers are buffered (`csv` buffers internally) and every
//! cell goes through the shared [`SymbolTable`] so a loaded table is
//! immediately usable by the rule engine.
//!
//! [`read_csv`] reads any stream, one record at a time; fixd reads request
//! bodies with it, and it is the reference for [`par_read_csv_file`],
//! which splits a file after its header into chunks that workers parse at
//! once, each into a chunk-local dictionary, and gives exactly
//! [`read_csv`]'s result (DESIGN.md §18). [`par_write_csv`] renders blocks
//! of rows on several workers and writes them in order; [`write_csv`] is
//! its one-worker case.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::mpsc;

use crate::{RelationError, Result, Schema, Symbol, SymbolTable, Table};

/// Bytes per chunk below which a file is not split further: an input under
/// twice this size is parsed on the calling thread, with no worker spawned.
const MIN_CHUNK_BYTES: u64 = 1 << 20;

/// Cells per storage block of every chunk after the first (256 KiB). The
/// merge appends the blocks to the table one at a time and frees each, so
/// it holds at most one block beyond the table itself.
const BLOCK_CELLS: usize = 1 << 16;

/// Rows rendered per block by [`par_write_csv`].
const RENDER_BLOCK_ROWS: usize = 512;

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

/// Read a table from a CSV file on disk, with one worker per available
/// core ([`par_read_csv_file`]).
pub fn read_csv_file<P: AsRef<Path>>(
    path: P,
    relation_name: &str,
    symbols: &mut SymbolTable,
) -> Result<Table> {
    par_read_csv_file(path, relation_name, symbols, available_threads())
}

/// Read a table from a CSV file on disk with up to `threads` workers.
///
/// The bytes after the header are cut into at most `threads` chunks of at
/// least 1 MiB each. A chunk speculatively starts just past the first
/// `\n` at or after its cut, and its worker parses the records that start
/// before the next chunk's start, interning them into a chunk-local
/// dictionary. A chunk is kept only if it starts exactly where the
/// previous chunk's parser stopped; otherwise its cut fell inside a
/// record (a quoted line break) and it is parsed again from that true
/// boundary. The dictionaries are then interned into `symbols` in chunk
/// order, so the table, the symbols and their order, and any error are
/// exactly what [`read_csv`] gives on the same bytes. The file is opened
/// once; workers read it at their own offsets.
pub fn par_read_csv_file<P: AsRef<Path>>(
    path: P,
    relation_name: &str,
    symbols: &mut SymbolTable,
    threads: usize,
) -> Result<Table> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let threads = threads.max(1) as u64;
    read_chunked(&file, relation_name, symbols, |data_start| {
        let span = len.saturating_sub(data_start);
        let chunks = (span / MIN_CHUNK_BYTES).clamp(1, threads);
        (1..chunks)
            .map(|k| data_start + span * k / chunks)
            .collect()
    })
}

/// Read only the header row of CSV text: the schema [`read_csv`] would
/// build, without reading a single record.
pub fn read_csv_header<R: Read>(reader: R, relation_name: &str) -> Result<Schema> {
    let mut rdr = csv::ReaderBuilder::new()
        .has_headers(true)
        .from_reader(reader);
    Schema::new(relation_name, rdr.headers()?.iter())
}

/// Append one CSV record and its line end to `buf`, quoting each field
/// exactly as `csv::Writer` quotes it.
pub fn push_record<'a>(buf: &mut Vec<u8>, fields: impl IntoIterator<Item = &'a str>) {
    for (k, field) in fields.into_iter().enumerate() {
        if k > 0 {
            buf.push(b',');
        }
        csv::push_field(buf, field);
    }
    buf.push(b'\n');
}

/// Write a table as CSV with a header row, rendering on the calling
/// thread ([`par_write_csv`] with one worker).
pub fn write_csv<W: Write>(writer: W, table: &Table, symbols: &SymbolTable) -> Result<()> {
    par_write_csv(writer, table, symbols, 1)
}

/// Write a table to a CSV file on disk, rendering with one worker per
/// available core ([`par_write_csv`]).
pub fn write_csv_file<P: AsRef<Path>>(path: P, table: &Table, symbols: &SymbolTable) -> Result<()> {
    par_write_csv(File::create(path)?, table, symbols, available_threads())
}

/// Write a table as CSV with a header row, with up to `threads` workers
/// rendering blocks of rows. Fields are quoted exactly as `csv::Writer`
/// quotes them.
///
/// Whether a value needs quotes is decided once per symbol of `symbols`,
/// not once per cell. Worker `w` of `n` renders blocks `w`, `w + n`, ...
/// into its own buffers and hands each to the writer, which takes them in
/// row order; a hand-over waits for the writer, so each worker has at
/// most two blocks in memory: one it renders, one being written. Workers
/// get at least two blocks each; with one worker, rendering stays on the
/// calling thread.
pub fn par_write_csv<W: Write>(
    mut writer: W,
    table: &Table,
    symbols: &SymbolTable,
    threads: usize,
) -> Result<()> {
    let mut header = Vec::new();
    push_record(&mut header, table.schema().attr_names());
    writer.write_all(&header)?;
    let blocks = table.len().div_ceil(RENDER_BLOCK_ROWS);
    if blocks == 0 {
        writer.flush()?;
        return Ok(());
    }
    let quoted: Vec<bool> = symbols.iter().map(|(_, v)| csv::needs_quotes(v)).collect();
    let render = |block: usize, buf: &mut Vec<u8>| {
        buf.clear();
        let first = block * RENDER_BLOCK_ROWS;
        for i in first..(first + RENDER_BLOCK_ROWS).min(table.len()) {
            for (k, &s) in table.row(i).iter().enumerate() {
                if k > 0 {
                    buf.push(b',');
                }
                let value = symbols.resolve(s);
                if quoted[s.index()] {
                    csv::push_field(buf, value);
                } else {
                    buf.extend_from_slice(value.as_bytes());
                }
            }
            buf.push(b'\n');
        }
    };
    let workers = threads.min(blocks / 2).max(1);
    if workers == 1 {
        let mut buf = Vec::new();
        for block in 0..blocks {
            render(block, &mut buf);
            writer.write_all(&buf)?;
        }
    } else {
        std::thread::scope(|scope| -> Result<()> {
            let render = &render;
            let lanes: Vec<_> = (0..workers)
                .map(|w| {
                    let (full_tx, full_rx) = mpsc::sync_channel::<Vec<u8>>(0);
                    let (spent_tx, spent_rx) = mpsc::channel::<Vec<u8>>();
                    scope.spawn(move || {
                        for block in (w..blocks).step_by(workers) {
                            let mut buf = spent_rx.try_recv().unwrap_or_default();
                            render(block, &mut buf);
                            if full_tx.send(buf).is_err() {
                                return; // the writer failed and hung up
                            }
                        }
                    });
                    (full_rx, spent_tx)
                })
                .collect();
            for block in 0..blocks {
                let (full_rx, spent_tx) = &lanes[block % workers];
                let buf = full_rx.recv().expect("CSV render worker panicked");
                writer.write_all(&buf)?;
                let _ = spent_tx.send(buf);
            }
            Ok(())
        })?;
    }
    writer.flush()?;
    Ok(())
}

/// Worker count for the file readers and writers: the available cores.
fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A byte source that threads can read at independent offsets.
trait ReadAt: Sync {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize>;
}

#[cfg(unix)]
impl ReadAt for File {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        std::os::unix::fs::FileExt::read_at(self, buf, offset)
    }
}

#[cfg(windows)]
impl ReadAt for File {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        std::os::windows::fs::FileExt::seek_read(self, buf, offset)
    }
}

#[cfg(test)]
impl ReadAt for [u8] {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let rest = self.get(offset as usize..).unwrap_or_default();
        let n = buf.len().min(rest.len());
        buf[..n].copy_from_slice(&rest[..n]);
        Ok(n)
    }
}

/// [`Read`] over a [`ReadAt`] source, from a starting offset on.
struct ReadFrom<'a, S: ?Sized> {
    src: &'a S,
    pos: u64,
}

impl<S: ReadAt + ?Sized> Read for ReadFrom<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.src.read_at(buf, self.pos)?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// The offset just past the first `\n` at or after `at`, or the end of
/// the input if there is none.
fn next_line_start<S: ReadAt + ?Sized>(src: &S, mut at: u64) -> io::Result<u64> {
    let mut buf = [0u8; 4096];
    loop {
        let n = src.read_at(&mut buf, at)?;
        match buf[..n].iter().position(|&b| b == b'\n') {
            Some(i) => return Ok(at + i as u64 + 1),
            None if n == 0 => return Ok(at),
            None => at += n as u64,
        }
    }
}

/// The chunked reader behind [`par_read_csv_file`]. `cuts` maps the
/// offset where the data starts (just past the header) to the offsets at
/// which chunks after the first are cut.
fn read_chunked<S: ReadAt + ?Sized>(
    src: &S,
    relation_name: &str,
    symbols: &mut SymbolTable,
    cuts: impl FnOnce(u64) -> Vec<u64>,
) -> Result<Table> {
    let mut rdr = csv::ReaderBuilder::new()
        .has_headers(true)
        .flexible(false)
        .from_reader(ReadFrom { src, pos: 0 });
    let schema = Schema::new(relation_name, rdr.headers()?.iter())?;
    let arity = schema.arity();
    let data_start = rdr.record_offset()?;
    let mut starts = vec![data_start];
    for cut in cuts(data_start) {
        let start = next_line_start(src, cut.max(data_start))?;
        if start > starts[starts.len() - 1] {
            starts.push(start);
        }
    }
    // Each chunk stops before the next one's start; the last runs to EOF.
    let bounds: Vec<u64> = starts[1..].iter().copied().chain([u64::MAX]).collect();
    let chunks: Vec<Chunk> = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..starts.len())
            .map(|k| {
                let (start, bound) = (starts[k], bounds[k]);
                scope.spawn(move || parse_chunk(src, start, bound, arity))
            })
            .collect();
        // The first chunk continues on the header's reader, on this thread,
        // so a one-chunk input is the sequential parse.
        let mut first = Chunk::new(data_start, bounds[0], usize::MAX);
        first.fill(&mut rdr, 0, arity);
        std::iter::once(first)
            .chain(
                workers
                    .into_iter()
                    .map(|w| w.join().expect("CSV chunk parser panicked")),
            )
            .collect()
    });
    let mut cells: Vec<Symbol> = Vec::new();
    // Where the sequential parse would stand after the chunks merged so far.
    let mut boundary = data_start;
    for mut chunk in chunks {
        if chunk.start != boundary {
            chunk = parse_chunk(src, boundary, chunk.bound, arity);
        }
        boundary = chunk.end;
        let map: Vec<Symbol> = chunk.dict.values().map(|v| symbols.intern(v)).collect();
        let identity = map.iter().enumerate().all(|(i, s)| s.index() == i);
        for block in chunk.blocks {
            if cells.is_empty() {
                cells = block;
                if !identity {
                    cells.iter_mut().for_each(|s| *s = map[s.index()]);
                }
            } else {
                cells.extend(block.iter().map(|s| map[s.index()]));
            }
        }
        if let Some(error) = chunk.error {
            return Err(error);
        }
    }
    Ok(Table::from_cells(schema, cells))
}

/// Parse the chunk of records that start in `[start, bound)` with a
/// reader of its own.
fn parse_chunk<S: ReadAt + ?Sized>(src: &S, start: u64, bound: u64, arity: usize) -> Chunk {
    let mut rdr = csv::ReaderBuilder::new()
        .has_headers(false)
        .flexible(false)
        .expect_fields(arity)
        .from_reader(ReadFrom { src, pos: start });
    let mut chunk = Chunk::new(start, bound, BLOCK_CELLS);
    chunk.fill(&mut rdr, start, arity);
    chunk
}

/// One chunk's parse: its rows as chunk-local ids, the chunk's dictionary,
/// and where its parser stopped.
struct Chunk {
    /// Where the parser started.
    start: u64,
    /// The parser stops at the first record starting at or past this.
    bound: u64,
    /// Where the record after the chunk's last one starts.
    end: u64,
    /// Row-major cells, at most `block_cells` per block.
    blocks: Vec<Vec<Symbol>>,
    block_cells: usize,
    dict: LocalDict,
    /// The error that stopped the parse before `bound`, if any.
    error: Option<RelationError>,
}

impl Chunk {
    fn new(start: u64, bound: u64, block_cells: usize) -> Self {
        Chunk {
            start,
            bound,
            end: start,
            blocks: vec![Vec::with_capacity(block_cells.min(BLOCK_CELLS))],
            block_cells,
            dict: LocalDict::default(),
            error: None,
        }
    }

    /// Parse records with `rdr`, whose input begins at offset `base`.
    fn fill<R: Read>(&mut self, rdr: &mut csv::Reader<R>, base: u64, arity: usize) {
        if let Err(e) = self.try_fill(rdr, base, arity) {
            self.error = Some(e);
        }
    }

    fn try_fill<R: Read>(
        &mut self,
        rdr: &mut csv::Reader<R>,
        base: u64,
        arity: usize,
    ) -> Result<()> {
        // As in `read_csv`: a cell equal to the cell above skips the probe.
        let mut row = vec![Symbol(0); arity];
        let mut record = csv::StringRecord::new();
        let mut above = csv::StringRecord::new();
        loop {
            self.end = base + rdr.record_offset()?;
            if self.end >= self.bound || !rdr.read_record(&mut record)? {
                return Ok(());
            }
            for (i, cell) in record.iter().enumerate() {
                if above.get(i) != Some(cell) {
                    row[i] = Symbol(self.dict.intern(cell));
                }
            }
            if self.blocks[self.blocks.len() - 1].len() + arity > self.block_cells {
                self.blocks.push(Vec::with_capacity(self.block_cells));
            }
            let last = self.blocks.len() - 1;
            self.blocks[last].extend_from_slice(&row);
            std::mem::swap(&mut record, &mut above);
        }
    }
}

/// A chunk-local string dictionary: each distinct value stored once in
/// one arena, under an id in first-occurrence order. The dictionaries
/// coexist with the table at peak memory, so they keep no allocation per
/// value (an `FxHashMap<Box<str>, u32>` measured 4 MiB more peak RSS on a
/// 200k-row, 49k-value input). It lives for one load, so it hashes with
/// FxHash instead of the [`SymbolTable`]'s SipHash; each value is interned
/// into the shared table once, at the merge.
#[derive(Default)]
struct LocalDict {
    text: String,
    /// End of value `i` in `text`; it starts where value `i - 1` ends.
    ends: Vec<usize>,
    hashes: Vec<u64>,
    /// Open addressing with linear probing: `id + 1`, or 0 when empty.
    /// The length is zero or a power of two.
    slots: Vec<u32>,
}

impl LocalDict {
    fn value(&self, id: usize) -> &str {
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.text[start..self.ends[id]]
    }

    /// The values in id order.
    fn values(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len()).map(|id| self.value(id))
    }

    fn intern(&mut self, value: &str) -> u32 {
        if 2 * self.hashes.len() >= self.slots.len() {
            self.grow();
        }
        let hash = fxhash::hash64(value);
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            match self.slots[i] {
                0 => {
                    let id = self.hashes.len();
                    self.text.push_str(value);
                    self.ends.push(self.text.len());
                    self.hashes.push(hash);
                    self.slots[i] = id as u32 + 1;
                    return id as u32;
                }
                slot => {
                    let id = slot as usize - 1;
                    if self.hashes[id] == hash && self.value(id) == value {
                        return id as u32;
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// The first slot to probe: the hash's top bits, which FxHash's final
    /// multiply mixes best.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn grow(&mut self) {
        self.slots = vec![0; (2 * self.slots.len()).max(1024)];
        let mask = self.slots.len() - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut i = self.home(hash);
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = id as u32 + 1;
        }
    }
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

    type Rows = std::result::Result<Vec<Vec<Symbol>>, String>;

    /// What a read left behind: the rows or the error text, and every
    /// symbol in interning order.
    fn outcome(result: Result<Table>, symbols: &SymbolTable) -> (Rows, Vec<String>) {
        let rows = result
            .map(|t| t.rows().map(<[Symbol]>::to_vec).collect())
            .map_err(|e| e.to_string());
        (rows, symbols.iter().map(|(_, v)| v.to_string()).collect())
    }

    /// A symbol table that already holds values, so chunk dictionaries do
    /// not map onto symbol ids one to one.
    fn seeded_symbols() -> SymbolTable {
        let mut sy = SymbolTable::new();
        for v in ["x", "zz", "é"] {
            sy.intern(v);
        }
        sy
    }

    fn assert_chunked_matches(data: &[u8], cuts: &[u64]) {
        let mut want_sy = seeded_symbols();
        let want = outcome(read_csv(data, "R", &mut want_sy), &want_sy);
        let mut got_sy = seeded_symbols();
        let got = read_chunked(data, "R", &mut got_sy, |_| cuts.to_vec());
        assert_eq!(
            outcome(got, &got_sy),
            want,
            "input {:?} cut at {cuts:?}",
            String::from_utf8_lossy(data)
        );
    }

    #[test]
    fn chunked_read_matches_read_csv_at_every_cut() {
        let cases: [&[u8]; 12] = [
            // A quoted `\n` and `\r\n` across a cut, and `""` escapes.
            b"a,b\nx,\"1\n2\"\n\"p\r\nq\",y\nx,\"say \"\"hi\"\"\"\n",
            // CRLF terminators, split between `\r` and `\n`.
            b"a,b\r\nx,1\r\nzz,2\r\nx,3\r\n",
            // Multi-byte UTF-8 on both sides of a line break.
            "a,b\né,ü\nü,é\n€,x\n".as_bytes(),
            // No trailing newline.
            b"a,b\nx,1\ny,2",
            // Header only, with and without its newline.
            b"a,b\n",
            b"a,b",
            // A ragged row, invalid UTF-8 and an unterminated quote, each
            // in a later record.
            b"a,b\nx,1\ny,2\nz\nw,4\n",
            b"a,b\nx,1\ny,2\nz,\xFF\nw,4\n",
            b"a,b\nx,1\ny,2\nz,\"open\nw,4\n",
            // A mid-field quote is literal; lone `\r` ends a record.
            b"a,b\nx\"y,1\r\"q\"\"\",2\rzz,x\n",
            // Empty fields and empty lines.
            b"a,b\n,\n\n,x\n",
            // Quoted line breaks that straddle several cuts.
            b"a,b\n\"1\n2\n3\n4\",x\ny,\"5\n\n6\"\n",
        ];
        for data in cases {
            let len = data.len() as u64;
            for cut in 0..=len + 1 {
                assert_chunked_matches(data, &[cut]);
            }
            for a in 0..=len {
                for b in a..=len {
                    assert_chunked_matches(data, &[a, b]);
                }
            }
            for a in (0..=len).step_by(3) {
                for b in (a..=len).step_by(2) {
                    assert_chunked_matches(data, &[a, b, (b + 3).min(len)]);
                }
            }
        }
    }

    /// SplitMix64, for the randomized differential test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    #[test]
    fn chunked_read_matches_read_csv_on_random_inputs() {
        // Quotes, separators, both line breaks, "é" whole and halved, and
        // a byte that is never UTF-8.
        let tokens: [&[u8]; 11] = [
            b"a",
            b"b",
            "é".as_bytes(),
            b",",
            b",",
            b"\"",
            b"\r",
            b"\n",
            b"\n",
            b"\xC3",
            b"\xFF",
        ];
        let mut rng = Rng(0xC4A7);
        for case in 0..3_000 {
            let mut data = b"h1,h2\n".to_vec();
            for _ in 0..rng.below(60) {
                let t = if rng.below(6) == 0 {
                    rng.below(tokens.len())
                } else {
                    rng.below(9)
                };
                data.extend_from_slice(tokens[t]);
            }
            let chunks = 1 + case % 4;
            let mut cuts: Vec<u64> = (1..chunks)
                .map(|_| rng.below(data.len() + 1) as u64)
                .collect();
            cuts.sort_unstable();
            assert_chunked_matches(&data, &cuts);
        }
    }

    #[test]
    fn file_reader_and_writer_match_the_references_at_any_thread_count() {
        // Over 4 MiB, so the reader splits into up to four chunks and the
        // writer renders many blocks; some values need quotes.
        let mut text = String::from("id,name,note\n");
        for i in 0..60_000 {
            let note = match i % 5 {
                0 => "plain".to_string(),
                1 => format!("\"q{}\"", i % 7),
                2 => format!("\"line\nbreak {}\"", i % 3),
                3 => format!("\"a,b \"\"{}\"\"\"", i % 11),
                _ => format!("n{}", i % 977),
            };
            text += &format!("r{i},name{},{note}\r\n", i % 1234);
        }
        let dir = std::env::temp_dir().join(format!("relation_par_csv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("in.csv");
        std::fs::write(&path, &text).unwrap();
        let mut want_sy = seeded_symbols();
        let want = read_csv(text.as_bytes(), "R", &mut want_sy).unwrap();
        // The reference render: `csv::Writer`, one record at a time.
        let render = |table: &Table, symbols: &SymbolTable| {
            let mut out = Vec::new();
            let mut wtr = csv::Writer::from_writer(&mut out);
            wtr.write_record(table.schema().attr_names()).unwrap();
            for row in table.rows() {
                wtr.write_record(row.iter().map(|&s| symbols.resolve(s)))
                    .unwrap();
            }
            wtr.flush().unwrap();
            drop(wtr);
            out
        };
        let want_out = render(&want, &want_sy);
        let mut header_only = Vec::new();
        write_csv(
            &mut header_only,
            &Table::new(want.schema().clone()),
            &want_sy,
        )
        .unwrap();
        assert_eq!(
            header_only,
            render(&Table::new(want.schema().clone()), &want_sy)
        );
        for threads in 1..=4 {
            let mut sy = seeded_symbols();
            let got = par_read_csv_file(&path, "R", &mut sy, threads).unwrap();
            assert!(got.rows().eq(want.rows()), "threads={threads}");
            assert!(sy.iter().eq(want_sy.iter()), "threads={threads}");
            let mut out = Vec::new();
            par_write_csv(&mut out, &got, &sy, threads).unwrap();
            assert!(out == want_out, "render differs at threads={threads}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn local_dict_keeps_first_occurrence_ids_across_growth() {
        let mut dict = LocalDict::default();
        let values: Vec<String> = (0..5_000).map(|i| format!("v{}", i % 3_000)).collect();
        let ids: Vec<u32> = values.iter().map(|v| dict.intern(v)).collect();
        for (v, &id) in values.iter().zip(&ids) {
            assert_eq!(dict.value(id as usize), v);
        }
        assert_eq!(dict.values().count(), 3_000);
        assert!(dict.values().eq((0..3_000).map(|i| format!("v{i}"))));
    }
}
