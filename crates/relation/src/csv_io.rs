//! CSV import/export for [`Table`]s.
//!
//! The paper's datasets (hosp, uis) ship as delimited files; experiments in
//! `crates/eval` can persist generated datasets and repaired outputs so runs
//! are inspectable. Every cell a reader keeps goes through a
//! [`SymbolTable`], so a loaded table is immediately usable by the rule
//! engine.
//!
//! [`read_csv`] reads any stream, one record at a time, with the `csv`
//! reader. It is the reference for the two chunked file readers, which
//! split a file after its header into chunks that workers scan at once
//! (DESIGN.md §18) with one record scanner, and differ only in what a cell
//! becomes:
//!
//! * [`par_read_csv_file`] interns every cell, each chunk into a
//!   chunk-local dictionary, and gives exactly [`read_csv`]'s result;
//! * [`par_read_csv_constants`] keeps only the values a table of constants
//!   already holds and loads every other cell as [`Symbol::BOTTOM`].
//!
//! [`par_write_csv`] renders blocks of rows on several workers and writes
//! them in order; [`write_csv`] is its one-worker case.
//!
//! [`par_repair_csv`] never builds a table: it scans a file in fixed
//! chunks with the same scanner and the constants' cells, hands each
//! chunk's rows to a caller's repair step, renders them back out of the
//! chunk's own bytes and writes the chunks in order, so its memory does
//! not grow with the file.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, PoisonError};
use std::time::Instant;

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

/// Rendered blocks per render worker that may wait to be written.
const RENDER_AHEAD: usize = 4;

/// Bytes of input per chunk of [`par_repair_csv`]. Smaller chunks pay for
/// more handoffs, and larger ones fault in more output buffers in flight;
/// EXPERIMENTS.md has the measured sizes.
const PIPELINE_CHUNK_BYTES: u64 = 256 << 10;

/// Bytes a [`par_repair_csv`] chunk reads past the cut that ends it, so
/// that the line end after that cut nearly always arrives in the same
/// read.
const PIPELINE_SLACK_BYTES: usize = 4 << 10;

/// Bytes at least by which a window that keeps its bytes grows when a
/// record runs past its end.
const KEEP_GROW_BYTES: usize = 64 << 10;

/// Bytes a chunk scanner reads at a time. Its window grows past this only
/// for a record that does not fit.
const WINDOW_BYTES: usize = 256 << 10;

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
/// The bytes after the header are cut into chunks of at least 1 MiB
/// that shrink towards the end of the file, and the workers claim them
/// one at a time. A chunk speculatively starts just past the first
/// `\n` at or after its cut, and its worker scans the records that start
/// before the next chunk's start, interning them into a chunk-local
/// dictionary. A chunk is kept only if it starts exactly where the
/// previous chunk's scan stopped; otherwise its cut fell inside a record
/// (a quoted line break) and it is scanned again from that true boundary.
/// The dictionaries are then interned into `symbols` in chunk order, so
/// the table, the symbols and their order, and any error are exactly what
/// [`read_csv`] gives on the same bytes. The file is opened once; workers
/// read it at their own offsets.
pub fn par_read_csv_file<P: AsRef<Path>>(
    path: P,
    relation_name: &str,
    symbols: &mut SymbolTable,
    threads: usize,
) -> Result<Table> {
    let file = File::open(path)?;
    let cuts = guided_cuts(file.metadata()?.len(), threads);
    read_interned(&file, relation_name, symbols, cuts, threads)
}

/// Load a CSV file on disk with up to `threads` workers, keeping only the
/// values that `constants` holds: every cell becomes its constant's symbol
/// or [`Symbol::BOTTOM`]. No value outside `constants` is stored anywhere,
/// and `constants` is only read. `schema` is the file's header, as
/// [`read_csv_header`] read it; the table is built on it, so rules parsed
/// against it apply to the table.
///
/// Chunks are cut, scanned and checked as in [`par_read_csv_file`], so
/// the rows and any error are [`read_csv`]'s, with each cell outside
/// `constants` replaced by ⊥.
pub fn par_read_csv_constants<P: AsRef<Path>>(
    path: P,
    schema: &Schema,
    constants: &SymbolTable,
    threads: usize,
) -> Result<Table> {
    let file = File::open(path)?;
    let cuts = guided_cuts(file.metadata()?.len(), threads);
    read_constants(&file, schema, constants, cuts, threads)
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
/// rendering blocks of rows, written in order. Fields are quoted exactly
/// as `csv::Writer` quotes them; whether a value needs quotes is decided
/// once per symbol of `symbols`, not once per cell.
pub fn par_write_csv<W: Write>(
    mut writer: W,
    table: &Table,
    symbols: &SymbolTable,
    threads: usize,
) -> Result<()> {
    let mut header = Vec::new();
    push_record(&mut header, table.schema().attr_names());
    writer.write_all(&header)?;
    let quoted: Vec<bool> = symbols.iter().map(|(_, v)| csv::needs_quotes(v)).collect();
    let blocks = table.len().div_ceil(RENDER_BLOCK_ROWS);
    write_blocks(
        &mut writer,
        blocks,
        threads.min(blocks / 2),
        |_| (),
        |_: &mut (), block, buf| {
            for i in block_rows(block, table.len()) {
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
            Ok(())
        },
    )?;
    writer.flush()?;
    Ok(())
}

/// The rows of render block `block` of a table of `rows` rows.
fn block_rows(block: usize, rows: usize) -> std::ops::Range<usize> {
    let first = block * RENDER_BLOCK_ROWS;
    first..(first + RENDER_BLOCK_ROWS).min(rows)
}

/// Render blocks `0..blocks` with up to `workers` workers and write them
/// to `writer` in order. Returns each worker's scratch, in worker order.
///
/// `render` fills a cleared buffer with one block, given the calling
/// worker's own scratch, which `scratch` makes from the worker's number.
/// Workers take the next block to render from a queue, in order, so one
/// whose core is taken away holds up only the block it has; the writer
/// puts the rendered blocks back in order. The queue runs at most
/// [`RENDER_AHEAD`] blocks per worker past the block being written, which
/// bounds the buffers in memory, and each written buffer goes back into
/// the queue with the next block. The first block that fails, in block
/// order, ends the writing with its error. With one worker, rendering
/// stays on the calling thread.
fn write_blocks<W: Write, T: Send>(
    writer: &mut W,
    blocks: usize,
    workers: usize,
    scratch: impl Fn(usize) -> T + Sync,
    render: impl Fn(&mut T, usize, &mut Vec<u8>) -> Result<()> + Sync,
) -> Result<Vec<T>> {
    if workers <= 1 {
        let (mut scratch, mut buf) = (scratch(0), Vec::new());
        for block in 0..blocks {
            buf.clear();
            render(&mut scratch, block, &mut buf)?;
            writer.write_all(&buf)?;
        }
        return Ok(vec![scratch]);
    }
    let ahead = (RENDER_AHEAD * workers).min(blocks);
    let (queue, jobs) = mpsc::channel::<(usize, Vec<u8>)>();
    let jobs = Mutex::new(jobs);
    let (done, rendered) = mpsc::channel::<(usize, Result<Vec<u8>>)>();
    std::thread::scope(|scope| {
        // Moved in, so that it closes when the writer returns.
        let queue = queue;
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (scratch, render, jobs, done) = (&scratch, &render, &jobs, done.clone());
                scope.spawn(move || {
                    let mut scratch = scratch(worker);
                    loop {
                        // A statement of its own, so the lock is not held
                        // while the block renders. The queue closes when
                        // the writer returns.
                        let job = jobs.lock().expect("render queue").recv();
                        let Ok((block, mut buf)) = job else {
                            return scratch;
                        };
                        buf.clear();
                        // A panic still reports the block, so the writer
                        // does not wait for it; the scope then raises the
                        // panic.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                render(&mut scratch, block, &mut buf)
                            }));
                        let (result, panic) = match outcome {
                            Ok(r) => (r.map(|()| buf), None),
                            Err(p) => (Err(csv_error("render worker panicked".into())), Some(p)),
                        };
                        // `rendered` outlives the scope, so this cannot fail.
                        let _ = done.send((block, result));
                        if let Some(p) = panic {
                            std::panic::resume_unwind(p);
                        }
                    }
                })
            })
            .collect();
        drop(done);
        for block in 0..ahead {
            queue
                .send((block, Vec::new()))
                .expect("the render queue outlives the writer");
        }
        // Block `b` waits in slot `b % ahead`: at most `ahead` blocks past
        // the one being written are out.
        let mut slots: Vec<Option<Result<Vec<u8>>>> = (0..ahead).map(|_| None).collect();
        for block in 0..blocks {
            let buf = loop {
                if let Some(result) = slots[block % ahead].take() {
                    break result?;
                }
                let (b, result) = rendered.recv().expect("CSV render worker panicked");
                slots[b % ahead] = Some(result);
            };
            writer.write_all(&buf)?;
            if block + ahead < blocks {
                queue
                    .send((block + ahead, buf))
                    .expect("the render queue outlives the writer");
            }
        }
        drop(queue);
        Ok(handles
            .into_iter()
            .map(|h| h.join().expect("CSV render worker panicked"))
            .collect())
    })
}

/// One chunk's rows, as [`par_repair_csv`] hands them to its repair step.
pub struct ChunkRows<'a> {
    /// The number of the chunk's first row in the file; the record after
    /// the header is row 0.
    pub first_row: usize,
    /// The rows' cells, one row after another in the schema's order, each
    /// a constant's symbol or [`Symbol::BOTTOM`].
    pub cells: &'a mut [Symbol],
    /// Row `i` is written as its own bytes.
    verbatim: &'a mut [bool],
}

impl ChunkRows<'_> {
    /// Mark the chunk's row `i` as changed, so that it is rendered from
    /// [`ChunkRows::cells`] instead of copied from the file.
    pub fn touch(&mut self, i: usize) {
        self.verbatim[i] = false;
    }
}

/// Where [`par_repair_csv`] failed.
#[derive(Debug)]
pub enum PipelineError {
    /// Reading the input: an I/O error, or the first malformed record in
    /// file order, worded as [`read_csv`] words it.
    Read(RelationError),
    /// Writing the output.
    Write(RelationError),
}

/// Busy time per phase of a [`par_repair_csv`] run, in nanoseconds summed
/// over its workers; `write` is the writing thread's.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineTimes {
    /// Reading and scanning chunks, rescans included.
    pub scan_ns: u64,
    /// The caller's repair step.
    pub repair_ns: u64,
    /// Rendering repaired chunks.
    pub render_ns: u64,
    /// Writing rendered chunks.
    pub write_ns: u64,
    /// Waiting for an earlier chunk to confirm where it ends.
    pub wait_ns: u64,
}

/// What a [`par_repair_csv`] run leaves: how many rows it read, each
/// worker's state in worker order, and its busy time per phase.
#[derive(Debug)]
pub struct Pipelined<T> {
    pub rows: usize,
    pub workers: Vec<T>,
    pub times: PipelineTimes,
}

/// Repair the CSV file at `data` into `out` with up to `threads` workers,
/// one fixed-size chunk of the file at a time, never holding the table.
///
/// `schema` is the file's header, as [`read_csv_header`] read it, and
/// `constants` the values to keep: every other cell reaches the repair
/// step as [`Symbol::BOTTOM`], as in [`par_read_csv_constants`]. Each
/// worker makes its state with `worker` from its number, and gives it to
/// `repair` with every chunk it takes; `repair` may change the cells and
/// must [touch](ChunkRows::touch) each row it changes.
///
/// The bytes after the header are cut every 256 KiB, and workers claim
/// the chunks in file order, at most four per worker ahead of the chunk
/// being written. A worker reads its chunk's bytes once into its own
/// buffer, and scans the records that start from just past the first
/// `\n` at or after the chunk's cut up to the same point after the next
/// cut, as [`par_read_csv_file`] does. Then it waits until every earlier
/// chunk has confirmed where it ends, which gives it its true start and
/// its first row's number. A chunk whose guessed start is not its true
/// start (a quoted line break straddles the cut) is scanned again from
/// the true one. The worker then repairs its rows and renders them: an
/// untouched row that holds no `"` is its bytes with the line end made
/// `\n`, and every other row is rendered field by field, each cell from
/// `constants` unless it is ⊥, in which case from the file. The calling
/// thread writes the header and then the chunks in order. The bytes are
/// those [`write_csv`] gives for the table [`read_csv`] loads from `data`,
/// repaired alike.
///
/// The error is the first in file order, from a chunk scanned from its
/// true start; a failing chunk wakes every worker waiting for it, and
/// nothing after it is written. An input of one chunk, and any input at
/// one worker, runs on the calling thread.
pub fn par_repair_csv<P, Wr, T>(
    data: P,
    schema: &Schema,
    constants: &SymbolTable,
    out: Wr,
    threads: usize,
    worker: impl Fn(usize) -> T + Sync,
    repair: impl Fn(&mut T, ChunkRows<'_>) + Sync,
) -> std::result::Result<Pipelined<T>, PipelineError>
where
    P: AsRef<Path>,
    Wr: Write,
    T: Send,
{
    let read = |e: io::Error| PipelineError::Read(e.into());
    let file = File::open(data).map_err(read)?;
    let len = file.metadata().map_err(read)?.len();
    let pipeline = Pipeline {
        src: &file,
        len,
        schema,
        constants,
        chunk_bytes: PIPELINE_CHUNK_BYTES,
    };
    pipeline.run(out, threads, worker, repair)
}

/// A [`par_repair_csv`] run over any [`ReadAt`] source of `len` bytes, cut
/// into chunks of `chunk_bytes`.
struct Pipeline<'a, S: ?Sized> {
    src: &'a S,
    len: u64,
    schema: &'a Schema,
    constants: &'a SymbolTable,
    chunk_bytes: u64,
}

/// One pipeline worker's buffers and the caller's state.
struct Stage<'a, S: ?Sized, T> {
    window: Window<'a, S>,
    chunk: Chunk<&'a ConstantIndex>,
    record: Record,
    times: PipelineTimes,
    state: T,
}

impl<S: ReadAt + ?Sized> Pipeline<'_, S> {
    fn run<Wr: Write, T: Send>(
        &self,
        out: Wr,
        threads: usize,
        worker: impl Fn(usize) -> T + Sync,
        repair: impl Fn(&mut T, ChunkRows<'_>) + Sync,
    ) -> std::result::Result<Pipelined<T>, PipelineError> {
        let read = PipelineError::Read;
        let mut rdr = csv::ReaderBuilder::new()
            .has_headers(true)
            .flexible(false)
            .from_reader(ReadFrom {
                src: self.src,
                pos: 0,
            });
        if !rdr
            .headers()
            .map_err(|e| read(e.into()))?
            .iter()
            .eq(self.schema.attr_names())
        {
            return Err(read(header_differs()));
        }
        let data_start = rdr.record_offset().map_err(|e| read(e.into()))?;
        let chunks = usize::try_from(
            self.len
                .saturating_sub(data_start)
                .div_ceil(self.chunk_bytes),
        )
        .unwrap_or(usize::MAX)
        .max(1);
        let index = ConstantIndex::new(self.constants);
        let chain = Chain::new(data_start);
        let mut out = TimedWriter {
            inner: out,
            ns: 0,
            failed: false,
        };
        let mut header = Vec::new();
        push_record(&mut header, self.schema.attr_names());
        let written = out
            .write_all(&header)
            .map_err(RelationError::from)
            .and_then(|()| {
                write_blocks(
                    &mut out,
                    chunks,
                    threads.min(chunks),
                    |w| Stage {
                        window: Window::new(self.src, true),
                        chunk: Chunk::new(&index, usize::MAX, true),
                        record: Record::default(),
                        times: PipelineTimes::default(),
                        state: worker(w),
                    },
                    |stage, k, buf| {
                        let cut = |k: usize| data_start + k as u64 * self.chunk_bytes;
                        let next = (k + 1 < chunks).then(|| cut(k + 1));
                        self.chunk(stage, &chain, k, (cut(k), next), &repair, buf)
                    },
                )
            });
        let stages = written.map_err(|e| {
            if out.failed {
                PipelineError::Write(e)
            } else {
                read(e)
            }
        })?;
        let mut times = PipelineTimes {
            write_ns: out.ns,
            ..PipelineTimes::default()
        };
        let workers = stages
            .into_iter()
            .map(|stage| {
                let t = stage.times;
                times.scan_ns += t.scan_ns;
                times.repair_ns += t.repair_ns;
                times.render_ns += t.render_ns;
                times.wait_ns += t.wait_ns;
                stage.state
            })
            .collect();
        let rows = chain.lock().rows;
        Ok(Pipelined {
            rows,
            workers,
            times,
        })
    }

    /// Chunk `k`, which starts at the first line start at or after `cut`
    /// (or at `cut` itself for chunk 0) and ends at the first line start at
    /// or after `next`, or at the end of the file: scan, confirm, repair
    /// and render it into `buf`.
    fn chunk<T>(
        &self,
        stage: &mut Stage<'_, S, T>,
        chain: &Chain,
        k: usize,
        (cut, next): (u64, Option<u64>),
        repair: &impl Fn(&mut T, ChunkRows<'_>),
        buf: &mut Vec<u8>,
    ) -> Result<()> {
        let arity = self.schema.arity();
        let mut turn = Turn {
            chain,
            k,
            published: false,
        };
        let started = Instant::now();
        let Stage {
            window,
            chunk,
            record,
            times,
            state,
        } = stage;
        let want = next.map_or(u64::MAX, |n| n - cut + PIPELINE_SLACK_BYTES as u64);
        let left = self.len.saturating_sub(cut) + 1;
        window.load(cut, usize::try_from(want.min(left)).unwrap_or(usize::MAX))?;
        let guess = if k == 0 { cut } else { window.line_start(cut)? };
        let bound = match next {
            Some(next) => window.line_start(next)?,
            None => u64::MAX,
        };
        // Scanned from a wrong guess, a record may run on far past the
        // bound (a quote that closed a field now opens one), so the guess
        // reads at most one chunk past it; a guess that was right, but
        // whose last record is longer than that, is scanned again.
        window.limit = bound.saturating_add(self.chunk_bytes);
        window.capped = false;
        chunk.rescan(window, guess, bound, arity);
        window.limit = u64::MAX;
        let scanned = Instant::now();
        times.scan_ns += nanos(started, scanned);
        let Some((start, first_row)) = chain.wait(k) else {
            return Err(csv_error("an earlier chunk failed".to_string()));
        };
        let confirmed = Instant::now();
        times.wait_ns += nanos(scanned, confirmed);
        if start != guess || window.capped {
            chunk.rescan(window, start, bound, arity);
            times.scan_ns += nanos(confirmed, Instant::now());
        }
        if let Some(error) = chunk.error.take() {
            return Err(error);
        }
        let rows = chunk.row_starts.len();
        turn.publish(chunk.end, first_row + rows);
        let repairing = Instant::now();
        repair(
            state,
            ChunkRows {
                first_row,
                cells: &mut chunk.blocks[0],
                verbatim: &mut chunk.plain,
            },
        );
        let rendering = Instant::now();
        times.repair_ns += nanos(repairing, rendering);
        let rendered = self.render(chunk, window, record, buf);
        times.render_ns += nanos(rendering, Instant::now());
        rendered
    }

    /// Render a scanned and repaired chunk's rows into `buf`.
    fn render(
        &self,
        chunk: &Chunk<&ConstantIndex>,
        window: &Window<'_, S>,
        record: &mut Record,
        buf: &mut Vec<u8>,
    ) -> Result<()> {
        let arity = self.schema.arity();
        let at = |offset: u64| (offset - window.base) as usize;
        let ends = chunk.row_starts.iter().skip(1).chain([&chunk.end]);
        let rows = chunk.blocks[0].chunks_exact(arity);
        for (((&start, &end), &verbatim), cells) in chunk
            .row_starts
            .iter()
            .zip(ends)
            .zip(&chunk.plain)
            .zip(rows)
        {
            let raw = &window.buf[at(start)..at(end)];
            if verbatim {
                let line = raw.strip_suffix(b"\n").unwrap_or(raw);
                buf.extend_from_slice(line.strip_suffix(b"\r").unwrap_or(line));
                buf.push(b'\n');
                continue;
            }
            let rescanned =
                || csv_error("a record scanned differently the second time".to_string());
            match scan_record(raw, true, record, &[]) {
                Scan::Record { len, .. } if len == raw.len() && record.fields.len() == arity => {}
                _ => return Err(rescanned()),
            }
            for (i, &cell) in cells.iter().enumerate() {
                if i > 0 {
                    buf.push(b',');
                }
                let value = if cell == Symbol::BOTTOM {
                    std::str::from_utf8(record.field(raw, i)).map_err(|_| rescanned())?
                } else {
                    self.constants.resolve(cell)
                };
                csv::push_field(buf, value);
            }
            buf.push(b'\n');
        }
        Ok(())
    }
}

/// Nanoseconds from `from` to `to`.
fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX)
}

/// The handoff from chunk to chunk in [`par_repair_csv`]: how many chunks
/// have confirmed their start and published where they end, and how many
/// rows they hold.
struct Chain {
    link: Mutex<Link>,
    moved: Condvar,
}

struct Link {
    /// Chunks `0..published` are confirmed.
    published: usize,
    /// Where the last confirmed chunk ends: the true start of the next.
    end: u64,
    /// Rows in the confirmed chunks.
    rows: usize,
    /// The first chunk that failed, if any.
    failed: Option<usize>,
}

impl Chain {
    fn new(data_start: u64) -> Self {
        Chain {
            link: Mutex::new(Link {
                published: 0,
                end: data_start,
                rows: 0,
                failed: None,
            }),
            moved: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Link> {
        self.link.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait until every chunk before `k` is confirmed, and return chunk
    /// `k`'s true start and first row; or `None` once a chunk before `k`
    /// has failed.
    fn wait(&self, k: usize) -> Option<(u64, usize)> {
        let mut link = self.lock();
        loop {
            if link.failed.is_some_and(|f| f < k) {
                return None;
            }
            if link.published == k {
                return Some((link.end, link.rows));
            }
            link = self
                .moved
                .wait(link)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Chunk `k`'s place in the [`Chain`]. Publishing it lets chunk `k + 1`
/// go on; dropping it unpublished, on an error or a panic, fails the
/// chain from `k` on and wakes every chunk that waits.
struct Turn<'c> {
    chain: &'c Chain,
    k: usize,
    published: bool,
}

impl Turn<'_> {
    fn publish(&mut self, end: u64, rows: usize) {
        let mut link = self.chain.lock();
        link.published = self.k + 1;
        link.end = end;
        link.rows = rows;
        self.published = true;
        self.chain.moved.notify_all();
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        if !self.published {
            let mut link = self.chain.lock();
            link.failed = Some(link.failed.map_or(self.k, |f| f.min(self.k)));
            self.chain.moved.notify_all();
        }
    }
}

/// A writer that times its writes and remembers whether one failed.
struct TimedWriter<W> {
    inner: W,
    ns: u64,
    failed: bool,
}

impl<W: Write> Write for TimedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let started = Instant::now();
        let written = self.inner.write(buf);
        self.ns += nanos(started, Instant::now());
        self.failed |= match &written {
            Ok(n) => *n == 0 && !buf.is_empty(),
            Err(e) => e.kind() != io::ErrorKind::Interrupted,
        };
        written
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
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

/// Cut offsets for a file of `len` bytes, given where the data starts.
///
/// One worker reads the file as one chunk. For more, each chunk takes
/// `1 / (2 * threads)` of the bytes still left, but at least
/// [`MIN_CHUNK_BYTES`], and so does the rest after it, so the chunks
/// shrink towards the end of the file. Workers claim chunks one at a time:
/// when one worker's core is taken away for a while, the others scan the
/// chunks it would have, and the small last chunks leave a worker little
/// to wait for at the end. The first chunk, the largest, is the one that
/// becomes the table's storage, so little of the table is copied.
fn guided_cuts(len: u64, threads: usize) -> impl FnOnce(u64) -> Vec<u64> {
    move |data_start| {
        let mut cuts = Vec::new();
        if threads < 2 {
            return cuts;
        }
        let mut at = data_start;
        loop {
            let left = len.saturating_sub(at);
            let size = (left / (2 * threads as u64)).max(MIN_CHUNK_BYTES);
            if left < size + MIN_CHUNK_BYTES {
                return cuts;
            }
            at += size;
            cuts.push(at);
        }
    }
}

/// The interning reader behind [`par_read_csv_file`]. `cuts` maps the
/// offset where the data starts (just past the header) to the offsets at
/// which chunks after the first are cut; up to `workers` threads scan them.
fn read_interned<S: ReadAt + ?Sized>(
    src: &S,
    relation_name: &str,
    symbols: &mut SymbolTable,
    cuts: impl FnOnce(u64) -> Vec<u64>,
    workers: usize,
) -> Result<Table> {
    let (schema, chunks) = read_chunked(src, relation_name, cuts, workers, LocalDict::default)?;
    let total: usize = chunks.iter().map(Chunk::cells).sum();
    let mut cells: Vec<Symbol> = Vec::new();
    for chunk in chunks {
        // The values of the rows before an error are interned, as in
        // `read_csv`.
        let map: Vec<Symbol> = chunk.sink.values().map(|v| symbols.intern(v)).collect();
        let identity = map.iter().enumerate().all(|(i, s)| s.index() == i);
        for block in chunk.blocks {
            if cells.is_empty() {
                cells = block;
                cells.reserve_exact(total - cells.len());
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

/// The constants-only reader behind [`par_read_csv_constants`].
fn read_constants<S: ReadAt + ?Sized>(
    src: &S,
    schema: &Schema,
    constants: &SymbolTable,
    cuts: impl FnOnce(u64) -> Vec<u64>,
    workers: usize,
) -> Result<Table> {
    let index = ConstantIndex::new(constants);
    let (header, mut chunks) = read_chunked(src, schema.name(), cuts, workers, || &index)?;
    if let Some(error) = chunks.last_mut().and_then(|c| c.error.take()) {
        return Err(error);
    }
    if !header.attr_names().eq(schema.attr_names()) {
        return Err(header_differs());
    }
    let total: usize = chunks.iter().map(Chunk::cells).sum();
    let mut cells: Vec<Symbol> = Vec::new();
    for chunk in chunks {
        for block in chunk.blocks {
            if cells.is_empty() {
                cells = block;
                cells.reserve_exact(total - cells.len());
            } else {
                cells.extend(block);
            }
        }
    }
    Ok(Table::from_cells(schema.clone(), cells))
}

/// The error for a file whose header is not the schema it is read as.
fn header_differs() -> RelationError {
    RelationError::Io("the CSV header differs from the schema it was read as".to_string())
}

/// What a chunk scan turns a cell into.
trait CellSink {
    fn cell(&mut self, value: &[u8]) -> Symbol;
}

/// Interning: every value gets a chunk-local id.
impl CellSink for LocalDict {
    #[inline]
    fn cell(&mut self, value: &[u8]) -> Symbol {
        Symbol(self.intern(value))
    }
}

/// A read-only hash index over the values of a symbol table: a
/// [`LocalDict`] of them, interned in symbol order, so each value's id is
/// its symbol's. A probe compares against the dictionary's one arena of
/// bytes, not the table's separately boxed strings.
struct ConstantIndex(LocalDict);

impl ConstantIndex {
    fn new(symbols: &SymbolTable) -> Self {
        let mut dict = LocalDict::default();
        // A table with no values still gets slots to probe.
        dict.grow();
        for (_, value) in symbols.iter() {
            dict.intern(value.as_bytes());
        }
        ConstantIndex(dict)
    }

    #[inline]
    fn get(&self, value: &[u8]) -> Option<u32> {
        self.0.get(hash_bytes(value), value).ok()
    }
}

/// Constant lookup: a value gets its constant's id, or ⊥.
impl CellSink for &ConstantIndex {
    #[inline]
    fn cell(&mut self, value: &[u8]) -> Symbol {
        self.get(value).map_or(Symbol::BOTTOM, Symbol)
    }
}

/// Parse the header and scan the chunks of the data after it, each with a
/// fresh sink, on up to `workers` threads that claim the chunks one at a
/// time. `cuts` maps the offset where the data starts (just past the
/// header) to the offsets at which chunks after the first are cut. The
/// chunks come back in order, each starting where the one before it
/// stopped, and end with the first one that failed.
fn read_chunked<S, K>(
    src: &S,
    relation_name: &str,
    cuts: impl FnOnce(u64) -> Vec<u64>,
    workers: usize,
    sink: impl Fn() -> K + Sync,
) -> Result<(Schema, Vec<Chunk<K>>)>
where
    S: ReadAt + ?Sized,
    K: CellSink + Send,
{
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
    // The first chunk is scanned on this thread, into one block that
    // becomes the table's storage, so a one-chunk input spawns no worker
    // and copies no cell. Every thread then claims the next chunk left.
    let next = AtomicUsize::new(1);
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&k| k < starts.len());
    let scan = |k: usize, block_cells| {
        let chunk = Chunk::scan(src, starts[k], bounds[k], arity, sink(), block_cells);
        (k, chunk)
    };
    let scan_claimed = || std::iter::from_fn(|| claim().map(|k| scan(k, BLOCK_CELLS)));
    let mut chunks: Vec<Chunk<K>> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(starts.len()))
            .map(|_| scope.spawn(|| scan_claimed().collect::<Vec<_>>()))
            .collect();
        let mut scanned = vec![scan(0, usize::MAX)];
        scanned.extend(scan_claimed());
        for helper in helpers {
            scanned.extend(helper.join().expect("CSV chunk scanner panicked"));
        }
        scanned.sort_unstable_by_key(|&(k, _)| k);
        scanned.into_iter().map(|(_, chunk)| chunk).collect()
    });
    // Where the sequential scan would stand after the chunks kept so far.
    let mut boundary = data_start;
    for k in 0..chunks.len() {
        if chunks[k].start != boundary {
            let bound = chunks[k].bound;
            chunks[k] = Chunk::scan(src, boundary, bound, arity, sink(), BLOCK_CELLS);
        }
        boundary = chunks[k].end;
        if chunks[k].error.is_some() {
            chunks.truncate(k + 1);
            break;
        }
    }
    Ok((schema, chunks))
}

/// One chunk's scan: its rows as the sink's symbols, where the scan
/// stopped and, if asked for, where each row starts and whether it holds a
/// `"`.
struct Chunk<K> {
    /// Where the scan started.
    start: u64,
    /// The scan stops at the first record starting at or past this.
    bound: u64,
    /// Where the record after the chunk's last one starts.
    end: u64,
    /// Row-major cells, at most `block_cells` per block.
    blocks: Vec<Vec<Symbol>>,
    block_cells: usize,
    sink: K,
    /// Whether the scan records `row_starts` and `plain`.
    spans: bool,
    row_starts: Vec<u64>,
    /// Row `i` holds no `"`.
    plain: Vec<bool>,
    /// The error that stopped the scan before `bound`, if any.
    error: Option<RelationError>,
}

impl<K> Chunk<K> {
    /// How many cells the chunk holds.
    fn cells(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }
}

impl<K: CellSink> Chunk<K> {
    /// An empty chunk whose scans hand cells to `sink`.
    fn new(sink: K, block_cells: usize, spans: bool) -> Self {
        Chunk {
            start: 0,
            bound: 0,
            end: 0,
            blocks: vec![Vec::with_capacity(block_cells.min(BLOCK_CELLS))],
            block_cells,
            sink,
            spans,
            row_starts: Vec::new(),
            plain: Vec::new(),
            error: None,
        }
    }

    /// Scan the records of `src` that start in `[start, bound)`.
    fn scan<S: ReadAt + ?Sized>(
        src: &S,
        start: u64,
        bound: u64,
        arity: usize,
        sink: K,
        block_cells: usize,
    ) -> Self {
        let mut chunk = Chunk::new(sink, block_cells, false);
        chunk.rescan(&mut Window::new(src, false), start, bound, arity);
        chunk
    }

    /// Forget the chunk's rows, keeping their storage, and scan the
    /// records that start in `[start, bound)` through `window`.
    fn rescan<S: ReadAt + ?Sized>(
        &mut self,
        window: &mut Window<'_, S>,
        start: u64,
        bound: u64,
        arity: usize,
    ) {
        self.start = start;
        self.bound = bound;
        self.end = start;
        self.blocks.truncate(1);
        self.blocks[0].clear();
        self.row_starts.clear();
        self.plain.clear();
        self.error = None;
        window.seek(start);
        if let Err(e) = self.fill(window, arity) {
            self.error = Some(e);
        }
    }

    fn fill<S: ReadAt + ?Sized>(&mut self, window: &mut Window<'_, S>, arity: usize) -> Result<()> {
        let mut row = vec![Symbol(0); arity];
        // As in `read_csv`, a cell equal to the cell above skips the sink.
        // `above_at` is where the record above starts in the window, while
        // the window still holds it, and `above_plain` says it holds no `"`.
        let mut record = Record::default();
        let mut above = Record::default();
        let mut above_at: Option<usize> = None;
        let mut above_plain = false;
        loop {
            self.end = window.base + window.pos as u64;
            if self.end >= self.bound {
                return Ok(());
            }
            let bytes = &window.buf[window.pos..window.len];
            // The record takes the fields of a plain record above whose `,`
            // comes before the first byte where the two differ: up to that
            // `,`, the scan reads the same bytes and so splits them the
            // same way. The last field ends at a line end, whose `\r` may
            // take the next byte along, so it is always scanned.
            let shared = match above_at {
                Some(at) if above_plain => {
                    let prefix = common_prefix(&window.buf[at..window.pos], bytes);
                    let fields = &above.fields[..above.fields.len().saturating_sub(1)];
                    &fields[..fields.partition_point(|f| f.end < prefix)]
                }
                _ => &[],
            };
            let (len, plain) = match scan_record(bytes, window.eof, &mut record, shared) {
                Scan::Record { len, plain } => (len, plain),
                Scan::Partial => {
                    window.refill().map_err(|e| csv_error(e.to_string()))?;
                    above_at = None;
                    continue;
                }
                Scan::End => return Ok(()),
                Scan::Unterminated => {
                    check_utf8(bytes, &record)?;
                    return Err(csv_error("unterminated quoted field".to_string()));
                }
            };
            let raw = &bytes[..len];
            if window.pos + len > window.utf8_upto {
                check_utf8(raw, &record)?;
            }
            if record.fields.len() != arity {
                return Err(csv_error(format!(
                    "record has {} fields, but the previous record has {arity}",
                    record.fields.len()
                )));
            }
            let above_raw = above_at.map(|at| &window.buf[at..]);
            for (i, slot) in row.iter_mut().enumerate().skip(shared.len()) {
                let cell = record.field(raw, i);
                if above_raw.is_none_or(|a| above.field(a, i) != cell) {
                    *slot = self.sink.cell(cell);
                }
            }
            if self.blocks[self.blocks.len() - 1].len() + arity > self.block_cells {
                self.blocks.push(Vec::with_capacity(self.block_cells));
            }
            let last = self.blocks.len() - 1;
            self.blocks[last].extend_from_slice(&row);
            if self.spans {
                self.row_starts.push(self.end);
                self.plain.push(plain);
            }
            std::mem::swap(&mut record, &mut above);
            above_at = Some(window.pos);
            above_plain = plain;
            window.pos += len;
        }
    }
}

/// How many leading bytes `a` and `b` share, compared 8 at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let word = |s: &[u8], i: usize| u64::from_le_bytes(s[i..i + 8].try_into().expect("8 bytes"));
    let mut i = 0;
    while i + 8 <= n {
        let diff = word(a, i) ^ word(b, i);
        if diff != 0 {
            return i + diff.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// The part of a [`ReadAt`] source that a chunk scan holds in memory.
struct Window<'a, S: ?Sized> {
    src: &'a S,
    buf: Vec<u8>,
    /// Bytes of `buf` that hold data.
    len: usize,
    /// Where `buf` starts in the source.
    base: u64,
    /// Where the next record starts in `buf`.
    pos: usize,
    /// `buf[..len]` runs to the end of the source.
    eof: bool,
    /// `buf[pos..utf8_upto]` is valid UTF-8, so the records in it need no
    /// check of their own.
    utf8_upto: usize,
    /// Refills keep the bytes before `pos`: every byte read since the
    /// window last moved stays in `buf`, where [`par_repair_csv`] renders
    /// rows from.
    keep: bool,
    /// A window that keeps its bytes reads nothing at or past this offset.
    limit: u64,
    /// A read stopped at `limit`.
    capped: bool,
}

impl<'a, S: ReadAt + ?Sized> Window<'a, S> {
    fn new(src: &'a S, keep: bool) -> Self {
        Window {
            src,
            buf: Vec::new(),
            len: 0,
            base: 0,
            pos: 0,
            eof: false,
            utf8_upto: 0,
            keep,
            limit: u64::MAX,
            capped: false,
        }
    }

    /// Put the next record's start at `at`: among the bytes held if they
    /// reach it, or else by emptying the window to start there.
    fn seek(&mut self, at: u64) {
        match at.checked_sub(self.base) {
            Some(d) if d <= self.len as u64 => self.pos = d as usize,
            _ => {
                self.base = at;
                self.len = 0;
                self.pos = 0;
                self.eof = false;
            }
        }
        self.check_utf8();
    }

    /// Empty the window to start at `at` and read until it holds `bytes`
    /// bytes or the source ends.
    fn load(&mut self, at: u64, bytes: usize) -> io::Result<()> {
        self.base = at;
        self.len = 0;
        self.pos = 0;
        self.eof = false;
        self.read_more(bytes)
    }

    /// Read `bytes` more bytes after the ones held, or up to the end of
    /// the source or `limit`, growing `buf` as needed. Fails if `limit`
    /// leaves nothing to read, which it may do with bytes past it held.
    fn read_more(&mut self, bytes: usize) -> io::Result<()> {
        let room = usize::try_from(self.limit.saturating_sub(self.base)).unwrap_or(usize::MAX);
        let upto = (self.len + bytes).min(room);
        if upto <= self.len {
            self.capped = true;
            return Err(io::Error::other("the scan reached its read limit"));
        }
        if self.buf.len() < upto {
            self.buf.resize(upto, 0);
        }
        self.read_to(upto)
    }

    fn read_to(&mut self, upto: usize) -> io::Result<()> {
        while self.len < upto {
            match self
                .src
                .read_at(&mut self.buf[self.len..upto], self.base + self.len as u64)?
            {
                0 => {
                    self.eof = true;
                    break;
                }
                n => self.len += n,
            }
        }
        Ok(())
    }

    /// The offset just past the first `\n` at or after `at`, which must be
    /// at or after the window's start, reading on as needed; or `at` or the
    /// end of the source, whichever is later, if no `\n` follows.
    fn line_start(&mut self, at: u64) -> io::Result<u64> {
        let from = usize::try_from(at - self.base).unwrap_or(usize::MAX);
        loop {
            let held = &self.buf[from.min(self.len)..self.len];
            if let Some(i) = held.iter().position(|&b| b == b'\n') {
                return Ok(self.base + (from + i) as u64 + 1);
            }
            if self.eof {
                return Ok(at.max(self.base + self.len as u64));
            }
            self.read_more(KEEP_GROW_BYTES)?;
        }
    }

    /// Read more of the source after the bytes held. A window that keeps
    /// its bytes grows by the part of the record read so far, and by at
    /// least [`KEEP_GROW_BYTES`]. Any other drops the bytes before `pos`
    /// first, then reads until it is full or the source ends: it starts at
    /// 4 KiB and doubles on each refill up to [`WINDOW_BYTES`], so a small
    /// input touches little memory; past that, it doubles only when `pos`
    /// frees nothing.
    fn refill(&mut self) -> io::Result<()> {
        if self.keep {
            self.read_more((self.len - self.pos).max(KEEP_GROW_BYTES))?;
        } else {
            self.buf.copy_within(self.pos..self.len, 0);
            self.base += self.pos as u64;
            self.len -= self.pos;
            self.pos = 0;
            if self.len == self.buf.len() || self.buf.len() < WINDOW_BYTES {
                let size = (2 * self.buf.len()).clamp(4096, WINDOW_BYTES);
                self.buf.resize(size.max(2 * self.len), 0);
            }
            self.read_to(self.buf.len())?;
        }
        self.check_utf8();
        Ok(())
    }

    /// Find how far the bytes from `pos` on are valid UTF-8.
    fn check_utf8(&mut self) {
        self.utf8_upto = self.pos
            + match std::str::from_utf8(&self.buf[self.pos..self.len]) {
                Ok(rest) => rest.len(),
                Err(e) => e.valid_up_to(),
            };
    }
}

/// A CSV error, worded as the `csv` reader words it.
fn csv_error(message: String) -> RelationError {
    RelationError::Io(format!("CSV error: {message}"))
}

/// One record's fields. A field that does not start with `"` is a range
/// of the record's own bytes; a quoted one is decoded into `decoded`.
#[derive(Default)]
struct Record {
    fields: Vec<Field>,
    decoded: Vec<u8>,
}

#[derive(Clone, Copy)]
struct Field {
    start: usize,
    end: usize,
    decoded: bool,
}

impl Record {
    /// Field `i`'s value, given the record's bytes.
    fn field<'a>(&'a self, raw: &'a [u8], i: usize) -> &'a [u8] {
        let f = self.fields[i];
        if f.decoded {
            &self.decoded[f.start..f.end]
        } else {
            &raw[f.start..f.end]
        }
    }
}

/// What [`scan_record`] found at the start of its bytes.
enum Scan {
    /// A whole record of `len` bytes, its line end included (both bytes
    /// of a `\r\n`). It is `plain` when it holds no `"`: then each field
    /// is its own bytes, none needs quotes, and `csv::Writer` renders the
    /// record as the bytes before its line end.
    Record { len: usize, plain: bool },
    /// The bytes end inside the record, or right after a `\r` that the
    /// next byte may join, and more input follows.
    Partial,
    /// The input ends inside a quoted field.
    Unterminated,
    /// No bytes are left.
    End,
}

/// Split the record at the start of `bytes` into `record`'s fields exactly
/// as the `csv` reader does: `,` separates fields; `\n`, `\r\n` and a lone
/// `\r` end a record, and so does the end of the input; a `"` opens
/// quotes only as a field's first byte and is literal anywhere else; and
/// inside quotes, `""` is one `"`. `eof` says whether `bytes` runs to the
/// end of the input. UTF-8 is not checked here ([`check_utf8`]).
///
/// The record's first fields may be known already: `shared` are plain
/// fields that each end at a `,` in `bytes`, and the scan resumes after
/// the last of them.
fn scan_record(bytes: &[u8], eof: bool, record: &mut Record, shared: &[Field]) -> Scan {
    record.fields.clear();
    record.fields.extend_from_slice(shared);
    record.decoded.clear();
    if bytes.is_empty() {
        return if eof { Scan::End } else { Scan::Partial };
    }
    let mut plain = true;
    let mut i = shared.last().map_or(0, |f| f.end + 1);
    loop {
        let quoted = bytes.get(i) == Some(&b'"');
        let start = if quoted {
            plain = false;
            let start = record.decoded.len();
            i += 1;
            loop {
                let Some(k) = csv::find_any(&bytes[i..], [b'"']) else {
                    return if eof {
                        Scan::Unterminated
                    } else {
                        Scan::Partial
                    };
                };
                record.decoded.extend_from_slice(&bytes[i..i + k]);
                i += k + 1;
                match bytes.get(i) {
                    Some(b'"') => {
                        record.decoded.push(b'"');
                        i += 1;
                    }
                    None if !eof => return Scan::Partial,
                    _ => break,
                }
            }
            start
        } else {
            i
        };
        // The field runs on unquoted, after the closing quote if any.
        let Some(k) = unquoted_len(&bytes[i..], &mut plain).or(eof.then(|| bytes.len() - i)) else {
            return Scan::Partial;
        };
        let field = if quoted {
            record.decoded.extend_from_slice(&bytes[i..i + k]);
            Field {
                start,
                end: record.decoded.len(),
                decoded: true,
            }
        } else {
            Field {
                start,
                end: i + k,
                decoded: false,
            }
        };
        i += k;
        record.fields.push(field);
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'\n') => return Scan::Record { len: i + 1, plain },
            Some(_) => {
                // A `\r`, which takes a `\n` right after it along.
                return match bytes.get(i + 1) {
                    Some(b'\n') => Scan::Record { len: i + 2, plain },
                    None if !eof => Scan::Partial,
                    _ => Scan::Record { len: i + 1, plain },
                };
            }
            None => return Scan::Record { len: i, plain },
        }
    }
}

/// The length of the unquoted run at the start of `bytes`, up to the `,`,
/// `\n` or `\r` that ends its field, or `None` if the bytes end first. A
/// `"` in the run is literal and clears `plain`.
fn unquoted_len(bytes: &[u8], plain: &mut bool) -> Option<usize> {
    let mut i = 0;
    loop {
        let k = i + csv::find_any(&bytes[i..], [b',', b'\n', b'\r', b'"'])?;
        if bytes[k] != b'"' {
            return Some(k);
        }
        *plain = false;
        i = k + 1;
    }
}

/// Fail on the first of `record`'s fields that is not UTF-8, as the `csv`
/// reader does; `raw` holds the record's bytes. Fields split valid UTF-8
/// only at ASCII bytes, so valid `raw` needs no check per field.
fn check_utf8(raw: &[u8], record: &Record) -> Result<()> {
    if std::str::from_utf8(raw).is_ok() {
        return Ok(());
    }
    for i in 0..record.fields.len() {
        if let Err(e) = std::str::from_utf8(record.field(raw, i)) {
            return Err(csv_error(format!("invalid UTF-8 in field: {e}")));
        }
    }
    Ok(())
}

/// A chunk-local dictionary of byte strings: each distinct value stored
/// once in one arena, under an id in first-occurrence order. The
/// dictionaries coexist with the table at peak memory, so they keep no
/// allocation per value (an `FxHashMap<Box<str>, u32>` measured 4 MiB more
/// peak RSS on a 200k-row, 49k-value input). It lives for one load, so it
/// hashes with [`hash_bytes`] instead of the [`SymbolTable`]'s SipHash;
/// each value is interned into the shared table once, at the merge.
#[derive(Default)]
struct LocalDict {
    text: Vec<u8>,
    /// End of value `i` in `text`; it starts where value `i - 1` ends.
    ends: Vec<usize>,
    /// Open addressing with linear probing: the value's hash in the top
    /// half and `id + 1` in the bottom half, or 0 when empty. A probe
    /// compares values only on equal top halves. The length is zero or a
    /// power of two, at most 2^32.
    slots: Vec<u64>,
}

/// The top half of a hash, which a [`LocalDict`] slot keeps.
const HASH_TOP: u64 = !0 << 32;

impl LocalDict {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn value(&self, id: usize) -> &[u8] {
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.text[start..self.ends[id]]
    }

    /// The values in id order. Scans intern only checked UTF-8.
    fn values(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|id| std::str::from_utf8(self.value(id)).expect("values are UTF-8"))
    }

    fn intern(&mut self, value: &[u8]) -> u32 {
        if 2 * self.len() >= self.slots.len() {
            self.grow();
        }
        let hash = hash_bytes(value);
        match self.get(hash, value) {
            Ok(id) => id,
            Err(slot) => {
                let id = self.len() as u32;
                self.text.extend_from_slice(value);
                self.ends.push(self.text.len());
                self.slots[slot] = (hash & HASH_TOP) | u64::from(id + 1);
                id
            }
        }
    }

    /// `value`'s id, or else the empty slot where it would go; `hash` is
    /// its [`hash_bytes`]. Open addressing with linear probing.
    #[inline]
    fn get(&self, hash: u64, value: &[u8]) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = home(hash, self.slots.len());
        loop {
            match self.slots[i] {
                0 => return Err(i),
                slot if slot & HASH_TOP == hash & HASH_TOP => {
                    let id = slot as u32 - 1;
                    if self.value(id as usize) == value {
                        return Ok(id);
                    }
                }
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(1024);
        let old = std::mem::replace(&mut self.slots, vec![0; size]);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|&slot| slot != 0) {
            let mut i = home(slot, self.slots.len());
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

/// The first slot to probe in a table of `slots` slots: the hash's top
/// bits, which [`hash_bytes`]' final multiply mixes best.
fn home(hash: u64, slots: usize) -> usize {
    (hash >> (64 - slots.trailing_zeros())) as usize
}

/// A value's hash for the dictionaries here, in FxHash's
/// rotate-xor-multiply steps: first the length, then each 8-byte word. The
/// last word is the value's last 8 bytes, one load that may overlap the
/// word before it; a shorter value is one word, from two overlapping
/// 4-byte loads or from its first, middle and last bytes. With the length
/// mixed in first, no tail needs copying into a zeroed buffer.
#[inline]
fn hash_bytes(value: &[u8]) -> u64 {
    // FxHash's multiplier: `(sqrt(5) - 1) / 2 * 2^64`, rounded to odd.
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mix = |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    let n = value.len();
    let word = |i: usize| u64::from_le_bytes(value[i..i + 8].try_into().expect("8 bytes"));
    let half = |i: usize| {
        u64::from(u32::from_le_bytes(
            value[i..i + 4].try_into().expect("4 bytes"),
        ))
    };
    let mut hash = mix(0, n as u64);
    if n >= 8 {
        for i in (0..n - 8).step_by(8) {
            hash = mix(hash, word(i));
        }
        hash = mix(hash, word(n - 8));
    } else if n >= 4 {
        hash = mix(hash, half(0) | half(n - 4) << 32);
    } else if n > 0 {
        let byte = |i: usize| u64::from(value[i]);
        hash = mix(hash, byte(0) | byte(n / 2) << 8 | byte(n - 1) << 16);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrId;

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
        // One to three workers, so chunks outnumber workers as well.
        let workers = 1 + cuts.len() % 3;
        let got = read_interned(data, "R", &mut got_sy, |_| cuts.to_vec(), workers);
        assert_eq!(
            outcome(got, &got_sy),
            want,
            "input {:?} cut at {cuts:?}",
            String::from_utf8_lossy(data)
        );
        assert_constants_match(data, cuts, workers);
    }

    /// Σ's constants for the constants-only reader: values the inputs
    /// below hold (quoted, escaped, multi-line, empty) and one they never do.
    const CONSTANTS: [&str; 11] = [
        "never",
        "y",
        "1\n2",
        "é",
        "x",
        "q\"",
        "say \"hi\"",
        "a",
        "",
        "4",
        "zz",
    ];

    type Projected = std::result::Result<Vec<Vec<Option<String>>>, String>;

    /// The constants-only reader against `read_csv` on the same bytes: the
    /// rows projected onto [`CONSTANTS`] (any other value is ⊥) and the
    /// same error text.
    fn assert_constants_match(data: &[u8], cuts: &[u64], workers: usize) {
        let context = format!("input {:?} cut at {cuts:?}", String::from_utf8_lossy(data));
        let mut want_sy = SymbolTable::new();
        let want: Projected = match read_csv(data, "R", &mut want_sy) {
            Ok(t) => Ok(t
                .rows()
                .map(|row| {
                    row.iter()
                        .map(|&s| {
                            let v = want_sy.resolve(s);
                            CONSTANTS.contains(&v).then(|| v.to_string())
                        })
                        .collect()
                })
                .collect()),
            Err(e) => Err(e.to_string()),
        };
        let constants = constants();
        let loaded = read_csv_header(data, "R").and_then(|schema| {
            read_constants(data, &schema, &constants, |_| cuts.to_vec(), workers)
        });
        let got: Projected = match &loaded {
            Ok(table) => Ok(table
                .rows()
                .map(|row| {
                    row.iter()
                        .map(|&s| (s != Symbol::BOTTOM).then(|| constants.resolve(s).to_string()))
                        .collect()
                })
                .collect()),
            Err(e) => Err(e.to_string()),
        };
        assert_eq!(got, want, "{context}");
    }

    /// [`CONSTANTS`] as a symbol table.
    fn constants() -> SymbolTable {
        let mut constants = SymbolTable::new();
        for c in CONSTANTS {
            constants.intern(c);
        }
        constants
    }

    /// The repair both sides of the pipeline tests run, rule-like in that
    /// it reads only the row: row `r` gets `zz` in its first cell when
    /// `r % 3 == 1`, and a last cell `x` becomes `a`. Returns whether the
    /// row changed.
    fn toy_fix(r: usize, row: &mut [Symbol], [zz, x, a]: [Symbol; 3]) -> bool {
        let mut changed = false;
        if r % 3 == 1 && row[0] != zz {
            row[0] = zz;
            changed = true;
        }
        let last = row.len() - 1;
        if row[last] == x {
            row[last] = a;
            changed = true;
        }
        changed
    }

    type Repaired = std::result::Result<(usize, Vec<u8>), String>;

    /// `read_csv`, [`toy_fix`] on every row, and `write_csv`: what the
    /// pipeline must write, with its row count, or `read_csv`'s error.
    fn read_repair_write(data: &[u8]) -> Repaired {
        let mut sy = SymbolTable::new();
        let mut table = read_csv(data, "R", &mut sy).map_err(|e| e.to_string())?;
        let fix = ["zz", "x", "a"].map(|v| sy.intern(v));
        for r in 0..table.len() {
            toy_fix(r, table.row_mut(r), fix);
        }
        let mut out = Vec::new();
        write_csv(&mut out, &table, &sy).unwrap();
        Ok((table.len(), out))
    }

    /// The pipeline over `data` in chunks of `chunk_bytes`, with up to
    /// `workers` workers and [`toy_fix`] as its repair step.
    fn pipelined(data: &[u8], chunk_bytes: u64, workers: usize) -> Repaired {
        let schema = read_csv_header(data, "R").unwrap();
        let constants = constants();
        let fix = ["zz", "x", "a"].map(|v| constants.get(v).unwrap());
        let pipeline = Pipeline {
            src: data,
            len: data.len() as u64,
            schema: &schema,
            constants: &constants,
            chunk_bytes,
        };
        let arity = schema.arity();
        let mut out = Vec::new();
        let run = pipeline.run(
            &mut out,
            workers,
            |w| w,
            |_, mut chunk: ChunkRows<'_>| {
                for i in 0..chunk.cells.len() / arity {
                    let row = &mut chunk.cells[i * arity..(i + 1) * arity];
                    if toy_fix(chunk.first_row + i, row, fix) {
                        chunk.touch(i);
                    }
                }
            },
        );
        match run {
            Ok(run) => {
                assert!(run.workers.iter().copied().eq(0..run.workers.len()));
                Ok((run.rows, out))
            }
            Err(PipelineError::Read(e)) => Err(e.to_string()),
            Err(PipelineError::Write(e)) => panic!("writing to memory failed: {e}"),
        }
    }

    fn assert_pipeline_matches(data: &[u8], chunk_bytes: u64, workers: usize) {
        let want = read_repair_write(data);
        let got = pipelined(data, chunk_bytes, workers);
        let show = |r: &Repaired| {
            r.as_ref()
                .map(|(n, out)| (*n, String::from_utf8_lossy(out).into_owned()))
                .map_err(String::clone)
        };
        assert!(
            got == want,
            "input {:?} in chunks of {chunk_bytes} at {workers} workers: got {:?}, want {:?}",
            String::from_utf8_lossy(data),
            show(&got),
            show(&want)
        );
    }

    /// Small inputs with every record shape the scanner handles.
    const TRICKY: [&[u8]; 12] = [
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

    #[test]
    fn chunked_read_matches_read_csv_at_every_cut() {
        for data in TRICKY {
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

    /// An input whose records each copy the record above and rewrite it
    /// from a random field on (or not at all), so neighbours share leading
    /// fields: plain, empty, quoted and `""`-escaped ones, and rewritten
    /// values that extend the old one, so the first differing byte falls
    /// on the old value's `,`. Records end in `\n`, `\r\n` or a lone `\r`.
    /// With `fault`, one record after a shared prefix has a field too few
    /// or too many, or invalid UTF-8.
    fn shared_prefix_input(rng: &mut Rng, arity: usize, records: usize, fault: bool) -> Vec<u8> {
        let values: [&[u8]; 12] = [
            b"",
            b"a",
            b"x",
            b"zz",
            b"4",
            "é".as_bytes(),
            b"x\"y",
            b"\"a,b\"",
            b"\"say \"\"hi\"\"\"",
            b"\"1\n2\"",
            b"\"q\"\"\"",
            b"\"\"",
        ];
        let mut data: Vec<u8> = (0..arity)
            .map(|i| format!("h{i}"))
            .collect::<Vec<_>>()
            .join(",")
            .into_bytes();
        data.push(b'\n');
        let mut fields: Vec<Vec<u8>> = vec![Vec::new(); arity];
        let faulty = fault.then(|| 1 + rng.below(records - 1));
        for r in 0..records {
            let from = if faulty == Some(r) {
                1 + rng.below(arity - 1)
            } else {
                rng.below(arity + 1)
            };
            for field in &mut fields[from..] {
                let plain = !field.contains(&b'"');
                if plain && rng.below(4) == 0 {
                    field.push(b'b');
                } else {
                    *field = values[rng.below(values.len())].to_vec();
                }
            }
            let mut record = fields.clone();
            if faulty == Some(r) {
                let last = arity - 1;
                match rng.below(3) {
                    0 => drop(record.pop()),
                    1 => record.push(b"extra".to_vec()),
                    _ => record[last].extend_from_slice(b"\xFF"),
                }
            }
            data.extend_from_slice(&record.join(&b","[..]));
            data.extend_from_slice(match rng.below(8) {
                0 => b"\r\n",
                1 => b"\r",
                _ => b"\n",
            });
        }
        data
    }

    #[test]
    fn chunked_read_matches_read_csv_on_shared_prefix_inputs() {
        let mut rng = Rng(0x5EED);
        for case in 0..240 {
            let arity = 4 + case % 3;
            // Over 4 KiB, so records straddle the window's refills.
            let records = if case % 8 == 0 {
                400
            } else {
                6 + rng.below(40)
            };
            let data = shared_prefix_input(&mut rng, arity, records, case % 5 == 4);
            let mut cuts: Vec<u64> = (0..case % 3)
                .map(|_| rng.below(data.len() + 1) as u64)
                .collect();
            cuts.sort_unstable();
            assert_chunked_matches(&data, &cuts);
        }
    }

    #[test]
    fn pipeline_matches_read_repair_write_at_every_chunk_size() {
        for data in TRICKY {
            for chunk_bytes in 1..=data.len() as u64 + 1 {
                for workers in 1..=4 {
                    assert_pipeline_matches(data, chunk_bytes, workers);
                }
            }
        }
    }

    #[test]
    fn pipeline_matches_read_repair_write_on_random_inputs() {
        let tokens: [&[u8]; 11] = [
            b"x",
            b"zz",
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
        let mut rng = Rng(0x919E);
        for case in 0..1_500 {
            let mut data = b"h1,h2\n".to_vec();
            for _ in 0..rng.below(80) {
                let t = if rng.below(6) == 0 {
                    rng.below(tokens.len())
                } else {
                    rng.below(9)
                };
                data.extend_from_slice(tokens[t]);
            }
            let chunk_bytes = 1 + rng.below(data.len()) as u64;
            assert_pipeline_matches(&data, chunk_bytes, 1 + case % 4);
        }
    }

    #[test]
    fn pipeline_matches_read_repair_write_on_shared_prefix_inputs() {
        let mut rng = Rng(0x51DE);
        for case in 0..120 {
            let arity = 4 + case % 3;
            let records = if case % 8 == 0 {
                400
            } else {
                6 + rng.below(40)
            };
            let data = shared_prefix_input(&mut rng, arity, records, case % 5 == 4);
            let chunk_bytes = 1 + rng.below(data.len() / 2) as u64;
            assert_pipeline_matches(&data, chunk_bytes, 1 + case % 4);
        }
    }

    /// A source that counts the bytes read from it.
    struct Counted<'a> {
        bytes: &'a [u8],
        read: AtomicUsize,
    }

    impl ReadAt for Counted<'_> {
        fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
            let n = self.bytes.read_at(buf, offset)?;
            self.read.fetch_add(n, Ordering::Relaxed);
            Ok(n)
        }
    }

    #[test]
    fn a_wrong_guess_reads_at_most_a_chunk_past_its_bound() {
        // A quoted field that ends in a line break: a chunk whose cut falls
        // in it guesses its start just before the closing quote, which then
        // opens a field that no later quote closes. A guess that runs on to
        // the end of the file would read the whole file once more. Chunks
        // are large enough that their slack reads add little.
        let chunk_bytes = 64 << 10;
        let mut data = b"a,b,c\n".to_vec();
        let mut rows = 0;
        while data.len() < chunk_bytes - 1_500 {
            data.extend_from_slice(format!("{rows},zz,x\n").as_bytes());
            rows += 1;
        }
        data.extend_from_slice(b"1,\"");
        data.extend(std::iter::repeat_n(b'x', 3_000));
        data.extend_from_slice(b"\n\",y\n");
        rows += 1;
        while data.len() < 16 * chunk_bytes {
            data.extend_from_slice(format!("{rows},zz,x\n").as_bytes());
            rows += 1;
        }
        let schema = read_csv_header(&data[..], "R").unwrap();
        let constants = constants();
        for workers in [1, 2] {
            let src = Counted {
                bytes: &data,
                read: AtomicUsize::new(0),
            };
            let pipeline = Pipeline {
                src: &src,
                len: data.len() as u64,
                schema: &schema,
                constants: &constants,
                chunk_bytes: chunk_bytes as u64,
            };
            let mut out = Vec::new();
            let run = pipeline.run(&mut out, workers, |_| (), |_, _| {}).unwrap();
            assert_eq!(run.rows, rows);
            let mut sy = SymbolTable::new();
            let mut want = Vec::new();
            write_csv(&mut want, &read_csv(&data[..], "R", &mut sy).unwrap(), &sy).unwrap();
            assert!(out == want, "workers={workers}");
            let read = src.read.load(Ordering::Relaxed);
            assert!(
                read < data.len() * 3 / 2,
                "read {read} of {} bytes",
                data.len()
            );
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
        // The constants-only reader, and the pipeline over 256 KiB chunks
        // with a constant written into some rows, some of them quoted in
        // the file.
        let names = [
            "plain",
            "q3",
            "line\nbreak 1",
            "a,b \"5\"",
            "name7",
            "n5",
            "r9",
        ];
        let mut constants = SymbolTable::new();
        for v in names {
            constants.intern(v);
        }
        let mut want_repaired = want.clone();
        let plain = want_sy.intern("plain");
        let note = AttrId(2);
        for i in (7..want.len()).step_by(997) {
            want_repaired.set_cell(i, note, plain);
        }
        let want_repaired_out = render(&want_repaired, &want_sy);
        let schema = want.schema();
        let out_path = dir.join("out.csv");
        for threads in 1..=4 {
            let got = par_read_csv_constants(&path, schema, &constants, threads).unwrap();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.rows().zip(want.rows()) {
                for (&g, &w) in g.iter().zip(w.iter()) {
                    let w = want_sy.resolve(w);
                    let g = (g != Symbol::BOTTOM).then(|| constants.resolve(g));
                    assert_eq!(g, names.contains(&w).then_some(w), "threads={threads}");
                }
            }
            let plain = constants.get("plain").unwrap();
            for fix in [false, true] {
                let file = File::create(&out_path).unwrap();
                let run = par_repair_csv(
                    &path,
                    schema,
                    &constants,
                    file,
                    threads,
                    |_| (),
                    |_, mut chunk| {
                        for i in 0..chunk.cells.len() / 3 {
                            if fix && (chunk.first_row + i) % 997 == 7 {
                                chunk.cells[3 * i + 2] = plain;
                                chunk.touch(i);
                            }
                        }
                    },
                )
                .unwrap();
                assert_eq!(run.rows, want.len());
                assert!(run.workers.len() <= threads, "threads={threads}");
                let written = std::fs::read(&out_path).unwrap();
                let want = if fix { &want_repaired_out } else { &want_out };
                assert!(written == *want, "threads={threads} fix={fix}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn constant_index_finds_every_symbol_and_nothing_else() {
        let mut symbols = SymbolTable::new();
        for i in 0..3_000 {
            symbols.intern(&format!("v{i}"));
        }
        symbols.intern("");
        // Every length up to three words, so each way `hash_bytes` reads a
        // value's tail is probed; the misses differ in the last byte only.
        for n in 1..=24 {
            symbols.intern(&"w".repeat(n));
        }
        let index = ConstantIndex::new(&symbols);
        for (s, v) in symbols.iter() {
            assert_eq!(index.get(v.as_bytes()), Some(s.0));
        }
        assert_eq!(index.get(b"v3000"), None);
        for n in 1..=24 {
            let miss = "w".repeat(n - 1) + "x";
            assert_eq!(index.get(miss.as_bytes()), None, "{miss}");
        }
        assert_eq!(ConstantIndex::new(&SymbolTable::new()).get(b""), None);
    }

    #[test]
    fn local_dict_keeps_first_occurrence_ids_across_growth() {
        let mut dict = LocalDict::default();
        let values: Vec<String> = (0..5_000).map(|i| format!("v{}", i % 3_000)).collect();
        let ids: Vec<u32> = values.iter().map(|v| dict.intern(v.as_bytes())).collect();
        for (v, &id) in values.iter().zip(&ids) {
            assert_eq!(dict.value(id as usize), v.as_bytes());
        }
        assert_eq!(dict.values().count(), 3_000);
        assert!(dict.values().eq((0..3_000).map(|i| format!("v{i}"))));
    }

    /// Renders block `b` as its number on a line.
    fn numbered(b: usize, buf: &mut Vec<u8>) {
        buf.extend_from_slice(format!("{b}\n").as_bytes());
    }

    #[test]
    fn render_queue_writes_blocks_in_order_and_stops_at_the_first_error() {
        let blocks = 40;
        let lines = |n: usize| (0..n).map(|b| format!("{b}\n")).collect::<String>();
        for threads in 1..=4 {
            // Every fifth block renders slowly, so the blocks after it are
            // done first and wait for it.
            let mut out = Vec::new();
            write_blocks(
                &mut out,
                blocks,
                threads,
                |_| (),
                |_: &mut (), b, buf| {
                    if b % 5 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    numbered(b, buf);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), lines(blocks), "{threads}");
            // The first failed block in row order wins, whichever fails
            // first in time, and nothing from it on is written.
            let mut out = Vec::new();
            let err = write_blocks(
                &mut out,
                blocks,
                threads,
                |_| (),
                |_: &mut (), b, buf| {
                    if b == 13 {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    if b == 13 || b == 14 || b == 29 {
                        return Err(csv_error(format!("block {b}")));
                    }
                    numbered(b, buf);
                    Ok(())
                },
            )
            .unwrap_err();
            assert_eq!(err.to_string(), csv_error("block 13".into()).to_string());
            assert_eq!(String::from_utf8(out).unwrap(), lines(13), "{threads}");
        }
    }

    #[test]
    #[should_panic]
    fn render_queue_raises_a_render_panic_instead_of_waiting_for_the_block() {
        let mut out = Vec::new();
        let _ = write_blocks(
            &mut out,
            40,
            3,
            |_| (),
            |_: &mut (), b, buf| {
                assert_ne!(b, 6, "render failed");
                numbered(b, buf);
                Ok(())
            },
        );
    }
}
