//! CSV import/export for [`Table`]s.
//!
//! The paper's datasets (hosp, uis) ship as delimited files; experiments in
//! `crates/eval` can persist generated datasets and repaired outputs so runs
//! are inspectable. Every cell a reader keeps goes through a
//! [`SymbolTable`], so a loaded table is immediately usable by the rule
//! engine.
//!
//! [`read_csv`] reads any stream, one record at a time, with the `csv`
//! reader, and interns every cell; [`read_csv_file`] runs it over a file.
//! [`write_csv`] renders a table on the calling thread. They are the
//! reference for [`par_repair_csv`], the one chunked file reader: it cuts a
//! file after its header into 256 KiB chunks that workers scan at once with
//! one record scanner (DESIGN.md §18), keeps only the values a table of
//! constants holds and loads every other cell as [`Symbol::BOTTOM`], hands
//! each chunk's rows to a caller's repair step, renders them back out of
//! the chunk's own bytes and delivers them in file order, so its memory
//! does not grow with the file. [`par_read_csv`] is the same pass for a
//! caller that keeps no bytes: it renders nothing.
//!
//! Each worker's scanner keeps a bounded memo of the records it scanned,
//! keyed by their exact bytes up to the first `\n`, so a record that
//! comes again takes its cells from there, with no split, check or
//! lookup (`RowMemo`). Only a record with no `"` whose scan ended at
//! that `\n` is memoized; the memo is 1 MiB per worker, and a worker
//! stops asking it while it holds too few of the records ([`Backoff`]).

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::{mpsc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use crate::{Backoff, RelationError, Result, Schema, Symbol, SymbolTable, Table};

/// Blocks per worker that may wait to be handed over, in [`in_order`].
const BLOCKS_AHEAD: usize = 4;

/// Bytes of input per chunk of [`par_repair_csv`]. Smaller chunks pay for
/// more handoffs, and larger ones fault in more output buffers in flight;
/// EXPERIMENTS.md has the measured sizes.
const CHUNK_BYTES: u64 = 256 << 10;

/// Bytes a chunk reads past the cut that ends it, so that the line end
/// after that cut nearly always arrives in the same read.
const SLACK_BYTES: usize = 4 << 10;

/// Bytes at least by which a chunk's window grows when a record runs past
/// its end.
const GROW_BYTES: usize = 64 << 10;

/// Bytes [`write_csv`] renders before it writes them out.
const WRITE_BYTES: usize = 64 << 10;

/// Most records one chunk worker's [`RowMemo`] holds before it starts
/// over.
const ROW_MEMO_ROWS: usize = 4096;

/// Bytes one chunk worker's [`RowMemo`] holds in all: its hash table,
/// where each record ends, and the records' bytes and cells. It is
/// allocated once and never grows.
const ROW_MEMO_BYTES: usize = 1 << 20;

/// Longest record a [`RowMemo`] keeps, its bytes and cells together: a
/// longer one is scanned each time it comes, and the memo looks no
/// further than this for a key's `\n`.
const ROW_MEMO_LONGEST: usize = ROW_MEMO_BYTES / 256;

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

/// Read a table from a CSV file on disk: [`read_csv`] over the file.
pub fn read_csv_file<P: AsRef<Path>>(
    path: P,
    relation_name: &str,
    symbols: &mut SymbolTable,
) -> Result<Table> {
    read_csv(File::open(path)?, relation_name, symbols)
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
/// thread into a buffer that is written out every 64 KiB. Fields are
/// quoted exactly as `csv::Writer` quotes them; whether a value needs
/// quotes is decided once per symbol of `symbols`, not once per cell.
pub fn write_csv<W: Write>(mut writer: W, table: &Table, symbols: &SymbolTable) -> Result<()> {
    let mut buf = Vec::new();
    push_record(&mut buf, table.schema().attr_names());
    let quoted: Vec<bool> = symbols.iter().map(|(_, v)| csv::needs_quotes(v)).collect();
    for row in table.rows() {
        for (k, &s) in row.iter().enumerate() {
            if k > 0 {
                buf.push(b',');
            }
            let value = symbols.resolve(s);
            if quoted[s.index()] {
                csv::push_field(&mut buf, value);
            } else {
                buf.extend_from_slice(value.as_bytes());
            }
        }
        buf.push(b'\n');
        if buf.len() >= WRITE_BYTES {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    writer.flush()?;
    Ok(())
}

/// Write a table to a CSV file on disk: [`write_csv`] over the file.
pub fn write_csv_file<P: AsRef<Path>>(path: P, table: &Table, symbols: &SymbolTable) -> Result<()> {
    write_csv(File::create(path)?, table, symbols)
}

/// Fill blocks `0..blocks` with up to `workers` workers and hand them to
/// `take` on the calling thread, in order. Returns each worker's scratch,
/// in worker order.
///
/// `fill` overwrites a block, given the calling worker's own scratch,
/// which `scratch` makes from the worker's number. Workers take the next
/// block to fill from a queue, in order, so one whose core is taken away
/// holds up only the block it has; the calling thread puts the filled
/// blocks back in order. The queue runs at most [`BLOCKS_AHEAD`] blocks
/// per worker past the block being taken, which bounds the blocks in
/// memory, and each taken block goes back into the queue to be filled
/// again. The first block that fails, in block order, ends the run with
/// its error. With one worker, filling stays on the calling thread.
fn in_order<T: Send, B: Default + Send>(
    blocks: usize,
    workers: usize,
    scratch: impl Fn(usize) -> T + Sync,
    fill: impl Fn(&mut T, usize, &mut B) -> Result<()> + Sync,
    mut take: impl FnMut(&mut B) -> Result<()>,
) -> Result<Vec<T>> {
    if workers <= 1 {
        let (mut scratch, mut buf) = (scratch(0), B::default());
        for block in 0..blocks {
            fill(&mut scratch, block, &mut buf)?;
            take(&mut buf)?;
        }
        return Ok(vec![scratch]);
    }
    let ahead = (BLOCKS_AHEAD * workers).min(blocks);
    let (queue, jobs) = mpsc::channel::<(usize, B)>();
    let jobs = Mutex::new(jobs);
    let (done, filled) = mpsc::channel::<(usize, Result<B>)>();
    std::thread::scope(|scope| {
        // Moved in, so that it closes when the calling thread returns.
        let queue = queue;
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (scratch, fill, jobs, done) = (&scratch, &fill, &jobs, done.clone());
                scope.spawn(move || {
                    let mut scratch = scratch(worker);
                    loop {
                        // A statement of its own, so the lock is not held
                        // while the block fills. The queue closes when the
                        // calling thread returns.
                        let job = jobs.lock().expect("block queue").recv();
                        let Ok((block, mut buf)) = job else {
                            return scratch;
                        };
                        // A panic still reports the block, so the calling
                        // thread does not wait for it; the scope then
                        // raises the panic.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                fill(&mut scratch, block, &mut buf)
                            }));
                        let (result, panic) = match outcome {
                            Ok(r) => (r.map(|()| buf), None),
                            Err(p) => (Err(csv_error("a CSV worker panicked".into())), Some(p)),
                        };
                        // `filled` outlives the scope, so this cannot fail.
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
                .send((block, B::default()))
                .expect("the block queue outlives the calling thread");
        }
        // Block `b` waits in slot `b % ahead`: at most `ahead` blocks past
        // the one being taken are out.
        let mut slots: Vec<Option<Result<B>>> = (0..ahead).map(|_| None).collect();
        for block in 0..blocks {
            let mut buf = loop {
                if let Some(result) = slots[block % ahead].take() {
                    break result?;
                }
                let (b, result) = filled.recv().expect("CSV worker panicked");
                slots[b % ahead] = Some(result);
            };
            take(&mut buf)?;
            if block + ahead < blocks {
                queue
                    .send((block + ahead, buf))
                    .expect("the block queue outlives the calling thread");
            }
        }
        drop(queue);
        Ok(handles
            .into_iter()
            .map(|h| h.join().expect("CSV worker panicked"))
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
    spans: Spans<'a>,
    /// Scratch for [`ChunkRows::fields`].
    record: &'a mut Record,
}

impl ChunkRows<'_> {
    /// How many rows the chunk holds.
    pub fn rows(&self) -> usize {
        self.verbatim.len()
    }

    /// Mark the chunk's row `i` as changed, so that it is rendered from
    /// [`ChunkRows::cells`] instead of copied from the file.
    pub fn touch(&mut self, i: usize) {
        self.verbatim[i] = false;
    }

    /// Row `i`'s fields as the file holds them, unquoted: all of the row's
    /// values before any repair, the ones loaded as ⊥ included.
    pub fn fields(&mut self, i: usize) -> impl Iterator<Item = &[u8]> + '_ {
        let raw = self.spans.row(i);
        scan_record(raw, true, self.record, &[]);
        let record = &*self.record;
        (0..record.fields.len()).map(move |k| record.field(raw, k))
    }
}

/// Where [`par_repair_csv`] failed.
#[derive(Debug)]
pub enum PipelineError {
    /// Reading the input: an I/O error, or the first malformed record in
    /// file order, worded as [`read_csv`] words it.
    Read(RelationError),
    /// Delivering the output.
    Write(RelationError),
}

/// Busy time per phase of a [`par_repair_csv`] run, in nanoseconds summed
/// over its workers; `write` is the calling thread's.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineTimes {
    /// Reading and scanning chunks, rescans included.
    pub scan_ns: u64,
    /// The caller's repair step.
    pub repair_ns: u64,
    /// Rendering repaired chunks.
    pub render_ns: u64,
    /// Delivering rendered chunks.
    pub write_ns: u64,
    /// Waiting for an earlier chunk to confirm where it ends.
    pub wait_ns: u64,
}

/// What a [`par_repair_csv`] run leaves: how many rows it read, each
/// worker's state in worker order, its busy time per phase, and how many
/// rows took their cells from a worker's memo of the records it scanned.
#[derive(Debug)]
pub struct Pipelined<T> {
    pub rows: usize,
    pub workers: Vec<T>,
    pub times: PipelineTimes,
    pub scan_replayed: usize,
}

/// Repair the CSV file at `data` with up to `threads` workers, one
/// fixed-size chunk of the file at a time, never holding the table, and
/// hand the repaired CSV to `deliver` in order on the calling thread.
///
/// `schema` is the file's header, as [`read_csv_header`] read it, and
/// `constants` the values to keep: every other cell reaches the repair
/// step as [`Symbol::BOTTOM`]. Each worker makes its state with `worker`
/// from its number, and gives it to `repair` with every chunk it takes;
/// `repair` may change the cells and must [touch](ChunkRows::touch) each
/// row it changes. It may also leave a note, which starts as
/// `N::default()` for every chunk, and which `deliver` gets with the
/// chunk's bytes; `deliver` gets the header first, with a default note.
///
/// The bytes after the header are cut every 256 KiB, and workers claim
/// the chunks in file order, at most four per worker ahead of the chunk
/// being delivered. A worker reads its chunk's bytes once into its own
/// buffer, and scans the records that start from just past the first
/// `\n` at or after the chunk's cut up to the same point after the next
/// cut. Then it waits until every earlier chunk has confirmed where it
/// ends, which gives it its true start and its first row's number. A
/// chunk whose guessed start is not its true start (a quoted line break
/// straddles the cut) is scanned again from the true one. The worker then
/// repairs its rows and renders them: an untouched row that holds no `"`
/// is its bytes with the line end made `\n`, and every other row is
/// rendered field by field, each cell from `constants` unless it is ⊥, in
/// which case from the file. The bytes are those [`write_csv`] gives for
/// the table [`read_csv`] loads from `data`, repaired alike.
///
/// The error is the first in file order, from a chunk scanned from its
/// true start; a failing chunk wakes every worker waiting for it, and
/// nothing after it is delivered. An input of one chunk, and any input at
/// one worker, runs on the calling thread.
pub fn par_repair_csv<P, T, N>(
    data: P,
    schema: &Schema,
    constants: &SymbolTable,
    threads: usize,
    worker: impl Fn(usize) -> T + Sync,
    repair: impl Fn(&mut T, ChunkRows<'_>, &mut N) + Sync,
    deliver: impl FnMut(&[u8], &N) -> io::Result<()>,
) -> std::result::Result<Pipelined<T>, PipelineError>
where
    P: AsRef<Path>,
    T: Send,
    N: Default + Send,
{
    let (file, len) = open(data)?;
    Pipeline::new(&file, len, schema, constants).repair(threads, true, worker, repair, deliver)
}

/// [`par_repair_csv`] for a caller that wants no output: the chunks are
/// scanned and repaired alike, but nothing is rendered, and `take` gets
/// only each chunk's note, in file order on the calling thread.
pub fn par_read_csv<P, T, N>(
    data: P,
    schema: &Schema,
    constants: &SymbolTable,
    threads: usize,
    worker: impl Fn(usize) -> T + Sync,
    repair: impl Fn(&mut T, ChunkRows<'_>, &mut N) + Sync,
    mut take: impl FnMut(&N),
) -> std::result::Result<Pipelined<T>, PipelineError>
where
    P: AsRef<Path>,
    T: Send,
    N: Default + Send,
{
    let (file, len) = open(data)?;
    Pipeline::new(&file, len, schema, constants).repair(
        threads,
        false,
        worker,
        repair,
        |_, note| {
            take(note);
            Ok(())
        },
    )
}

/// The file at `data` and its length.
fn open(data: impl AsRef<Path>) -> std::result::Result<(File, u64), PipelineError> {
    let read = |e: io::Error| PipelineError::Read(e.into());
    let file = File::open(data).map_err(read)?;
    let len = file.metadata().map_err(read)?.len();
    Ok((file, len))
}

/// A chunked read of any [`ReadAt`] source of `len` bytes, cut into
/// chunks of `chunk_bytes`.
struct Pipeline<'a, S: ?Sized> {
    src: &'a S,
    len: u64,
    schema: &'a Schema,
    constants: &'a SymbolTable,
    chunk_bytes: u64,
}

/// One chunk worker's buffers and the caller's state.
struct Stage<'a, S: ?Sized, T> {
    window: Window<'a, S>,
    chunk: Chunk<'a>,
    record: Record,
    times: PipelineTimes,
    /// Rows of this worker's chunks whose cells came from its row memo.
    replayed: usize,
    state: T,
}

impl<'a, S: ReadAt + ?Sized> Pipeline<'a, S> {
    fn new(src: &'a S, len: u64, schema: &'a Schema, constants: &'a SymbolTable) -> Self {
        Pipeline {
            src,
            len,
            schema,
            constants,
            chunk_bytes: CHUNK_BYTES,
        }
    }

    /// [`par_repair_csv`] over the source; without `render`, the header is
    /// not delivered and every chunk's bytes are left empty.
    fn repair<T: Send, N: Default + Send>(
        &self,
        threads: usize,
        render: bool,
        worker: impl Fn(usize) -> T + Sync,
        repair: impl Fn(&mut T, ChunkRows<'_>, &mut N) + Sync,
        mut deliver: impl FnMut(&[u8], &N) -> io::Result<()>,
    ) -> std::result::Result<Pipelined<T>, PipelineError> {
        let (mut write_ns, mut write_failed) = (0, false);
        let mut take = |bytes: &[u8], note: &N| {
            let started = Instant::now();
            let taken = deliver(bytes, note);
            write_ns += nanos(started, Instant::now());
            write_failed |= taken.is_err();
            taken.map_err(RelationError::from)
        };
        let run = self.data_start().and_then(|data_start| {
            if render {
                let mut header = Vec::new();
                push_record(&mut header, self.schema.attr_names());
                take(&header, &N::default())?;
            }
            self.run(
                data_start,
                threads,
                worker,
                |stage, first_row, (bytes, note): &mut (Vec<u8>, N)| {
                    let Stage {
                        window,
                        chunk,
                        record,
                        times,
                        state,
                        ..
                    } = stage;
                    let spans = Spans {
                        bytes: &window.buf[..window.len],
                        base: window.base,
                        starts: &chunk.row_starts,
                        end: chunk.end,
                    };
                    let repairing = Instant::now();
                    *note = N::default();
                    let rows = ChunkRows {
                        first_row,
                        cells: &mut chunk.cells,
                        verbatim: &mut chunk.plain,
                        spans,
                        record,
                    };
                    repair(state, rows, note);
                    let rendering = Instant::now();
                    times.repair_ns += nanos(repairing, rendering);
                    if !render {
                        return Ok(());
                    }
                    bytes.clear();
                    let rendered = self.render(spans, &chunk.cells, &chunk.plain, record, bytes);
                    times.render_ns += nanos(rendering, Instant::now());
                    rendered
                },
                |(bytes, note)| take(bytes, note),
            )
        });
        match run {
            Ok(run) => Ok(Pipelined {
                times: PipelineTimes {
                    write_ns,
                    ..run.times
                },
                ..run
            }),
            Err(e) if write_failed => Err(PipelineError::Write(e)),
            Err(e) => Err(PipelineError::Read(e)),
        }
    }

    /// Where the data starts, just past the header, once the header is
    /// found to be `schema`'s.
    fn data_start(&self) -> Result<u64> {
        let mut rdr = csv::ReaderBuilder::new()
            .has_headers(true)
            .flexible(false)
            .from_reader(ReadFrom {
                src: self.src,
                pos: 0,
            });
        if !rdr.headers()?.iter().eq(self.schema.attr_names()) {
            return Err(header_differs());
        }
        Ok(rdr.record_offset()?)
    }

    /// Scan the chunks of the data from `data_start` on, with up to
    /// `threads` workers whose state `worker` makes. Once a chunk's start
    /// is confirmed, `process` turns it into a block on its worker, given
    /// its first row's number, and `take` gets the blocks in file order on
    /// the calling thread.
    fn run<T: Send, B: Default + Send>(
        &self,
        data_start: u64,
        threads: usize,
        worker: impl Fn(usize) -> T + Sync,
        process: impl Fn(&mut Stage<'_, S, T>, usize, &mut B) -> Result<()> + Sync,
        take: impl FnMut(&mut B) -> Result<()>,
    ) -> Result<Pipelined<T>> {
        let chunks = usize::try_from(
            self.len
                .saturating_sub(data_start)
                .div_ceil(self.chunk_bytes),
        )
        .unwrap_or(usize::MAX)
        .max(1);
        let index = ConstantIndex::new(self.constants);
        let chain = Chain::new(data_start);
        let cut = |k: usize| data_start + k as u64 * self.chunk_bytes;
        let stages = in_order(
            chunks,
            threads.min(chunks),
            |w| Stage {
                window: Window::new(self.src),
                chunk: Chunk::new(&index, self.schema.arity()),
                record: Record::default(),
                times: PipelineTimes::default(),
                replayed: 0,
                state: worker(w),
            },
            |stage, k, block| {
                let next = (k + 1 < chunks).then(|| cut(k + 1));
                let first_row = self.scan(stage, &chain, k, (cut(k), next))?;
                process(stage, first_row, block)
            },
            take,
        )?;
        let (mut times, mut scan_replayed) = (PipelineTimes::default(), 0);
        let workers = stages
            .into_iter()
            .map(|stage| {
                let t = stage.times;
                times.scan_ns += t.scan_ns;
                times.repair_ns += t.repair_ns;
                times.render_ns += t.render_ns;
                times.wait_ns += t.wait_ns;
                scan_replayed += stage.replayed;
                stage.state
            })
            .collect();
        let rows = chain.lock().rows;
        Ok(Pipelined {
            rows,
            workers,
            times,
            scan_replayed,
        })
    }

    /// Scan chunk `k`, which starts at the first line start at or after
    /// `cut` (or at `cut` itself for chunk 0) and ends at the first line
    /// start at or after `next`, or at the end of the file, and confirm its
    /// start through `chain`. Returns its first row's number.
    fn scan<T>(
        &self,
        stage: &mut Stage<'_, S, T>,
        chain: &Chain,
        k: usize,
        (cut, next): (u64, Option<u64>),
    ) -> Result<usize> {
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
            times,
            replayed,
            ..
        } = stage;
        let want = next.map_or(u64::MAX, |n| n - cut + SLACK_BYTES as u64);
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
        *replayed += chunk.replayed;
        turn.publish(chunk.end, first_row + chunk.row_starts.len());
        Ok(first_row)
    }

    /// Render a scanned and repaired chunk's rows into `buf`.
    fn render(
        &self,
        spans: Spans<'_>,
        cells: &[Symbol],
        verbatim: &[bool],
        record: &mut Record,
        buf: &mut Vec<u8>,
    ) -> Result<()> {
        let arity = self.schema.arity();
        for (i, (&verbatim, cells)) in verbatim.iter().zip(cells.chunks_exact(arity)).enumerate() {
            let raw = spans.row(i);
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

/// Where a scanned chunk's rows are among its window's bytes.
#[derive(Clone, Copy)]
struct Spans<'a> {
    /// The window's bytes, which start at offset `base` of the source.
    bytes: &'a [u8],
    base: u64,
    /// Where each row starts, and where the record after the last starts.
    starts: &'a [u64],
    end: u64,
}

impl<'a> Spans<'a> {
    /// Row `i`'s bytes, its line end included.
    fn row(&self, i: usize) -> &'a [u8] {
        let end = self.starts.get(i + 1).copied().unwrap_or(self.end);
        let at = |offset: u64| (offset - self.base) as usize;
        &self.bytes[at(self.starts[i])..at(end)]
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

/// The error for a file whose header is not the schema it is read as.
fn header_differs() -> RelationError {
    RelationError::Io("the CSV header differs from the schema it was read as".to_string())
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

/// One chunk's scan: its rows as constants and ⊥, where each row starts
/// and whether it holds a `"`, and where the scan stopped. The worker's
/// [`RowMemo`] lives with it from chunk to chunk.
struct Chunk<'a> {
    index: &'a ConstantIndex,
    memo: RowMemo,
    /// The scan stops at the first record starting at or past this.
    bound: u64,
    /// Where the record after the chunk's last one starts.
    end: u64,
    /// Row-major cells.
    cells: Vec<Symbol>,
    row_starts: Vec<u64>,
    /// Row `i` holds no `"`.
    plain: Vec<bool>,
    /// The error that stopped the scan before `bound`, if any.
    error: Option<RelationError>,
    /// Rows whose cells came from the memo.
    replayed: usize,
}

impl<'a> Chunk<'a> {
    /// An empty chunk of `arity` fields to a row, whose scans look cells up
    /// in `index`.
    fn new(index: &'a ConstantIndex, arity: usize) -> Self {
        Chunk {
            index,
            memo: RowMemo::new(arity),
            bound: 0,
            end: 0,
            cells: Vec::new(),
            row_starts: Vec::new(),
            plain: Vec::new(),
            error: None,
            replayed: 0,
        }
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
        self.bound = bound;
        self.end = start;
        self.cells.clear();
        self.row_starts.clear();
        self.plain.clear();
        self.error = None;
        self.replayed = 0;
        window.seek(start);
        if let Err(e) = self.fill(window, arity) {
            self.error = Some(e);
        }
    }

    fn fill<S: ReadAt + ?Sized>(&mut self, window: &mut Window<'_, S>, arity: usize) -> Result<()> {
        let mut row = vec![Symbol(0); arity];
        // As in `read_csv`, a cell equal to the cell above is not looked
        // up again. `above_at` is where the record above starts in the
        // window, while the window still holds it, and `above_plain` says
        // it holds no `"`.
        let mut record = Record::default();
        let mut above = Record::default();
        let mut above_at: Option<usize> = None;
        let mut above_plain = false;
        loop {
            self.end = window.base + window.pos as u64;
            if self.end >= self.bound {
                return Ok(());
            }
            // A record the memo holds is its cells, with nothing to check:
            // its bytes were scanned, checked and looked up once already.
            let asked = match self.memo.recall(&window.buf[window.pos..window.len]) {
                Recall::Hit { len, cells } => {
                    self.cells.extend(
                        cells
                            .chunks_exact(4)
                            .map(|c| Symbol(u32::from_le_bytes(c.try_into().expect("4 bytes")))),
                    );
                    self.row_starts.push(self.end);
                    self.plain.push(true);
                    self.replayed += 1;
                    above_at = None;
                    window.pos += len;
                    continue;
                }
                Recall::Miss(miss) => Some(miss),
                Recall::Skip => None,
            };
            let (len, plain, known) = loop {
                let bytes = &window.buf[window.pos..window.len];
                // The record takes the fields of a plain record above whose
                // `,` comes before the first byte where the two differ: up to
                // that `,`, the scan reads the same bytes and so splits them
                // the same way. The last field ends at a line end, whose `\r`
                // may take the next byte along, so it is always scanned.
                let shared = match above_at {
                    Some(at) if above_plain => {
                        let prefix = common_prefix(&window.buf[at..window.pos], bytes);
                        let fields = &above.fields[..above.fields.len().saturating_sub(1)];
                        &fields[..fields.partition_point(|f| f.end < prefix)]
                    }
                    _ => &[],
                };
                match scan_record(bytes, window.eof, &mut record, shared) {
                    Scan::Record { len, plain } => break (len, plain, shared.len()),
                    Scan::Partial => {
                        window.refill().map_err(|e| csv_error(e.to_string()))?;
                        above_at = None;
                    }
                    Scan::End => return Ok(()),
                    Scan::Unterminated => {
                        check_utf8(bytes, &record)?;
                        return Err(csv_error("unterminated quoted field".to_string()));
                    }
                }
            };
            let raw = &window.buf[window.pos..window.pos + len];
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
            for (i, slot) in row.iter_mut().enumerate().skip(known) {
                let cell = record.field(raw, i);
                if above_raw.is_none_or(|a| above.field(a, i) != cell) {
                    *slot = self.index.get(cell).map_or(Symbol::BOTTOM, Symbol);
                }
            }
            // Only a record that holds no `"` and ends at its key's `\n`
            // goes in: a `"` changes how the row renders, and a record that
            // ends before that `\n` (at a lone `\r`) is not its key.
            if let Some(miss) = asked.filter(|m| plain && m.len == len) {
                self.memo.insert(miss, &window.buf[window.pos..], &row);
            }
            self.cells.extend_from_slice(&row);
            self.row_starts.push(self.end);
            self.plain.push(plain);
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

/// A chunk worker's memo from a record's exact bytes to its cells, so that
/// a record met again is not split, checked or looked up again (DESIGN.md
/// §18).
///
/// A record's key is its bytes up to and including the first `\n`. Only a
/// record with no `"` whose scan ended at that `\n` goes in (so a `\r\n`
/// record may, and a record that ends at a lone `\r` may not): scanning it
/// read no byte past the `\n`, so the same bytes at any record's start scan
/// to the same fields, pass the same UTF-8 and arity checks, and look up
/// the same cells. A scan from a wrongly guessed chunk start reads real
/// bytes too, so what it memoizes holds everywhere.
///
/// The memo is [`ROW_MEMO_BYTES`] allocated once: a table of
/// `2 × ROW_MEMO_ROWS` slots, where each record ends, and an arena of each
/// record's bytes followed by its cells. When a record would overflow the
/// arena or the [`ROW_MEMO_ROWS`] records, it forgets every record and
/// starts over; a record longer than [`ROW_MEMO_LONGEST`] never goes in.
/// [`Backoff`] stops asking it while too few records are held.
struct RowMemo {
    arity: usize,
    /// Open addressing with linear probing, as in [`LocalDict`]: the top
    /// half of a key's hash ([`line_key`]) and its record's number plus
    /// one, or 0 when empty.
    slots: Vec<u64>,
    /// Where record `i` ends in `arena`; it starts where record `i - 1`
    /// ends.
    ends: Vec<u32>,
    /// Each record's key, then its cells as four little-endian bytes each.
    arena: Vec<u8>,
    backoff: Backoff,
}

/// What a [`RowMemo`] says about the record at the start of some bytes.
enum Recall<'m> {
    /// It holds the record, the first `len` bytes, and these are its
    /// cells, four bytes each.
    Hit { len: usize, cells: &'m [u8] },
    /// It was asked and does not hold the record.
    Miss(Miss),
    /// It was not asked, or the record's key is too long to hold.
    Skip,
}

/// A record that a [`RowMemo`] was asked about and did not hold: its key's
/// length and hash, and the free slot where it would go.
struct Miss {
    len: usize,
    hash: u64,
    slot: usize,
}

impl RowMemo {
    /// Slots in the hash table, at most half of them full.
    const SLOTS: usize = 2 * ROW_MEMO_ROWS;

    /// Bytes of the arena: what the table and the ends leave of
    /// [`ROW_MEMO_BYTES`].
    const ARENA: usize = ROW_MEMO_BYTES - 8 * Self::SLOTS - 4 * ROW_MEMO_ROWS;

    fn new(arity: usize) -> Self {
        RowMemo {
            arity,
            slots: vec![0; Self::SLOTS],
            ends: Vec::with_capacity(ROW_MEMO_ROWS),
            arena: Vec::with_capacity(Self::ARENA),
            backoff: Backoff::default(),
        }
    }

    /// The bytes the memo has allocated.
    #[cfg(test)]
    fn allocated(&self) -> usize {
        8 * self.slots.capacity() + 4 * self.ends.capacity() + self.arena.capacity()
    }

    /// Look up the record at the start of `bytes`, unless [`Backoff`] says
    /// to skip it. A key with no `\n` among the first [`ROW_MEMO_LONGEST`]
    /// bytes is too long to be held: a miss that the memo cannot keep.
    #[inline]
    fn recall(&mut self, bytes: &[u8]) -> Recall<'_> {
        if self.backoff.skips() {
            return Recall::Skip;
        }
        let Some((len, hash)) = line_key(bytes) else {
            self.backoff.asked(false);
            return Recall::Skip;
        };
        let key = &bytes[..len];
        let mask = Self::SLOTS - 1;
        let mut slot = home(hash, Self::SLOTS);
        loop {
            match self.slots[slot] {
                0 => {
                    self.backoff.asked(false);
                    return Recall::Miss(Miss { len, hash, slot });
                }
                s if s & HASH_TOP == hash & HASH_TOP => {
                    let id = (s as u32 - 1) as usize;
                    let start = if id == 0 {
                        0
                    } else {
                        self.ends[id - 1] as usize
                    };
                    let record = &self.arena[start..self.ends[id] as usize];
                    let (held, cells) = record.split_at(record.len() - 4 * self.arity);
                    if held == key {
                        self.backoff.asked(true);
                        return Recall::Hit { len, cells };
                    }
                }
                _ => {}
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Hold the key that `miss` found at the start of `bytes`, with
    /// `cells`, starting over first if they would not fit.
    fn insert(&mut self, miss: Miss, bytes: &[u8], cells: &[Symbol]) {
        let key = &bytes[..miss.len];
        let size = key.len() + 4 * cells.len();
        if size > ROW_MEMO_LONGEST {
            return;
        }
        let mut slot = miss.slot;
        if self.ends.len() == ROW_MEMO_ROWS || self.arena.len() + size > Self::ARENA {
            self.slots.fill(0);
            self.ends.clear();
            self.arena.clear();
            slot = home(miss.hash, Self::SLOTS);
        }
        self.arena.extend_from_slice(key);
        for cell in cells {
            self.arena.extend_from_slice(&cell.0.to_le_bytes());
        }
        self.ends.push(self.arena.len() as u32);
        self.slots[slot] = (miss.hash & HASH_TOP) | self.ends.len() as u64;
    }
}

/// The part of a [`ReadAt`] source that a chunk scan holds in memory:
/// every byte read since the window last moved, which the chunk's rows
/// are rendered from.
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
    /// The window reads nothing at or past this offset.
    limit: u64,
    /// A read stopped at `limit`.
    capped: bool,
}

impl<'a, S: ReadAt + ?Sized> Window<'a, S> {
    fn new(src: &'a S) -> Self {
        Window {
            src,
            buf: Vec::new(),
            len: 0,
            base: 0,
            pos: 0,
            eof: false,
            utf8_upto: 0,
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
            self.read_more(GROW_BYTES)?;
        }
    }

    /// Read more of the source after the bytes held, keeping them all: the
    /// window grows by the part of the record read so far, and by at least
    /// [`GROW_BYTES`].
    fn refill(&mut self) -> io::Result<()> {
        self.read_more((self.len - self.pos).max(GROW_BYTES))?;
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

/// A dictionary of byte strings, the storage of a [`ConstantIndex`]: each
/// distinct value stored once in one arena, under an id in
/// first-occurrence order, with no allocation per value. It lives for one
/// read, so it hashes with [`hash_bytes`] instead of the [`SymbolTable`]'s
/// SipHash.
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

/// One FxHash step: fold `word` into `hash`.
#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    // FxHash's multiplier: `(sqrt(5) - 1) / 2 * 2^64`, rounded to odd.
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// The [`RowMemo`] key at the start of `bytes`: its length, up to and
/// including the first `\n` among the first [`ROW_MEMO_LONGEST`] bytes,
/// and its hash, or `None` if no `\n` is there. One pass finds the `\n`
/// and hashes: FxHash steps over the key's 8-byte words, the last one
/// with the bytes past the `\n` zeroed, then its length. A word holds a
/// `\n` where `(w ^ 0x0a..) - 0x01..` borrows: `& !x & 0x80..` sets the
/// top bit of its first zero byte, and maybe of later ones.
#[inline]
fn line_key(bytes: &[u8]) -> Option<(usize, u64)> {
    const LO: u64 = u64::from_le_bytes([0x01; 8]);
    const HI: u64 = u64::from_le_bytes([0x80; 8]);
    const NL: u64 = u64::from_le_bytes([b'\n'; 8]);
    let reach = &bytes[..bytes.len().min(ROW_MEMO_LONGEST)];
    let mut words = reach.chunks_exact(8);
    let mut hash = 0;
    for (k, word) in (&mut words).enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        let x = w ^ NL;
        let newlines = x.wrapping_sub(LO) & !x & HI;
        if newlines != 0 {
            let kept = newlines.trailing_zeros() as usize / 8 + 1;
            let len = 8 * k + kept;
            let last = if kept == 8 {
                w
            } else {
                w & ((1 << (8 * kept)) - 1)
            };
            return Some((len, mix(mix(hash, last), len as u64)));
        }
        hash = mix(hash, w);
    }
    let tail = words.remainder();
    let kept = tail.iter().position(|&b| b == b'\n')? + 1;
    let mut last = [0; 8];
    last[..kept].copy_from_slice(&tail[..kept]);
    let len = reach.len() - tail.len() + kept;
    Some((len, mix(mix(hash, u64::from_le_bytes(last)), len as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrId;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// Σ's constants for the chunked readers: values the inputs below hold
    /// (quoted, escaped, multi-line, empty) and one they never do.
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

    /// [`CONSTANTS`] as a symbol table.
    fn constants() -> SymbolTable {
        let mut constants = SymbolTable::new();
        for c in CONSTANTS {
            constants.intern(c);
        }
        constants
    }

    /// A pipeline over `data` in chunks of `chunk_bytes`.
    fn pipeline<'a, S: ReadAt + ?Sized>(
        data: &'a S,
        len: usize,
        schema: &'a Schema,
        constants: &'a SymbolTable,
        chunk_bytes: u64,
    ) -> Pipeline<'a, S> {
        Pipeline {
            chunk_bytes,
            ..Pipeline::new(data, len as u64, schema, constants)
        }
    }

    type Projected = std::result::Result<Vec<Vec<Option<String>>>, String>;

    /// Rows with every cell its value if that is one of [`CONSTANTS`], or
    /// else `None`.
    fn projected<'a>(
        rows: impl Iterator<Item = &'a [Symbol]>,
        resolve: impl Fn(Symbol) -> Option<String>,
    ) -> Vec<Vec<Option<String>>> {
        rows.map(|row| row.iter().map(|&s| resolve(s)).collect())
            .collect()
    }

    /// The cells a pipeline hands its repair step at up to `workers`
    /// workers, every chunk's in file order, with nothing repaired or
    /// rendered.
    fn scanned_cells<S: ReadAt + ?Sized>(
        pipeline: &Pipeline<'_, S>,
        workers: usize,
    ) -> Result<Vec<Symbol>> {
        let mut cells = Vec::new();
        let run = pipeline.repair(
            workers,
            false,
            |_| (),
            |_, chunk: ChunkRows<'_>, note: &mut Vec<Symbol>| note.extend_from_slice(chunk.cells),
            |bytes, note| {
                assert!(bytes.is_empty(), "a run without rendering rendered");
                cells.extend_from_slice(note);
                Ok(())
            },
        );
        match run {
            Ok(run) => {
                assert_eq!(run.rows * pipeline.schema.arity(), cells.len());
                Ok(cells)
            }
            Err(PipelineError::Read(e)) => Err(e),
            Err(PipelineError::Write(e)) => panic!("discarding the output failed: {e}"),
        }
    }

    /// The cells the pipeline scans against `read_csv` on the same bytes:
    /// the rows projected onto [`CONSTANTS`] (any other value is ⊥) and
    /// the same error text.
    fn assert_loaded_matches(data: &[u8], chunk_bytes: u64, workers: usize) {
        let mut want_sy = SymbolTable::new();
        let want: Projected = read_csv(data, "R", &mut want_sy)
            .map(|t| {
                projected(t.rows(), |s| {
                    let v = want_sy.resolve(s);
                    CONSTANTS.contains(&v).then(|| v.to_string())
                })
            })
            .map_err(|e| e.to_string());
        let constants = constants();
        let got: Projected = read_csv_header(data, "R")
            .and_then(|schema| {
                let pipeline = pipeline(data, data.len(), &schema, &constants, chunk_bytes);
                let cells = scanned_cells(&pipeline, workers)?;
                Ok(projected(cells.chunks_exact(schema.arity()), |s| {
                    (s != Symbol::BOTTOM).then(|| constants.resolve(s).to_string())
                }))
            })
            .map_err(|e| e.to_string());
        assert_eq!(
            got,
            want,
            "input {:?} in chunks of {chunk_bytes} at {workers} workers",
            String::from_utf8_lossy(data)
        );
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

    /// What a repair left: its row count, its output, and each row's
    /// values before the repair, one line per row with its fields split by
    /// `|`; or the read's error.
    type Repaired = std::result::Result<(usize, Vec<u8>, String), String>;

    /// `read_csv`, [`toy_fix`] on every row, and `write_csv`: what the
    /// pipeline must deliver.
    fn read_repair_write(data: &[u8]) -> Repaired {
        let mut sy = SymbolTable::new();
        let mut table = read_csv(data, "R", &mut sy).map_err(|e| e.to_string())?;
        let mut before = String::new();
        for row in table.rows() {
            let values: Vec<&str> = row.iter().map(|&s| sy.resolve(s)).collect();
            before += &(values.join("|") + "\n");
        }
        let fix = ["zz", "x", "a"].map(|v| sy.intern(v));
        for r in 0..table.len() {
            toy_fix(r, table.row_mut(r), fix);
        }
        let mut out = Vec::new();
        write_csv(&mut out, &table, &sy).unwrap();
        Ok((table.len(), out, before))
    }

    /// The pipeline over `data` in chunks of `chunk_bytes`, with up to
    /// `workers` workers and [`toy_fix`] as its repair step, which notes
    /// each row's fields for the calling thread.
    fn pipelined(data: &[u8], chunk_bytes: u64, workers: usize) -> Repaired {
        let schema = read_csv_header(data, "R").unwrap();
        let constants = constants();
        let fix = ["zz", "x", "a"].map(|v| constants.get(v).unwrap());
        let arity = schema.arity();
        let (mut out, mut before) = (Vec::new(), String::new());
        let run = pipeline(data, data.len(), &schema, &constants, chunk_bytes).repair(
            workers,
            true,
            |w| w,
            |_, mut chunk: ChunkRows<'_>, note: &mut String| {
                for i in 0..chunk.rows() {
                    let fields: Vec<_> = chunk.fields(i).map(String::from_utf8_lossy).collect();
                    *note += &(fields.join("|") + "\n");
                    let row = &mut chunk.cells[i * arity..(i + 1) * arity];
                    if toy_fix(chunk.first_row + i, row, fix) {
                        chunk.touch(i);
                    }
                }
            },
            |bytes, note| {
                out.extend_from_slice(bytes);
                before += note;
                Ok(())
            },
        );
        match run {
            Ok(run) => {
                assert!(run.workers.iter().copied().eq(0..run.workers.len()));
                Ok((run.rows, out, before))
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
                .map(|(n, out, before)| {
                    (
                        *n,
                        String::from_utf8_lossy(out).into_owned(),
                        before.clone(),
                    )
                })
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
            for chunk_bytes in 1..=data.len() as u64 + 1 {
                for workers in 1..=4 {
                    assert_loaded_matches(data, chunk_bytes, workers);
                }
            }
        }
    }

    /// Adds the rows it repaired to a shared count when dropped.
    struct Tally<'a>(&'a AtomicUsize, usize);

    impl Drop for Tally<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(self.1, Ordering::Relaxed);
        }
    }

    /// A run that fails repairs exactly the chunks before the failing one,
    /// at any worker count, and drops every worker's state before it
    /// returns: a chunk after it waits for it and is never repaired.
    #[test]
    fn a_failed_run_repairs_every_chunk_before_the_failure_and_none_after() {
        let mut data = b"a,b\n".to_vec();
        for i in 0..400 {
            data.extend_from_slice(format!("x,{i}\n").as_bytes());
        }
        data.extend_from_slice(b"ragged\n");
        for i in 0..40 {
            data.extend_from_slice(format!("y,{i}\n").as_bytes());
        }
        let schema = read_csv_header(&data[..], "R").unwrap();
        let constants = constants();
        let repaired = |workers: usize| {
            let rows = AtomicUsize::new(0);
            let run = pipeline(&data[..], data.len(), &schema, &constants, 64).repair(
                workers,
                true,
                |_| Tally(&rows, 0),
                |tally, chunk: ChunkRows<'_>, _: &mut ()| tally.1 += chunk.rows(),
                |_, _| Ok(()),
            );
            assert!(matches!(run, Err(PipelineError::Read(_))));
            rows.load(Ordering::Relaxed)
        };
        let one = repaired(1);
        // 64-byte chunks of 4- to 6-byte rows: the chunks before the one
        // holding the ragged row hold at least 389 of the 400 rows.
        assert!((389..400).contains(&one), "{one}");
        for workers in 2..=4 {
            for _ in 0..3 {
                assert_eq!(repaired(workers), one, "{workers} workers");
            }
        }
    }

    /// SplitMix64, for the randomized differential tests.
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

    /// Up to `tokens` random tokens after a header: quotes, separators,
    /// both line breaks, values that are constants and one that is not,
    /// "é" whole and halved, and a byte that is never UTF-8.
    fn random_input(rng: &mut Rng, tokens: usize) -> Vec<u8> {
        let pool: [&[u8]; 12] = [
            b"x",
            b"zz",
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
        let mut data = b"h1,h2\n".to_vec();
        for _ in 0..rng.below(tokens) {
            let t = if rng.below(6) == 0 {
                rng.below(pool.len())
            } else {
                rng.below(10)
            };
            data.extend_from_slice(pool[t]);
        }
        data
    }

    #[test]
    fn chunked_read_matches_read_csv_on_random_inputs() {
        let mut rng = Rng(0xC4A7);
        for case in 0..3_000 {
            let data = random_input(&mut rng, 60);
            let chunk_bytes = 1 + rng.below(data.len()) as u64;
            assert_loaded_matches(&data, chunk_bytes, 1 + case % 4);
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
            let chunk_bytes = 1 + rng.below(data.len() / 2) as u64;
            assert_loaded_matches(&data, chunk_bytes, 1 + case % 4);
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
        let mut rng = Rng(0x919E);
        for case in 0..1_500 {
            let data = random_input(&mut rng, 80);
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

    /// An input that repeats its records, so that each worker's row memo
    /// holds some and hits them: a block of random records, tiled with a
    /// few records changed or inserted. Records end in `\n`, `\r\n` or a
    /// lone `\r`, and a block record may come back with `\r` before its
    /// `\n`, or with a lone `\r` instead. Fields are plain, empty, quoted
    /// with no need, `"`-escaped, mid-field `"`s and quoted line breaks;
    /// some quoted fields hold lines that are records of the block, so a
    /// chunk cut inside one guesses a start the memo may hold. With
    /// `fault`, some records of the last tile lose their last field or
    /// start with a byte that is never UTF-8.
    fn repeating_input(rng: &mut Rng, records: usize, fault: bool) -> Vec<u8> {
        let values: [&[u8]; 11] = [
            b"x",
            b"zz",
            b"a",
            b"4",
            b"",
            "é".as_bytes(),
            b"\"x\"",
            b"x\"y",
            b"\"a,b\"",
            b"\"say \"\"hi\"\"\"",
            b"\"1\n2\"",
        ];
        let ends: [&[u8]; 5] = [b"\n", b"\n", b"\n", b"\r\n", b"\r"];
        let fresh = |rng: &mut Rng| {
            (0..3)
                .map(|_| values[rng.below(values.len())])
                .collect::<Vec<_>>()
                .join(&b","[..])
        };
        let mut block: Vec<Vec<u8>> = Vec::new();
        for _ in 0..2 + rng.below(10) {
            let mut record = fresh(rng);
            if !block.is_empty() && rng.below(5) == 0 {
                // A quoted field holding a record of the block as a line.
                let line = block[rng.below(block.len())].clone();
                record = [&b"zz,\""[..], b"\n", &line, b"\",x"].concat();
            }
            record.extend_from_slice(ends[rng.below(ends.len())]);
            block.push(record);
        }
        let mut data = b"h0,h1,h2\n".to_vec();
        let mut written = 0;
        while written < records {
            let last = written + block.len() >= records;
            for record in &block {
                let mut record = record.clone();
                match rng.below(12) {
                    // The same values with another line end: a `\r` before
                    // the `\n`, or a lone `\r`.
                    0 if record.ends_with(b"\n") && !record.ends_with(b"\r\n") => {
                        record.insert(record.len() - 1, b'\r');
                    }
                    1 if record.ends_with(b"\n") => {
                        record.pop();
                        if !record.ends_with(b"\r") {
                            record.push(b'\r');
                        }
                    }
                    // A record that is not in the block.
                    2 => {
                        data.extend_from_slice(&fresh(rng));
                        data.push(b'\n');
                    }
                    _ => {}
                }
                if fault && last && rng.below(3) == 0 {
                    let cut = record.iter().rposition(|&b| b == b',').unwrap_or(0);
                    match rng.below(2) {
                        0 => record.truncate(cut),
                        _ => record.insert(0, 0xFF),
                    }
                    record.push(b'\n');
                }
                data.extend_from_slice(&record);
            }
            written += block.len();
        }
        data
    }

    #[test]
    fn chunked_read_matches_read_csv_on_repeating_inputs() {
        let mut rng = Rng(0x3E3E);
        for case in 0..24 {
            let data = repeating_input(&mut rng, 24, case % 6 == 5);
            for chunk_bytes in 1..=data.len() as u64 + 1 {
                assert_loaded_matches(&data, chunk_bytes, 1 + (chunk_bytes as usize + case) % 4);
            }
        }
        for case in 0..200 {
            let records = 40 + rng.below(600);
            let data = repeating_input(&mut rng, records, case % 6 == 5);
            let chunk_bytes = 1 + rng.below(data.len()) as u64;
            assert_loaded_matches(&data, chunk_bytes, 1 + case % 4);
        }
    }

    #[test]
    fn pipeline_matches_read_repair_write_on_repeating_inputs() {
        let mut rng = Rng(0x3E9A);
        for case in 0..24 {
            let data = repeating_input(&mut rng, 24, case % 6 == 5);
            for chunk_bytes in 1..=data.len() as u64 + 1 {
                assert_pipeline_matches(&data, chunk_bytes, 1 + (chunk_bytes as usize + case) % 4);
            }
        }
        for case in 0..200 {
            let records = 40 + rng.below(600);
            let data = repeating_input(&mut rng, records, case % 6 == 5);
            let chunk_bytes = 1 + rng.below(data.len()) as u64;
            assert_pipeline_matches(&data, chunk_bytes, 1 + case % 4);
        }
    }

    /// The row memo hits what repeats: a tiled input's cells come from it
    /// for all but the first tile, and ends with every record it holds
    /// within its bound.
    #[test]
    fn a_tiled_input_is_scanned_from_the_row_memo() {
        let mut data = b"a,b\n".to_vec();
        for _ in 0..50 {
            for i in 0..40 {
                data.extend_from_slice(format!("x{i},zz\r\n").as_bytes());
            }
        }
        let schema = read_csv_header(&data[..], "R").unwrap();
        let constants = constants();
        for workers in 1..=4 {
            let pipeline = pipeline(&data[..], data.len(), &schema, &constants, 512);
            let run = pipeline
                .repair(workers, true, |_| (), |_, _, _: &mut ()| {}, |_, _| Ok(()))
                .unwrap();
            assert_eq!(run.rows, 2_000);
            // Each worker scans each distinct record at most once.
            assert!(
                run.scan_replayed >= 2_000 - 40 * workers,
                "{workers} workers: {}",
                run.scan_replayed
            );
        }
    }

    /// Unique rows from 1 to 6 KiB long, some longer than a memo keeps:
    /// the memo starts over again and again, and stays within its bytes.
    #[test]
    fn the_row_memo_stays_within_its_bound_on_long_unique_rows() {
        let mut data = b"a,b\n".to_vec();
        let mut rng = Rng(0x10C6);
        for i in 0..2_500 {
            let long = "y".repeat(1_000 + rng.below(5_000));
            data.extend_from_slice(format!("{i}{long},x\n").as_bytes());
        }
        let schema = read_csv_header(&data[..], "R").unwrap();
        let constants = constants();
        let index = ConstantIndex::new(&constants);
        let mut chunk = Chunk::new(&index, schema.arity());
        let mut window = Window::new(&data[..]);
        let start = 4;
        chunk.rescan(&mut window, start, u64::MAX, schema.arity());
        assert!(chunk.error.is_none());
        assert_eq!(chunk.plain.len(), 2_500);
        let memo = &chunk.memo;
        assert!(memo.allocated() <= ROW_MEMO_BYTES, "{}", memo.allocated());
        assert!(memo.arena.len() <= RowMemo::ARENA);
        assert!(!memo.ends.is_empty(), "the memo kept no row");
        let mut from = 0;
        for &end in &memo.ends {
            assert!(end as usize - from <= ROW_MEMO_LONGEST);
            from = end as usize;
        }
    }

    #[test]
    fn line_key_ends_at_the_first_newline_and_hashes_only_the_key() {
        for n in 0..40 {
            let key = [vec![b'a'; n], b"\n".to_vec()].concat();
            let (len, hash) = line_key(&key).unwrap();
            assert_eq!(len, n + 1);
            for after in [&b"x"[..], b"\nzz,q\n", b"0123456789abcdef"] {
                assert_eq!(line_key(&[&key[..], after].concat()), Some((len, hash)));
            }
            assert_eq!(line_key(&key[..n]), None, "{n} bytes, no newline");
        }
        let beyond = [vec![b'y'; ROW_MEMO_LONGEST], b"\n".to_vec()].concat();
        assert_eq!(line_key(&beyond), None);
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
        let mut sy = SymbolTable::new();
        let table = read_csv(&data[..], "R", &mut sy).unwrap();
        let mut want = Vec::new();
        write_csv(&mut want, &table, &sy).unwrap();
        let want_cells = projected(table.rows(), |s| {
            constants
                .get(sy.resolve(s))
                .map(|_| sy.resolve(s).to_string())
        });
        for workers in [1, 2] {
            let src = Counted {
                bytes: &data,
                read: AtomicUsize::new(0),
            };
            let pipeline = pipeline(&src, data.len(), &schema, &constants, chunk_bytes as u64);
            let (mut out, mut cells) = (Vec::new(), Vec::new());
            let run = pipeline
                .repair(
                    workers,
                    true,
                    |_| (),
                    |_, chunk: ChunkRows<'_>, note: &mut Vec<Symbol>| {
                        note.extend_from_slice(chunk.cells)
                    },
                    |bytes, note| {
                        out.extend_from_slice(bytes);
                        cells.extend_from_slice(note);
                        Ok(())
                    },
                )
                .unwrap();
            assert_eq!(run.rows, rows);
            assert!(out == want, "workers={workers}");
            let got_cells = projected(cells.chunks_exact(3), |s| {
                (s != Symbol::BOTTOM).then(|| constants.resolve(s).to_string())
            });
            assert!(got_cells == want_cells, "workers={workers}");
            let read = src.read.load(Ordering::Relaxed);
            // Each chunk reads its own bytes and a little slack; a guess
            // that ran on to the end would read nearly all of them again.
            assert!(
                read < data.len() * 3 / 2,
                "read {read} of {} bytes in one run",
                data.len()
            );
        }
    }

    #[test]
    fn file_reader_and_writer_match_the_references_at_any_thread_count() {
        // Over 4 MiB, so the pipeline cuts it into many 256 KiB chunks and
        // the writer writes out many buffers; some values need quotes.
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
        let mut want_sy = SymbolTable::new();
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
        let mut sy = SymbolTable::new();
        let got = read_csv_file(&path, "R", &mut sy).unwrap();
        assert!(got.rows().eq(want.rows()));
        assert!(sy.iter().eq(want_sy.iter()));
        let mut out = Vec::new();
        write_csv(&mut out, &want, &want_sy).unwrap();
        assert!(out == want_out, "write_csv differs from csv::Writer");
        let out_path = dir.join("out.csv");
        write_csv_file(&out_path, &want, &want_sy).unwrap();
        assert!(
            std::fs::read(&out_path).unwrap() == want_out,
            "write_csv_file differs"
        );
        // The pipeline's cells, which hold only `constants` and ⊥, and its
        // output with a constant written into some rows, some of them
        // quoted in the file.
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
        for threads in 1..=4 {
            let plain = constants.get("plain").unwrap();
            for fix in [false, true] {
                let mut file = File::create(&out_path).unwrap();
                let mut cells = Vec::new();
                let run = par_repair_csv(
                    &path,
                    schema,
                    &constants,
                    threads,
                    |_| (),
                    |_, mut chunk, note: &mut Vec<Symbol>| {
                        note.extend_from_slice(chunk.cells);
                        for i in 0..chunk.rows() {
                            if fix && (chunk.first_row + i) % 997 == 7 {
                                chunk.cells[3 * i + 2] = plain;
                                chunk.touch(i);
                            }
                        }
                    },
                    |bytes, note| {
                        cells.extend_from_slice(note);
                        file.write_all(bytes)
                    },
                )
                .unwrap();
                assert_eq!(run.rows, want.len());
                assert!(run.workers.len() <= threads, "threads={threads}");
                assert_eq!(cells.len(), 3 * want.len());
                for (g, w) in cells.chunks_exact(3).zip(want.rows()) {
                    for (&g, &w) in g.iter().zip(w.iter()) {
                        let w = want_sy.resolve(w);
                        let g = (g != Symbol::BOTTOM).then(|| constants.resolve(g));
                        assert_eq!(g, names.contains(&w).then_some(w), "threads={threads}");
                    }
                }
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
        assert_eq!(dict.len(), 3_000);
        for i in 0..3_000 {
            assert_eq!(dict.value(i), format!("v{i}").as_bytes());
        }
    }

    /// Renders block `b` as its number on a line.
    fn numbered(b: usize, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(format!("{b}\n").as_bytes());
    }

    /// Appends each block taken to `out`.
    fn append(out: &mut Vec<u8>) -> impl FnMut(&mut Vec<u8>) -> Result<()> + '_ {
        |buf| {
            out.extend_from_slice(buf);
            Ok(())
        }
    }

    #[test]
    fn render_queue_writes_blocks_in_order_and_stops_at_the_first_error() {
        let blocks = 40;
        let lines = |n: usize| (0..n).map(|b| format!("{b}\n")).collect::<String>();
        for threads in 1..=4 {
            // Every fifth block renders slowly, so the blocks after it are
            // done first and wait for it.
            let mut out = Vec::new();
            in_order(
                blocks,
                threads,
                |_| (),
                |_: &mut (), b, buf: &mut Vec<u8>| {
                    if b % 5 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    numbered(b, buf);
                    Ok(())
                },
                append(&mut out),
            )
            .unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), lines(blocks), "{threads}");
            // The first failed block in row order wins, whichever fails
            // first in time, and nothing from it on is written.
            let mut out = Vec::new();
            let err = in_order(
                blocks,
                threads,
                |_| (),
                |_: &mut (), b, buf: &mut Vec<u8>| {
                    if b == 13 {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    if b == 13 || b == 14 || b == 29 {
                        return Err(csv_error(format!("block {b}")));
                    }
                    numbered(b, buf);
                    Ok(())
                },
                append(&mut out),
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
        let _ = in_order(
            40,
            3,
            |_| (),
            |_: &mut (), b, buf: &mut Vec<u8>| {
                assert_ne!(b, 6, "render failed");
                numbered(b, buf);
                Ok(())
            },
            append(&mut out),
        );
    }
}
