//! The fixd-mixed traffic of the traced run: one closed-loop client
//! against a spawned `fixd`, posting 1,000-row CSV batches to
//! `POST /repair` and reading provenance back through
//! `GET /explain/{row}/{attr}`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{Reference, HOT_ROWS};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::Tally;

/// Rows per `POST /repair` body.
pub const BATCH_ROWS: usize = 1_000;
/// Every `FRESH_EVERY`-th batch is a never-sent slice of the table; the
/// others come from its hot prefix. One explain follows each fresh batch.
pub const FRESH_EVERY: usize = 10;
/// Timed repairs in a schedule: a fixed amount of work, so the ledger —
/// and with it explain latency and memory — ends the same size however
/// fast the daemon is and however long the run.
const TIMED_REPAIRS: usize = 1_000;
/// How long a daemon may take to boot or to drain.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(120);

/// A spawned `fixd`, killed on drop unless it was shut down.
pub struct Daemon {
    child: Option<Child>,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Seconds from spawn to the `fixd listening on` line.
    pub boot_s: f64,
}

impl Daemon {
    /// Spawn `fixd --rules R --schema <header> --threads 2` and wait for it
    /// to listen.
    pub fn boot(
        bin: &Path,
        rules: &Path,
        header: &str,
        journal: Option<&Path>,
    ) -> Result<Daemon, String> {
        let started = Instant::now();
        let mut command = Command::new(bin);
        command
            .arg("--rules")
            .arg(rules)
            .args(["--schema", header, "--threads", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(path) = journal {
            command.arg("--journal").arg(path);
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stdout.read_line(&mut line);
            let announced = line.trim().strip_prefix("fixd listening on http://");
            if let Some(addr) = announced.and_then(|a| a.parse::<SocketAddr>().ok()) {
                break addr;
            }
            if announced.is_some() || !matches!(read, Ok(n) if n > 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("fixd did not announce an address: {line:?}"));
            }
        };
        Ok(Daemon {
            child: Some(child),
            _stdout: stdout,
            addr,
            boot_s: started.elapsed().as_secs_f64(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    /// `POST /shutdown`, then wait for the process to drain and exit 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let (status, _) = http(self.addr, "POST", "/shutdown", b"")?;
        let mut child = self.child.take().expect("daemon is running");
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(exit) if exit.success() && status == 202 => return Ok(()),
                Some(exit) => return Err(format!("fixd shutdown: HTTP {status}, {exit}")),
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("fixd did not drain".to_string());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One HTTP/1.1 exchange on a fresh connection (fixd closes every
/// connection after its response); returns the status and body.
pub fn http(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let fail = |e: std::io::Error| format!("{method} {target}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    stream.set_nodelay(true).map_err(fail)?;
    stream
        .set_read_timeout(Some(PROCESS_TIMEOUT))
        .map_err(fail)?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: text/csv\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(fail)?;
    stream.write_all(body).map_err(fail)?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).map_err(fail)?;
    let split = reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {target}: reply has no header end"))?;
    let status = std::str::from_utf8(&reply[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{method} {target}: bad status line"))?;
    Ok((status, reply.split_off(split + 4)))
}

/// Where one batch's rows come from in the table.
#[derive(Clone, Copy)]
pub enum Batch {
    /// `BATCH_ROWS` consecutive rows of the hot prefix from `offset`,
    /// wrapping around it.
    Hot(usize),
    /// A slice of the table past the hot prefix, sent only once.
    Fresh(usize),
}

impl Batch {
    pub fn rows(self) -> Box<dyn Iterator<Item = usize>> {
        match self {
            Batch::Hot(offset) => Box::new((0..BATCH_ROWS).map(move |j| (offset + j) % HOT_ROWS)),
            Batch::Fresh(start) => Box::new(start..start + BATCH_ROWS),
        }
    }

    pub fn body(self, reference: &Reference) -> Vec<u8> {
        render(
            &reference.header,
            self.rows().map(|r| &reference.dirty_lines[r]),
        )
    }

    pub fn expected(self, reference: &Reference) -> Vec<u8> {
        render(
            &reference.header,
            self.rows().map(|r| &reference.expected_lines[r]),
        )
    }
}

fn render<'a>(header: &str, lines: impl Iterator<Item = &'a String>) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 * BATCH_ROWS);
    out.extend_from_slice(header.as_bytes());
    out.push(b'\n');
    for line in lines {
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out
}

/// The traffic of one run: two untimed warm-up batches that cover the hot
/// prefix, then the timed batches.
pub struct Schedule {
    pub warmup: Vec<Batch>,
    pub timed: Vec<Batch>,
}

impl Schedule {
    /// [`TIMED_REPAIRS`] timed batches (fewer if the table runs out of
    /// fresh slices); hot offsets are drawn from `seed`.
    pub fn new(seed: u64, table_rows: usize) -> Schedule {
        let fresh_slices = table_rows.saturating_sub(HOT_ROWS) / BATCH_ROWS;
        let repairs = TIMED_REPAIRS.min(fresh_slices * FRESH_EVERY);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1D);
        let timed = (0..repairs)
            .map(|i| {
                if i % FRESH_EVERY == FRESH_EVERY - 1 {
                    Batch::Fresh(HOT_ROWS + (i / FRESH_EVERY) * BATCH_ROWS)
                } else {
                    Batch::Hot(rng.gen_range(0..HOT_ROWS / 100) * 100)
                }
            })
            .collect();
        Schedule {
            warmup: vec![Batch::Hot(0), Batch::Hot(BATCH_ROWS)],
            timed,
        }
    }

    /// Whether an explain follows timed batch `i`.
    pub fn explains_after(i: usize) -> bool {
        i % FRESH_EVERY == FRESH_EVERY - 1
    }
}

/// What the client saw in one run of the schedule.
#[derive(Default)]
pub struct Traffic {
    pub repair_ms: Samples,
    pub explain_ms: Samples,
    /// Rows in the timed batches.
    pub rows: usize,
    /// Wall time of the timed loop, explains included.
    pub wall_s: f64,
}

/// Send the schedule through `daemon`, one request at a time, checking
/// every response outside the timed calls. Explains ask for a cell that
/// an earlier batch repaired (the warm-up batches repair some, so there
/// is one), picked by `seed`.
pub fn drive(
    daemon: &Daemon,
    schedule: &Schedule,
    reference: &Reference,
    seed: u64,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Traffic, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE7A);
    let mut repaired_cells: Vec<(usize, usize)> = Vec::new();
    let mut next_row = 0usize;
    let mut out = Traffic::default();
    let mut send = |batch: Batch, cells: &mut Vec<(usize, usize)>, tally: &mut Tally| -> f64 {
        let body = batch.body(reference);
        let started = Instant::now();
        let reply = http(daemon.addr, "POST", "/repair?format=csv", &body);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let ok = matches!(&reply, Ok((200, got)) if *got == batch.expected(reference));
        tally.record(ok);
        for (j, row) in batch.rows().enumerate() {
            cells.extend(reference.changed[row].iter().map(|&a| (next_row + j, a)));
        }
        next_row += BATCH_ROWS;
        ms
    };
    for &batch in &schedule.warmup {
        send(batch, &mut repaired_cells, tally);
    }
    let started = Instant::now();
    for (i, &batch) in schedule.timed.iter().enumerate() {
        let ms = {
            let _span = tracer.span("fixd.repair");
            send(batch, &mut repaired_cells, tally)
        };
        out.repair_ms.push(ms);
        if Schedule::explains_after(i) {
            if repaired_cells.is_empty() {
                return Err("no batch so far repaired a cell to explain".to_string());
            }
            let (row, attr) = repaired_cells[rng.gen_range(0..repaired_cells.len())];
            let target = format!("/explain/{row}/{}", reference.attr_names[attr]);
            let _span = tracer.span("fixd.explain");
            let t = Instant::now();
            let reply = http(daemon.addr, "GET", &target, b"");
            out.explain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let ok =
                matches!(&reply, Ok((200, body)) if body.iter().any(|b| !b.is_ascii_whitespace()));
            tally.record(ok);
        }
    }
    out.rows = schedule.timed.len() * BATCH_ROWS;
    out.wall_s = started.elapsed().as_secs_f64();
    Ok(out)
}
