//! `fixd` — run the repair daemon from the command line.
//!
//! ```text
//! fixd --rules rules.frl [--addr 127.0.0.1:0] [--threads 4] ...
//! ```
//!
//! `fixd --help` lists every flag ([`fixd::cli`]; `fixctl serve` takes the
//! same ones). The process serves until `POST /shutdown`, then drains
//! in-flight requests, flushes the journal, and exits 0.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match fixd::cli::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("fixd: {message}");
            ExitCode::from(2)
        }
    }
}
