//! The `cli-*` workloads: `fixctl repair` from file to file with the
//! default engine and flags, one process per repair.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::proc::run_timed;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::Tally;

/// Header-only runs after each timed repair; together they make the
/// `setup_s` median, sampled over the same stretch as the repairs.
const SETUP_PER_REPAIR: usize = 8;
/// Fewest timed repairs in a run, however long each one takes.
const MIN_REPAIRS: usize = 5;

/// What a run does besides the timed repairs.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    /// The measured run: after each repair, [`SETUP_PER_REPAIR`] runs of
    /// the same command on this header-only CSV — process start, rule
    /// parse, consistency check and compile, with no rows.
    Measured { header: &'a Path },
    /// The traced run: every repair writes `--metrics` and runs under a
    /// `cli.repair` span.
    Traced(&'a Tracer),
}

pub struct Fixctl<'a> {
    pub bin: &'a Path,
    pub rules: &'a Path,
    pub work: &'a Path,
}

/// One timed `fixctl repair` run per sample.
#[derive(Default)]
pub struct Repairs {
    pub wall_s: Samples,
    /// Header-only run wall times (measured run only).
    pub setup_s: Samples,
    /// Stage sums in seconds from each run's `--metrics` file (traced run
    /// only), keyed by stage name.
    pub stages: Vec<(String, Samples)>,
    /// Per run, 1 − (sum of its stages) / (its wall time) (traced run only).
    pub residual: Samples,
}

impl Fixctl<'_> {
    fn repair_args(&self, data: &Path, out: &Path, metrics: Option<&Path>) -> Vec<PathBuf> {
        let mut args: Vec<PathBuf> = ["repair", "--rules"].iter().map(PathBuf::from).collect();
        args.push(self.rules.to_path_buf());
        args.push("--data".into());
        args.push(data.to_path_buf());
        args.push("--out".into());
        args.push(out.to_path_buf());
        if let Some(m) = metrics {
            args.push("--metrics".into());
            args.push(m.to_path_buf());
        }
        args
    }

    /// Run once and check the output file against `expected`.
    fn repair_once(
        &self,
        data: &Path,
        expected: &[u8],
        metrics: Option<&Path>,
        tally: &mut Tally,
    ) -> Result<Duration, String> {
        let out = self.work.join("fixctl-out.csv");
        let _ = std::fs::remove_file(&out);
        let (wall, ok) = run_timed(self.bin, self.repair_args(data, &out, metrics))?;
        let same = ok && std::fs::read(&out).is_ok_and(|bytes| bytes == expected);
        tally.record(same);
        Ok(wall)
    }

    /// Repair `data` again and again for `seconds` (at least
    /// [`MIN_REPAIRS`] times), after one untimed warm-up run.
    pub fn repairs(
        &self,
        data: &Path,
        expected: &[u8],
        seconds: f64,
        mode: Mode,
        tally: &mut Tally,
    ) -> Result<Repairs, String> {
        let metrics_path = self.work.join("fixctl-metrics.json");
        let (metrics, header) = match mode {
            Mode::Measured { header } => {
                let bytes =
                    std::fs::read(header).map_err(|e| format!("{}: {e}", header.display()))?;
                (None, Some((header, bytes)))
            }
            Mode::Traced(_) => (Some(metrics_path.as_path()), None),
        };
        self.repair_once(data, expected, metrics, tally)?;
        let mut out = Repairs::default();
        let started = Instant::now();
        while out.wall_s.len() < MIN_REPAIRS || started.elapsed().as_secs_f64() < seconds {
            let wall = match mode {
                Mode::Traced(tracer) => {
                    let _span = tracer.span("cli.repair");
                    self.repair_once(data, expected, metrics, tally)?
                }
                Mode::Measured { .. } => self.repair_once(data, expected, metrics, tally)?,
            };
            out.wall_s.push(wall.as_secs_f64());
            if metrics.is_some() {
                let stage_sum_s = record_stages(&metrics_path, &mut out.stages)?;
                out.residual.push(1.0 - stage_sum_s / wall.as_secs_f64());
            }
            if let Some((header, bytes)) = &header {
                for _ in 0..SETUP_PER_REPAIR {
                    let setup = self.repair_once(header, bytes, None, tally)?;
                    out.setup_s.push(setup.as_secs_f64());
                }
            }
        }
        Ok(out)
    }
}
/// Fold one `--metrics` file's `stage.<name>_ns` histogram sums into
/// per-stage samples, in seconds; returns their total.
fn record_stages(path: &Path, stages: &mut Vec<(String, Samples)>) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let histograms = json
        .get("histograms")
        .and_then(|h| h.as_obj())
        .ok_or_else(|| format!("{}: no histograms", path.display()))?;
    let mut total = 0.0;
    for (key, hist) in histograms {
        let Some(stage) = key
            .strip_prefix("stage.")
            .and_then(|s| s.strip_suffix("_ns"))
        else {
            continue;
        };
        let sum_s = hist.get("sum").and_then(|v| v.as_f64()).unwrap_or(0.0) * 1e-9;
        total += sum_s;
        match stages.iter_mut().find(|(name, _)| name == stage) {
            Some((_, samples)) => samples.push(sum_s),
            None => {
                let mut samples = Samples::default();
                samples.push(sum_s);
                stages.push((stage.to_string(), samples));
            }
        }
    }
    Ok(total)
}
