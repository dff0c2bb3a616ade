//! Exp-3 (Fig 13 + runtime table): efficiency of repairing.
//!
//! * Fig 13(a)/(b) — repair time vs |Σ| for `cRepair` and `lRepair` (the
//!   latter including its one-off index build, which is the overhead that
//!   lets `cRepair` win at very small |Σ| in Fig 13(b));
//! * the §7.2 runtime table — `lRepair` vs `Heu` vs `Csm` end-to-end.

use baselines::{csm_repair, heu_repair};
use fixrules::repair::{
    crepair_table, lrepair_table, par_lrepair_table, LRepairIndex, NoopObserver,
};

use crate::config::ExpConfig;
use crate::experiments::{prepare, rule_steps, Which};
use crate::timing::{stage_ms, time_ms};

/// One Fig 13 point.
#[derive(Debug, Clone)]
pub struct Fig13Point {
    /// Rule count (x-axis).
    pub n_rules: usize,
    /// `cRepair` or `lRepair`.
    pub algo: &'static str,
    /// Wall-clock milliseconds for the full table (y-axis).
    pub millis: f64,
}

/// Fig 13: repair time as |Σ| grows.
pub fn run_fig13(which: Which, cfg: &ExpConfig) -> Vec<Fig13Point> {
    let p = prepare(which, cfg, 0.5);
    let mut out = Vec::new();
    for &k in &rule_steps(p.rules.len()) {
        let mut subset = p.rules.clone();
        subset.truncate(k);
        let mut table_c = p.dirty.clone();
        let (_, ms_c) = stage_ms("repair", || {
            crepair_table(&subset, &mut table_c, &NoopObserver)
        });
        out.push(Fig13Point {
            n_rules: k,
            algo: "cRepair",
            millis: ms_c,
        });
        let mut table_l = p.dirty.clone();
        // Index construction counts: it is part of using lRepair. Timing
        // the two stages separately keeps the `stage.*` histogram names
        // aligned with `fixctl repair --metrics`.
        let (index, ms_build) = stage_ms("index_build", || LRepairIndex::build(&subset));
        let (_, ms_run) = stage_ms("repair", || {
            lrepair_table(&subset, &index, &mut table_l, &NoopObserver)
        });
        out.push(Fig13Point {
            n_rules: k,
            algo: "lRepair",
            millis: ms_build + ms_run,
        });
        debug_assert_eq!(table_c.diff_cells(&table_l).unwrap(), 0);
    }
    out
}

/// One row of the §7.2 runtime table.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Algorithm name.
    pub algo: &'static str,
    /// Wall-clock milliseconds.
    pub millis: f64,
}

/// The §7.2 runtime comparison: lRepair vs Heu vs Csm (plus the parallel
/// lRepair extension for reference).
pub fn run_runtime_table(which: Which, cfg: &ExpConfig) -> Vec<RuntimeRow> {
    let mut p = prepare(which, cfg, 0.5);
    let name = which.name();
    let mut out = Vec::new();

    let mut t = p.dirty.clone();
    let (index, ms_build) = stage_ms("index_build", || LRepairIndex::build(&p.rules));
    let (_, ms_run) = stage_ms("repair", || {
        lrepair_table(&p.rules, &index, &mut t, &NoopObserver)
    });
    out.push(RuntimeRow {
        dataset: name,
        algo: "lRepair",
        millis: ms_build + ms_run,
    });

    let mut t = p.dirty.clone();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let (_, ms) = time_ms(|| {
        let index = LRepairIndex::build(&p.rules);
        par_lrepair_table(&p.rules, &index, &mut t, threads, &NoopObserver)
    });
    out.push(RuntimeRow {
        dataset: name,
        algo: "lRepair(par)",
        millis: ms,
    });

    let mut t = p.dirty.clone();
    let symbols = &mut p.dataset.symbols;
    let (_, ms) = time_ms(|| heu_repair(&mut t, &p.dataset.fds, 5, symbols));
    out.push(RuntimeRow {
        dataset: name,
        algo: "Heu",
        millis: ms,
    });

    let mut t = p.dirty.clone();
    let (_, ms) = time_ms(|| csm_repair(&mut t, &p.dataset.fds, 10, cfg.seed));
    out.push(RuntimeRow {
        dataset: name,
        algo: "Csm",
        millis: ms,
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            uis_rows: 700,
            uis_rules: 30,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn fig13_emits_both_algorithms_per_step() {
        let points = run_fig13(Which::Uis, &tiny_cfg());
        let c = points.iter().filter(|p| p.algo == "cRepair").count();
        let l = points.iter().filter(|p| p.algo == "lRepair").count();
        assert_eq!(c, l);
        assert!(c >= 5);
    }

    #[test]
    fn runtime_table_covers_all_algorithms() {
        let rows = run_runtime_table(Which::Uis, &tiny_cfg());
        let algos: Vec<&str> = rows.iter().map(|r| r.algo).collect();
        assert!(algos.contains(&"lRepair"));
        assert!(algos.contains(&"lRepair(par)"));
        assert!(algos.contains(&"Heu"));
        assert!(algos.contains(&"Csm"));
        assert!(rows.iter().all(|r| r.millis >= 0.0));
    }
}
