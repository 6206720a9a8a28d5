//! ε-grid resolution ablation (§4.3.3: "by keeping the value of ε to be
//! small, we can reduce the discretization error"): how coarse can the
//! `CALCULATEWAIT` scan be before end-to-end quality degrades, and what
//! does each step of resolution cost?
//!
//! Each swept resolution is the reference a prepared context coarsens:
//! the context scans the coarsest grid nested in it whose loss bound
//! allows (`cedar_core::wait::coarsest_stride`), and the table shows the
//! step count it chose. Quality is measured end-to-end on the FacebookMR
//! workload; the cost column is the latency of one scan on the chosen
//! grid, measured inline (what the benchmark's `core.wait_scan_us`
//! ledger row times on a fixed 300-step grid).

use crate::harness::{fq, par_map, Opts, Table};
use cedar_core::policy::WaitPolicyKind;
use cedar_core::PreparedContexts;
use cedar_distrib::LogNormal;
use cedar_sim::{mean_quality, run_workload, SimConfig};
use cedar_workloads::production::facebook_mr;

/// Deadline used by the ablation (seconds).
pub const DEADLINE: f64 = 1000.0;

/// Scan resolutions swept (steps over the deadline).
pub const STEPS: [usize; 5] = [25, 50, 100, 400, 1600];

/// One resolution's result.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Reference ε-scan steps: the finest grid allowed.
    pub steps: usize,
    /// Steps of the grid the bottom aggregators' context chose.
    pub chosen: usize,
    /// Mean end-to-end quality under Cedar.
    pub quality: f64,
    /// Measured latency of one scan on the chosen grid (microseconds).
    pub scan_us: f64,
}

/// Runs the ablation.
pub fn measure(opts: &Opts) -> Vec<Row> {
    let w = facebook_mr(50, 50);
    let trials = opts.trials_capped(6);
    par_map(STEPS.to_vec(), |&steps| {
        let cfg = SimConfig::new(w.priors.clone(), DEADLINE)
            .with_seed(opts.seed)
            .with_scan_steps(steps);
        let quality = mean_quality(&run_workload(&w, &cfg, WaitPolicyKind::Cedar, trials));
        // The contexts `run_workload` prepares, and the latency of one
        // per-arrival scan of a typical query stage on the bottom one.
        let prepared = PreparedContexts::new(
            &w.priors,
            DEADLINE,
            WaitPolicyKind::Cedar,
            cfg.model,
            cfg.scan_steps,
            &cfg.profile,
        );
        let ctx = &prepared.contexts()[0];
        let x1 = LogNormal::new(6.5, 0.84).expect("constants");
        let reps = 50;
        let start = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(ctx.scan(&x1));
        }
        let scan_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        Row {
            steps,
            chosen: ctx.scan_steps,
            quality,
            scan_us,
        }
    })
}

/// Runs the experiment.
pub fn run(opts: &Opts) -> Table {
    let rows = measure(opts);
    let mut t = Table::new(
        "Ablation: CALCULATEWAIT grid resolution vs end-to-end quality and scan cost",
        &[
            "scan steps",
            "steps chosen",
            "cedar quality",
            "one scan (us)",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.steps.to_string(),
            r.chosen.to_string(),
            fq(r.quality),
            format!("{:.1}", r.scan_us),
        ]);
    }
    t.note("each resolution is the finest grid allowed: a context scans the coarsest grid of at least 50 steps nested in it whose loss bound on its prior is within 1e-3 of expected quality, else the resolution itself");
    t.note("paper (Sec 5.2): the algorithm completes 'within tens of milliseconds'; even the finest grid here is orders of magnitude inside that budget");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_saturates_with_resolution() {
        let rows = measure(&Opts {
            trials: 10,
            seed: 51,
            quick: true,
        });
        let coarse = rows[0].quality;
        let fine = rows.last().unwrap().quality;
        // Fine grids must not be materially worse, and the curve should
        // flatten (converged discretization).
        assert!(fine >= coarse - 0.03, "fine {fine} vs coarse {coarse}");
        let mid = rows[3].quality; // 400 steps
        assert!((fine - mid).abs() < 0.02, "not converged: {mid} -> {fine}");
        // Paper budget check: a 1600-step scan is well under 10 ms.
        assert!(rows.last().unwrap().scan_us < 10_000.0);
    }
}
