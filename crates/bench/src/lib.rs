//! # olsq2-bench
//!
//! Experiment harness for the OLSQ2 reproduction. One binary per figure or
//! table of the paper's evaluation (run with `--release`):
//!
//! | target | regenerates |
//! |---|---|
//! | `fig1`   | Fig. 1 — OLSQ vs OLSQ2 solving time vs grid size & gate count |
//! | `table1` | Table I — int / bit-vector / EUF encoding comparison |
//! | `table2` | Table II — `AtMost` vs CNF cardinality encodings |
//! | `table3` | Table III — depth optimization, SABRE vs OLSQ2 |
//! | `table4` | Table IV — SWAP optimization, SABRE vs SATMap vs TB-OLSQ2 |
//!
//! Every binary accepts `--budget <seconds>` (per-cell time budget,
//! default 60) and `--full` (paper-scale instances; expect hours). The
//! default "quick" instances are scaled down so a full run of every
//! binary completes on a laptop; EXPERIMENTS.md records both scales.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::time::Duration;

/// Shared CLI options for the table binaries.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Per-cell wall-clock budget.
    pub budget: Duration,
    /// Run paper-scale instances instead of the quick set.
    pub full: bool,
    /// Base RNG seed for workload generation.
    pub seed: u64,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            budget: Duration::from_secs(60),
            full: false,
            seed: 42,
        }
    }
}

impl BenchOpts {
    /// Parses `--budget <secs>`, `--full` and `--seed <n>` from
    /// `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> BenchOpts {
        let mut opts = BenchOpts::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--budget" => {
                    let v = args
                        .next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| panic!("--budget requires a number of seconds"));
                    opts.budget = Duration::from_secs(v);
                }
                "--full" => opts.full = true,
                "--seed" => {
                    let v = args
                        .next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| panic!("--seed requires a number"));
                    opts.seed = v;
                }
                "--help" | "-h" => {
                    eprintln!("usage: [--budget <secs>] [--full] [--seed <n>]");
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other:?} (try --help)"),
            }
        }
        opts
    }
}

/// A measured cell: a duration, a timeout, or an error note.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Completed in the given time.
    Time(Duration),
    /// Budget exhausted ("TO" in the paper's tables).
    Timeout,
    /// Structural failure (like the paper's "OOM" entries).
    Failed(String),
}

impl Cell {
    /// The duration if completed.
    pub fn secs(&self) -> Option<f64> {
        match self {
            Cell::Time(d) => Some(d.as_secs_f64()),
            _ => None,
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Time(d) => write!(f, "{:>9.2}s", d.as_secs_f64()),
            Cell::Timeout => write!(f, "{:>10}", "TO"),
            Cell::Failed(_) => write!(f, "{:>10}", "ERR"),
        }
    }
}

/// Formats the ratio column (`baseline / this`), "-" when unavailable.
pub fn ratio(baseline: &Cell, this: &Cell) -> String {
    match (baseline.secs(), this.secs()) {
        (Some(b), Some(t)) if t > 0.0 => format!("{:>8.2}x", b / t),
        _ => format!("{:>9}", "-"),
    }
}

/// Geometric mean of the collected ratios, "-" if none.
pub fn geomean_ratio(pairs: &[(Cell, Cell)]) -> String {
    let ratios: Vec<f64> = pairs
        .iter()
        .filter_map(|(b, t)| match (b.secs(), t.secs()) {
            (Some(b), Some(t)) if t > 0.0 && b > 0.0 => Some(b / t),
            _ => None,
        })
        .collect();
    if ratios.is_empty() {
        return "-".to_string();
    }
    let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
    format!("{:.2}x", (log_sum / ratios.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_formatting() {
        assert_eq!(format!("{}", Cell::Timeout).trim(), "TO");
        assert!(format!("{}", Cell::Time(Duration::from_secs(2))).contains("2.00s"));
        assert_eq!(format!("{}", Cell::Failed("x".into())).trim(), "ERR");
    }

    #[test]
    fn ratio_handles_missing() {
        let a = Cell::Time(Duration::from_secs(10));
        let b = Cell::Time(Duration::from_secs(2));
        assert!(ratio(&a, &b).contains("5.00x"));
        assert!(ratio(&Cell::Timeout, &b).contains('-'));
    }

    #[test]
    fn geomean_of_two() {
        let pairs = vec![
            (
                Cell::Time(Duration::from_secs(8)),
                Cell::Time(Duration::from_secs(2)),
            ),
            (
                Cell::Time(Duration::from_secs(9)),
                Cell::Time(Duration::from_secs(1)),
            ),
        ];
        assert_eq!(geomean_ratio(&pairs), "6.00x");
        assert_eq!(geomean_ratio(&[]), "-");
    }
}
