//! E6 — §5.1's compiled-DSL speedup.
//!
//! Paper: "our DSL allows us to find redundant constraints and variables …
//! compared to the original MetaOpt implementation, the compiled DSL
//! analyzes our DP example 4.3× faster. MetaOpt does not re-write FF, and
//! we do not provide any run-time gains in that case."
//!
//! Reproduction: compile the Fig. 4a DP network and the Fig. 4b FF network
//! both **raw** (one variable per edge and one constraint block per node —
//! the hand-written shape) and **eliminated**, then time repeated
//! pin-and-solve analyses. The DP graph is rich in copy chains the
//! eliminator can fold, the FF graph is dominated by pick binaries it
//! cannot touch — so DP should speed up markedly and FF should not, which
//! is exactly the paper's shape.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;
use xplain_domains::te::{TeDsl, TeProblem};
use xplain_domains::vbp::VbpDsl;
use xplain_flownet::{CompileOptions, CompileStats};

/// Timing + size numbers for one (network, mode) pair.
#[derive(Debug, Clone)]
pub struct ModeReport {
    pub stats: CompileStats,
    pub compile_ms: f64,
    pub solve_ms: f64,
}

/// E6 result.
#[derive(Debug, Clone)]
pub struct SpeedupResult {
    pub dp_raw: ModeReport,
    pub dp_eliminated: ModeReport,
    pub ff_raw: ModeReport,
    pub ff_eliminated: ModeReport,
    pub trials: usize,
}

impl SpeedupResult {
    /// End-to-end (compile + solve) speedup of elimination on DP.
    pub fn dp_speedup(&self) -> f64 {
        total(&self.dp_raw) / total(&self.dp_eliminated).max(1e-9)
    }

    /// Same for FF (expected ≈ 1).
    pub fn ff_speedup(&self) -> f64 {
        total(&self.ff_raw) / total(&self.ff_eliminated).max(1e-9)
    }
}

fn total(m: &ModeReport) -> f64 {
    m.compile_ms + m.solve_ms
}

fn bench_te(problem: &TeProblem, eliminate: bool, trials: usize, seed: u64) -> ModeReport {
    let dsl = TeDsl::build(problem);
    let opts = CompileOptions {
        eliminate,
        ..Default::default()
    };

    let t0 = Instant::now();
    let mut compiled = dsl.net.compile(&opts).expect("compiles");
    for _ in 1..trials {
        compiled = dsl.net.compile(&opts).expect("compiles");
    }
    let compile_ms = t0.elapsed().as_secs_f64() * 1000.0;

    let mut rng = StdRng::seed_from_u64(seed);
    let t1 = Instant::now();
    for _ in 0..trials {
        let mut pins = BTreeMap::new();
        for (k, &node) in dsl.demand_nodes.iter().enumerate() {
            let v: f64 = rng.gen_range(0.0..problem.demand_cap);
            let _ = k;
            pins.insert(node, v);
        }
        let model = compiled.with_source_values(&pins).expect("pinnable");
        let _ = model.solve().expect("solvable");
    }
    let solve_ms = t1.elapsed().as_secs_f64() * 1000.0;

    ModeReport {
        stats: compiled.stats.clone(),
        compile_ms,
        solve_ms,
    }
}

fn bench_ff(
    n_balls: usize,
    n_bins: usize,
    eliminate: bool,
    trials: usize,
    seed: u64,
) -> ModeReport {
    let dsl = VbpDsl::build(n_balls, n_bins, 1.0);
    let opts = CompileOptions {
        eliminate,
        ..Default::default()
    };

    let t0 = Instant::now();
    let mut compiled = dsl.net.compile(&opts).expect("compiles");
    for _ in 1..trials {
        compiled = dsl.net.compile(&opts).expect("compiles");
    }
    let compile_ms = t0.elapsed().as_secs_f64() * 1000.0;

    let mut rng = StdRng::seed_from_u64(seed);
    let t1 = Instant::now();
    for _ in 0..trials {
        let mut pins = BTreeMap::new();
        for &node in &dsl.ball_nodes {
            pins.insert(node, rng.gen_range(0.05..0.45));
        }
        let model = compiled.with_source_values(&pins).expect("pinnable");
        let _ = model.solve().expect("solvable");
    }
    let solve_ms = t1.elapsed().as_secs_f64() * 1000.0;

    ModeReport {
        stats: compiled.stats.clone(),
        compile_ms,
        solve_ms,
    }
}

/// Run E6 with `trials` pin-and-solve analyses per mode.
pub fn run(trials: usize) -> SpeedupResult {
    // Fig. 4a's eight-demand instance gives the eliminator real work.
    let problem = TeProblem::fig4a();
    SpeedupResult {
        dp_raw: bench_te(&problem, false, trials, 11),
        dp_eliminated: bench_te(&problem, true, trials, 11),
        ff_raw: bench_ff(4, 3, false, trials, 12),
        ff_eliminated: bench_ff(4, 3, true, trials, 12),
        trials,
    }
}

pub fn render(r: &SpeedupResult) -> String {
    let mut out = String::new();
    out.push_str("E6 / §5.1 — compiled-DSL speedup from redundancy elimination\n");
    out.push_str(&format!(
        "  ({} pin-and-solve trials per mode)\n\n",
        r.trials
    ));
    let row = |name: &str, m: &ModeReport| {
        format!(
            "  {:<16} vars = {:>4}  constraints = {:>4}  compile = {:>8.2} ms  solve = {:>8.2} ms\n",
            name, m.stats.vars, m.stats.constraints, m.compile_ms, m.solve_ms
        )
    };
    out.push_str(&row("DP raw", &r.dp_raw));
    out.push_str(&row("DP eliminated", &r.dp_eliminated));
    out.push_str(&format!(
        "  DP speedup = {:.2}x  (paper: 4.3x; >1 expected)\n\n",
        r.dp_speedup()
    ));
    out.push_str(&row("FF raw", &r.ff_raw));
    out.push_str(&row("FF eliminated", &r.ff_eliminated));
    out.push_str(&format!(
        "  FF speedup = {:.2}x  (paper: ~1x — MetaOpt does not re-write FF)\n",
        r.ff_speedup()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dp_elimination_shrinks_model() {
        let r = run(3);
        assert!(
            r.dp_eliminated.stats.vars < r.dp_raw.stats.vars,
            "{} !< {}",
            r.dp_eliminated.stats.vars,
            r.dp_raw.stats.vars
        );
        assert!(r.dp_eliminated.stats.constraints < r.dp_raw.stats.constraints);
        assert!(r.dp_eliminated.stats.merged_edges > 0);
    }

    #[test]
    fn ff_elimination_changes_little() {
        let r = run(3);
        // Pick binaries dominate: variable count barely moves.
        let shrink = r.ff_raw.stats.vars - r.ff_eliminated.stats.vars;
        assert!(
            shrink * 5 <= r.ff_raw.stats.vars,
            "FF shrank too much: {} -> {}",
            r.ff_raw.stats.vars,
            r.ff_eliminated.stats.vars
        );
    }
}
