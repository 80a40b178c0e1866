//! E1 — Fig. 1a: the Demand Pinning table.
//!
//! Paper values (threshold 50): DP routes 1⇝3 on 1-2-3 at 50, squeezing
//! 1⇝2 and 2⇝3 to 50 each (total 150); OPT reroutes 1⇝3 over 1-4-5-3 and
//! serves everything (total 250).

use xplain_domains::te::{DemandPinning, TeProblem};

/// One row of the Fig. 1a table.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    pub demand: String,
    pub volume: f64,
    pub dp_path: String,
    pub dp_value: f64,
    pub opt_path: String,
    pub opt_value: f64,
}

/// The reproduced table.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    pub rows: Vec<Fig1Row>,
    pub dp_total: f64,
    pub opt_total: f64,
    /// [`DemandPinning::gap`] at the Fig. 1a demands.
    pub gap: f64,
}

/// Reproduce Fig. 1a.
pub fn run() -> Fig1Result {
    let problem = TeProblem::fig1a();
    let volumes = [50.0, 100.0, 100.0];
    let pinning = DemandPinning::new(50.0);
    let dp = pinning
        .solve(&problem, &volumes)
        .expect("fig1a is feasible");
    let opt = problem.optimal(&volumes).expect("fig1a is feasible");

    let mut rows = Vec::new();
    for k in 0..problem.num_demands() {
        // Dominant path per algorithm (the table reports one path each).
        let pick = |flows: &[f64]| -> (String, f64) {
            let (best, value) = flows
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(p, v)| (p, *v))
                .unwrap_or((0, 0.0));
            (problem.paths[k][best].name(&problem.topology), value)
        };
        let (dp_path, dp_value) = pick(&dp.flows[k]);
        let (opt_path, opt_value) = pick(&opt.flows[k]);
        rows.push(Fig1Row {
            demand: problem.demand_name(k),
            volume: volumes[k],
            dp_path,
            dp_value,
            opt_path,
            opt_value,
        });
    }

    Fig1Result {
        rows,
        dp_total: dp.total,
        opt_total: opt.total,
        gap: pinning.gap(&problem, &volumes).expect("fig1a is feasible"),
    }
}

/// Render in the paper's layout.
pub fn render(r: &Fig1Result) -> String {
    let mut out = String::new();
    out.push_str("E1 / Fig. 1a — Demand Pinning vs OPT (threshold = 50)\n");
    out.push_str(&format!(
        "  {:<8} {:>7} | {:<10} {:>7} | {:<10} {:>7}\n",
        "demand", "volume", "DP path", "value", "OPT path", "value"
    ));
    for row in &r.rows {
        out.push_str(&format!(
            "  {:<8} {:>7.0} | {:<10} {:>7.0} | {:<10} {:>7.0}\n",
            row.demand, row.volume, row.dp_path, row.dp_value, row.opt_path, row.opt_value
        ));
    }
    out.push_str(&format!(
        "  Total DP = {:.0} (paper: 150)   Total OPT = {:.0} (paper: 250)   gap = {:.0} (paper: 100)\n",
        r.dp_total, r.opt_total, r.gap
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_exactly() {
        let r = run();
        assert_eq!(r.dp_total.round() as i64, 150);
        assert_eq!(r.opt_total.round() as i64, 250);
        assert_eq!(r.gap.round() as i64, 100);
        // Row-level checks straight from the table.
        let d13 = &r.rows[0];
        assert_eq!(d13.dp_path, "1-2-3");
        assert_eq!(d13.dp_value.round() as i64, 50);
        assert_eq!(d13.opt_path, "1-4-5-3");
        assert_eq!(d13.opt_value.round() as i64, 50);
        let d12 = &r.rows[1];
        assert_eq!(d12.dp_value.round() as i64, 50);
        assert_eq!(d12.opt_value.round() as i64, 100);
    }

    #[test]
    fn gap_is_the_demand_pinning_gap() {
        // The gap column is `DemandPinning::gap` (OPT's stage-1 total minus
        // DP's), not the difference of the two allocations' vertex sums.
        let gap = DemandPinning::new(50.0)
            .gap(&TeProblem::fig1a(), &[50.0, 100.0, 100.0])
            .unwrap();
        let r = run();
        assert_eq!(r.gap.to_bits(), gap.to_bits(), "{} vs {gap}", r.gap);
    }

    #[test]
    fn render_contains_table() {
        let text = render(&run());
        assert!(text.contains("1-4-5-3"));
        assert!(text.contains("Total DP = 150"));
        assert!(text.contains("Total OPT = 250"));
    }
}
