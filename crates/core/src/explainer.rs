//! The explainer (§5.3): why does the heuristic underperform in a
//! subspace?
//!
//! "We run samples from within each contiguous subspace through the DSL
//! and score edges based on if: (1) both the benchmark and the heuristic
//! send flow on that edge (score = 0); (2) only the benchmark sends flow
//! (score = 1); or (3) only the heuristic sends flow (score = -1). Such a
//! 'heatmap' of the differences … shows how inputs in the subspace
//! interfere with the heuristic."
//!
//! Sampling is split into a fixed number of seeded streams, fanned out
//! over `std::thread::scope` workers — evaluating a sample means running
//! both the heuristic and an exact benchmark, which is pure CPU work. The
//! stream count comes from [`ExplainerParams`], never from the host, so a
//! heat-map is a function of its inputs alone.

use crate::subspace::Subspace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use xplain_flownet::FlowNet;

/// Domain adapter: maps a concrete input to heuristic/benchmark edge
/// flows over a shared DSL graph.
///
/// Concrete mappers (Demand Pinning, first-fit, LPT, …) live in
/// `xplain-runtime`'s domain adapters — this crate only defines the
/// interface, keeping the explainer domain-agnostic. `Send + Sync`
/// because mappers are shared across sample threads here and built by
/// `Domain` factories on runtime worker threads.
pub trait DslMapper: Send + Sync {
    fn net(&self) -> &FlowNet;

    /// Heuristic edge flows at `x` (`None` when the input cannot be
    /// mapped, e.g. the packing needs more bins than the graph has).
    fn heuristic_flows(&self, x: &[f64]) -> Option<Vec<f64>>;

    /// Benchmark (optimal) edge flows at `x`.
    fn benchmark_flows(&self, x: &[f64]) -> Option<Vec<f64>>;
}

/// References forward wholesale, so a borrowed `&dyn DslMapper` can be
/// boxed into an owning context (the analysis session holds
/// `Box<dyn DslMapper + 'a>`, which a plain reference satisfies through
/// this impl).
impl<T: DslMapper + ?Sized> DslMapper for &T {
    fn net(&self) -> &FlowNet {
        (**self).net()
    }
    fn heuristic_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
        (**self).heuristic_flows(x)
    }
    fn benchmark_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
        (**self).benchmark_flows(x)
    }
}

/// Per-edge aggregate of the heat-map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeScore {
    pub edge_index: usize,
    pub label: String,
    /// Mean of per-sample scores in `[-1, 1]`: negative = heuristic-only
    /// (red), positive = benchmark-only (blue).
    pub score: f64,
    /// Fraction of samples where the heuristic sends flow on this edge.
    pub heuristic_frac: f64,
    /// Fraction of samples where the benchmark sends flow on this edge.
    pub benchmark_frac: f64,
    /// Mean flow the heuristic routes on this edge.
    pub heuristic_mean_flow: f64,
    /// Mean flow the benchmark routes on this edge.
    pub benchmark_mean_flow: f64,
    /// Mean of `benchmark_flow - heuristic_flow` — §5.3's open question
    /// ("the heuristic and benchmark also differ in how much flow they
    /// route on each edge") answered with the obvious statistic.
    pub mean_flow_delta: f64,
}

/// The heat-map for one subspace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Explanation {
    pub edges: Vec<EdgeScore>,
    pub samples_used: usize,
}

impl Explanation {
    /// Scores aligned with the DSL's edge ids (for DOT export).
    pub fn score_vector(&self) -> Vec<f64> {
        self.edges.iter().map(|e| e.score).collect()
    }

    /// Edges sorted by how strongly the two algorithms disagree.
    pub fn strongest_disagreements(&self, top: usize) -> Vec<&EdgeScore> {
        let mut refs: Vec<&EdgeScore> = self.edges.iter().collect();
        refs.sort_by(|a, b| {
            b.score
                .abs()
                .partial_cmp(&a.score.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        refs.truncate(top);
        refs
    }
}

/// Explainer configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplainerParams {
    /// Samples per subspace (the paper's figures use 3000).
    pub samples: usize,
    /// Flow below this is "not using the edge".
    pub flow_tol: f64,
    /// Sample streams (0 = [`DEFAULT_STREAMS`]). Stream `s` draws
    /// `samples / threads` (rounded up) points from its own RNG, seeded
    /// from the seed and `s`, into its own accumulator, and accumulators
    /// merge in stream order. The result depends on this value, never on
    /// the host: OS threads — at most `min(streams, available cores)` —
    /// only divide the streams among them.
    pub threads: usize,
}

/// The stream count when [`ExplainerParams::threads`] is 0.
pub const DEFAULT_STREAMS: usize = 2;

impl Default for ExplainerParams {
    fn default() -> Self {
        ExplainerParams {
            samples: 3000,
            flow_tol: 1e-6,
            threads: 0,
        }
    }
}

/// Produce the heat-map for a subspace.
pub fn explain(
    mapper: &dyn DslMapper,
    subspace: &Subspace,
    params: &ExplainerParams,
    seed: u64,
) -> Explanation {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    explain_on(mapper, subspace, params, seed, cores)
}

/// [`explain`] on at most `os_threads` OS threads.
fn explain_on(
    mapper: &dyn DslMapper,
    subspace: &Subspace,
    params: &ExplainerParams,
    seed: u64,
    os_threads: usize,
) -> Explanation {
    let n_edges = mapper.net().num_edges();
    let streams = if params.threads == 0 {
        DEFAULT_STREAMS
    } else {
        params.threads
    };
    let per_stream = params.samples.div_ceil(streams);

    struct Acc {
        score_sum: Vec<f64>,
        h_used: Vec<usize>,
        b_used: Vec<usize>,
        h_flow: Vec<f64>,
        b_flow: Vec<f64>,
        samples: usize,
    }

    let accumulate = |stream: usize| -> Acc {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(stream as u64 * 0x9E3779B9));
        let mut acc = Acc {
            score_sum: vec![0.0; n_edges],
            h_used: vec![0; n_edges],
            b_used: vec![0; n_edges],
            h_flow: vec![0.0; n_edges],
            b_flow: vec![0.0; n_edges],
            samples: 0,
        };
        let lo = &subspace.rough_lo;
        let hi = &subspace.rough_hi;
        let dims = lo.len();
        let mut produced = 0usize;
        let mut attempts = 0usize;
        let mut x: Vec<f64> = Vec::with_capacity(dims);
        while produced < per_stream && attempts < per_stream * 40 {
            attempts += 1;
            x.clear();
            x.extend((0..dims).map(|d| rng.gen_range(lo[d]..=hi[d])));
            if !subspace.contains(&x) {
                continue;
            }
            let (Some(hf), Some(bf)) = (mapper.heuristic_flows(&x), mapper.benchmark_flows(&x))
            else {
                continue;
            };
            for e in 0..n_edges {
                let h = hf[e] > params.flow_tol;
                let b = bf[e] > params.flow_tol;
                if h {
                    acc.h_used[e] += 1;
                }
                if b {
                    acc.b_used[e] += 1;
                }
                acc.h_flow[e] += hf[e];
                acc.b_flow[e] += bf[e];
                acc.score_sum[e] += match (h, b) {
                    (true, false) => -1.0,
                    (false, true) => 1.0,
                    _ => 0.0,
                };
            }
            acc.samples += 1;
            produced += 1;
        }
        acc
    };

    // Each OS thread takes a contiguous run of streams; joining in order
    // keeps the accumulators in stream order.
    let chunk = streams.div_ceil(os_threads.max(1));
    let accs: Vec<Acc> = if chunk >= streams {
        (0..streams).map(accumulate).collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..streams)
                .step_by(chunk)
                .map(|first| {
                    let last = (first + chunk).min(streams);
                    scope.spawn(move || (first..last).map(accumulate).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("explainer worker panicked"))
                .collect()
        })
    };

    let mut score_sum = vec![0.0; n_edges];
    let mut h_used = vec![0usize; n_edges];
    let mut b_used = vec![0usize; n_edges];
    let mut h_flow = vec![0.0; n_edges];
    let mut b_flow = vec![0.0; n_edges];
    let mut total = 0usize;
    for acc in accs {
        for e in 0..n_edges {
            score_sum[e] += acc.score_sum[e];
            h_used[e] += acc.h_used[e];
            b_used[e] += acc.b_used[e];
            h_flow[e] += acc.h_flow[e];
            b_flow[e] += acc.b_flow[e];
        }
        total += acc.samples;
    }

    let denom = total.max(1) as f64;
    let edges = (0..n_edges)
        .map(|e| EdgeScore {
            edge_index: e,
            label: mapper.net().edges()[e].label.clone(),
            score: score_sum[e] / denom,
            heuristic_frac: h_used[e] as f64 / denom,
            benchmark_frac: b_used[e] as f64 / denom,
            heuristic_mean_flow: h_flow[e] / denom,
            benchmark_mean_flow: b_flow[e] / denom,
            mean_flow_delta: (b_flow[e] - h_flow[e]) / denom,
        })
        .collect();

    Explanation {
        edges,
        samples_used: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplain_flownet::{SourceInput, SourceKind};

    /// Synthetic mapper over a 2-edge net: the heuristic always routes the
    /// input on `left`; the benchmark routes on `right` whenever
    /// `x[0] > 0.5`. Inside a subspace above 0.5 the heat-map must show
    /// `left` as heuristic-only (red) and `right` as benchmark-only (blue).
    struct TestMapper {
        net: FlowNet,
    }

    impl TestMapper {
        fn new() -> Self {
            let mut net = FlowNet::new("toy");
            let src = net.source(
                "S",
                "SOURCES",
                SourceKind::Pick,
                SourceInput::Var { lo: 0.0, hi: 1.0 },
            );
            let a = net.sink("A", "SINKS", 1.0);
            let b = net.sink("B", "SINKS", 1.0);
            net.edge(src, a, "left");
            net.edge(src, b, "right");
            TestMapper { net }
        }
    }

    impl DslMapper for TestMapper {
        fn net(&self) -> &FlowNet {
            &self.net
        }
        fn heuristic_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
            Some(vec![x[0], 0.0])
        }
        fn benchmark_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
            if x[0] > 0.5 {
                Some(vec![0.0, x[0]])
            } else {
                Some(vec![x[0], 0.0])
            }
        }
    }

    /// A mapper whose flows are never mappable — samples are skipped, not
    /// fatal.
    struct Unmappable {
        net: FlowNet,
    }

    impl DslMapper for Unmappable {
        fn net(&self) -> &FlowNet {
            &self.net
        }
        fn heuristic_flows(&self, _x: &[f64]) -> Option<Vec<f64>> {
            None
        }
        fn benchmark_flows(&self, _x: &[f64]) -> Option<Vec<f64>> {
            None
        }
    }

    #[test]
    fn heatmap_separates_heuristic_and_benchmark_edges() {
        let mapper = TestMapper::new();
        let sub = Subspace::from_rough_box(vec![0.6], vec![0.9], vec![0.8], 1.0);
        let params = ExplainerParams {
            samples: 200,
            threads: 2,
            ..Default::default()
        };
        let ex = explain(&mapper, &sub, &params, 42);
        assert!(ex.samples_used >= 150, "{}", ex.samples_used);
        let left = ex.edges.iter().find(|e| e.label == "left").unwrap();
        let right = ex.edges.iter().find(|e| e.label == "right").unwrap();
        assert!(left.score < -0.99, "left score {}", left.score);
        assert!(right.score > 0.99, "right score {}", right.score);
        assert!(left.heuristic_frac > 0.99);
        assert!(right.benchmark_frac > 0.99);
        // Flow deltas mirror the scores.
        assert!(left.mean_flow_delta < 0.0);
        assert!(right.mean_flow_delta > 0.0);
        // The strongest disagreement is one of the two edges at |1|.
        let strongest = ex.strongest_disagreements(1)[0];
        assert!(strongest.score.abs() > 0.99);
    }

    #[test]
    fn agreeing_region_scores_zero() {
        let mapper = TestMapper::new();
        // Below 0.5 both algorithms route on `left`.
        let sub = Subspace::from_rough_box(vec![0.1], vec![0.4], vec![0.2], 0.0);
        let params = ExplainerParams {
            samples: 100,
            threads: 1,
            ..Default::default()
        };
        let ex = explain(&mapper, &sub, &params, 3);
        for e in &ex.edges {
            assert!(e.score.abs() < 1e-12, "{} score {}", e.label, e.score);
        }
    }

    #[test]
    fn single_thread_deterministic() {
        let mapper = TestMapper::new();
        let sub = Subspace::from_rough_box(vec![0.3], vec![0.9], vec![0.6], 1.0);
        let params = ExplainerParams {
            samples: 50,
            threads: 1,
            ..Default::default()
        };
        let a = explain(&mapper, &sub, &params, 99);
        let b = explain(&mapper, &sub, &params, 99);
        assert_eq!(a.samples_used, b.samples_used);
        for (ea, eb) in a.edges.iter().zip(&b.edges) {
            assert_eq!(ea.score, eb.score);
        }
    }

    /// A heat-map is a function of its params and seed alone: the same
    /// streams on 1, 2 or 3 OS threads give bit-identical explanations,
    /// and `threads: 0` means [`DEFAULT_STREAMS`] streams.
    #[test]
    fn explanation_does_not_depend_on_os_threads() {
        let mapper = TestMapper::new();
        let sub = Subspace::from_rough_box(vec![0.3], vec![0.9], vec![0.6], 1.0);
        let bits = |ex: &Explanation| -> Vec<u64> {
            ex.edges
                .iter()
                .flat_map(|e| {
                    [
                        e.score,
                        e.heuristic_frac,
                        e.benchmark_frac,
                        e.heuristic_mean_flow,
                        e.benchmark_mean_flow,
                        e.mean_flow_delta,
                    ]
                })
                .map(f64::to_bits)
                .chain([ex.samples_used as u64])
                .collect()
        };
        for threads in [0, 3, 5] {
            let params = ExplainerParams {
                samples: 100,
                threads,
                ..Default::default()
            };
            let one = bits(&explain_on(&mapper, &sub, &params, 7, 1));
            for os_threads in [2, 3] {
                let many = bits(&explain_on(&mapper, &sub, &params, 7, os_threads));
                assert_eq!(many, one, "threads {threads}, {os_threads} OS threads");
            }
            assert_eq!(bits(&explain(&mapper, &sub, &params, 7)), one);
        }
        let auto = ExplainerParams {
            samples: 100,
            threads: 0,
            ..Default::default()
        };
        let two = ExplainerParams {
            threads: DEFAULT_STREAMS,
            ..auto.clone()
        };
        assert_eq!(
            bits(&explain_on(&mapper, &sub, &auto, 7, 1)),
            bits(&explain_on(&mapper, &sub, &two, 7, 2))
        );
    }

    #[test]
    fn unmappable_samples_skipped() {
        let mapper = Unmappable {
            net: TestMapper::new().net,
        };
        let sub = Subspace::from_rough_box(vec![0.0], vec![1.0], vec![0.5], 0.0);
        let params = ExplainerParams {
            samples: 30,
            threads: 1,
            ..Default::default()
        };
        let ex = explain(&mapper, &sub, &params, 5);
        assert_eq!(ex.samples_used, 0);
    }
}
