//! Bit pins of the gap oracles, the explainer and the default manifest.
//!
//! FNV-1a digests over the bits of 2,000 seeded `FfOracle` /
//! `SchedOracle` gaps (default and tuned parameters, points with ties and
//! zeros), over `explain` heat-maps of the three built-in mappers at
//! several stream counts, and over the stored results of the default
//! manifest (`runner --emit-manifest`: one default-config job per
//! registered domain, base seed 7). The gap constants were computed
//! before the packing and scheduling algorithms moved into reusable
//! scratch; the explainer and dp constants before the explainer's sample
//! streams moved from scoped threads onto the calling thread. They pin
//! that a rewrite of those paths moves no bit: not a gap, not an optimal
//! assignment the search lands on, not a heat-map, not a stored result.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xplain_analyzer::oracle::{FfOracle, GapOracle, SchedOracle};
use xplain_core::explainer::{explain, ExplainerParams};
use xplain_core::pipeline::PipelineConfig;
use xplain_core::subspace::Subspace;
use xplain_runtime::{run_manifest, DomainRegistry, JobSpec, SessionBudgets};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// `n` coordinates in `[lo, hi]`: a third on a five-point grid of the box
/// (ties), a sixth exactly zero, the rest uniform.
fn point(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.gen_range(0..6) {
            0 | 1 => lo + (hi - lo) * rng.gen_range(0..=4) as f64 / 4.0,
            2 => 0.0,
            _ => rng.gen_range(lo..=hi),
        })
        .collect()
}

/// Digest of 500 gaps, each from the oracle `make` builds for a random
/// size (and a parameter drawn from `params`).
fn digest(seed: u64, params: &[f64], make: impl Fn(&mut StdRng, f64) -> Box<dyn GapOracle>) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..500).fold(FNV_OFFSET, |hash, _| {
        let param = params[rng.gen_range(0..params.len())];
        let oracle = make(&mut rng, param);
        let (lo, hi) = oracle.bounds()[0];
        let x = point(&mut rng, oracle.dims(), lo, hi);
        fnv1a(hash, &oracle.gap(&x).to_bits().to_le_bytes())
    })
}

fn ff(rng: &mut StdRng, defer_below: f64) -> Box<dyn GapOracle> {
    Box::new(FfOracle {
        defer_below,
        ..FfOracle::new(rng.gen_range(1..=9))
    })
}

fn sched(rng: &mut StdRng, cap_factor: f64) -> Box<dyn GapOracle> {
    let jobs = rng.gen_range(1..=9);
    Box::new(SchedOracle {
        cap_factor,
        ..SchedOracle::new(jobs, rng.gen_range(1..=4))
    })
}

#[test]
fn ff_and_sched_gaps_keep_their_bits() {
    let digests = [
        digest(1, &[0.0], ff),
        digest(2, &[0.05, 0.1, 0.25, 0.5, 0.75], ff),
        digest(3, &[0.0], sched),
        digest(4, &[0.5, 0.9, 1.0, 1.1, 1.5], sched),
    ];
    assert_eq!(
        digests.map(|d| format!("{d:016x}")),
        [
            "68ac6921b2503685",
            "0e0d657d34ef8225",
            "92e47b2ff01ccc20",
            "41bb214faaf1e079",
        ],
        "[ff default, ff tuned, sched default, sched tuned]"
    );
}

/// Digest of the heat-maps of `domain`'s mapper over the box from 20% to
/// 70% of its oracle's, 60 samples at each stream count (`0` is the
/// default), every field's bits and the sample count.
fn explanation_digest(registry: &DomainRegistry, domain: &str) -> u64 {
    let domain = registry.get(domain).expect("registered");
    let mapper = domain.mapper().expect("every built-in domain explains");
    let (lo, hi): (Vec<f64>, Vec<f64>) = domain
        .oracle()
        .bounds()
        .iter()
        .map(|&(lo, hi)| (lo + 0.2 * (hi - lo), lo + 0.7 * (hi - lo)))
        .unzip();
    let sub = Subspace::from_rough_box(lo, hi.clone(), hi, 1.0);
    [0, 1, 2, 3, 5]
        .into_iter()
        .fold(FNV_OFFSET, |hash, threads| {
            let params = ExplainerParams {
                samples: 60,
                threads,
                ..Default::default()
            };
            let ex = explain(mapper.as_ref(), &sub, &params, 11 + threads as u64);
            assert!(ex.samples_used > 0, "no sample mapped at {threads} streams");
            let hash = fnv1a(hash, &(ex.samples_used as u64).to_le_bytes());
            ex.edges.iter().fold(hash, |hash, e| {
                [
                    e.score,
                    e.heuristic_frac,
                    e.benchmark_frac,
                    e.heuristic_mean_flow,
                    e.benchmark_mean_flow,
                    e.mean_flow_delta,
                ]
                .iter()
                .fold(hash, |hash, v| fnv1a(hash, &v.to_bits().to_le_bytes()))
            })
        })
}

#[test]
fn explanations_keep_their_bits_at_every_stream_count() {
    let registry = DomainRegistry::builtin();
    let digests =
        ["dp", "ff", "sched"].map(|d| format!("{:016x}", explanation_digest(&registry, d)));
    assert_eq!(
        digests,
        ["76e4311d9d365f12", "29c65cc38976aa23", "5be31080d8643a65"],
        "[dp, ff, sched]"
    );
}

#[test]
fn default_manifest_results_keep_their_bits() {
    let registry = DomainRegistry::builtin();
    let jobs: Vec<JobSpec> = registry
        .ids()
        .into_iter()
        .map(|domain| JobSpec {
            domain,
            config: PipelineConfig::default(),
            seed: 7,
            budgets: SessionBudgets::unlimited(),
        })
        .collect();
    let digests: Vec<(String, String)> = run_manifest(&registry, &jobs, None, 1)
        .iter()
        .map(|o| {
            let json = serde_json::to_string(&o.result).expect("result serializes");
            let digest = fnv1a(FNV_OFFSET, json.as_bytes());
            (o.domain.clone(), format!("{digest:016x}"))
        })
        .collect();
    let expected = [
        ("dp", "1bada790bce178b6"),
        ("ff", "59ec03f00454ef5f"),
        ("sched", "596d3c1c37dfca65"),
    ]
    .map(|(d, h)| (d.to_string(), h.to_string()));
    assert_eq!(digests, expected);
}
