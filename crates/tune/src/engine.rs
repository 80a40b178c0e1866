//! The candidate-based repair engine, in the petabricks shape: a
//! population of parameter vectors evolved by **elitism + mutation +
//! exploration probability**, scored by **failure-penalized worst-case
//! gap** over the regression bank's instances plus fresh deterministic
//! probes inside the discovered subspaces.
//!
//! Determinism contract: all randomness (initial population, mutation,
//! exploration) is drawn from one seeded RNG on the calling thread;
//! candidate *evaluation* is pure and fans out through the runtime's
//! [`fan_out`] with positional result slots — so `workers = 1` and
//! `workers = N` produce byte-identical [`TuneReport`]s. Probe points
//! are derived once, positionally ([`derive_seed`]) from the tuning seed
//! and the bank entry's rank, before any candidate exists, so every
//! candidate in every generation faces the identical evaluation set.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use xplain_runtime::bank::BankRecord;
use xplain_runtime::{derive_seed, fan_out, Domain, ParamSpace, RegressionBank};

/// Version stamp of the serialized [`TuneReport`] layout.
pub const TUNE_SCHEMA_VERSION: u32 = 1;

/// Fitness assigned to a candidate whose tuned heuristic *failed* on any
/// evaluation point (oracle returned a non-finite gap). Large but finite:
/// the JSON layer is f64-backed and cannot carry infinities, and a failed
/// candidate must still sort strictly worse than any real worst-case gap.
pub const FAILURE_FITNESS: f64 = 1e18;

/// Gaps above this are "still adversarial" when listing the instances
/// that continue to defeat the best candidate.
const DEFEAT_TOL: f64 = 1e-9;

/// Tuning knobs (the petabricks vocabulary: elites survive unchanged,
/// the rest of each generation is mutation around elites with an
/// exploration probability of fresh random candidates).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneOptions {
    pub generations: usize,
    pub population: usize,
    /// Candidates carried unchanged into the next generation.
    pub elites: usize,
    /// Probability a non-elite slot is a fresh uniform-random candidate
    /// rather than a mutation of an elite.
    pub exploration_probability: f64,
    /// Mutation step as a fraction of each parameter's `[lo, hi]` width.
    pub mutation_scale: f64,
    /// Deterministic probe points sampled inside each bank entry's
    /// discovered subspace box (fresh evaluations beyond the recorded
    /// witnesses).
    pub probes_per_finding: usize,
    pub seed: u64,
    /// Parallelism for candidate evaluation (byte-identical results for
    /// any value ≥ 1).
    pub workers: usize,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            generations: 8,
            population: 16,
            elites: 3,
            exploration_probability: 0.2,
            mutation_scale: 0.3,
            probes_per_finding: 8,
            seed: 0xD5,
            workers: 1,
        }
    }
}

impl TuneOptions {
    /// The CI smoke preset: small but large enough to repair the
    /// built-in domains' banks.
    pub fn quick() -> Self {
        TuneOptions {
            generations: 3,
            population: 8,
            probes_per_finding: 4,
            ..Default::default()
        }
    }

    /// The options of one tune request, as `runner tune` and
    /// `POST /v1/tune` both resolve them: the preset ([`quick`] or the
    /// default), then each given override clamped to the served bounds —
    /// generations 1–256, population 2–256, workers 1–8 (1 when absent).
    /// Workers change wall-clock only, never a byte of the report.
    ///
    /// [`quick`]: TuneOptions::quick
    pub fn resolve(
        quick: bool,
        generations: Option<usize>,
        population: Option<usize>,
        seed: Option<u64>,
        workers: Option<usize>,
    ) -> Self {
        let mut opts = if quick {
            TuneOptions::quick()
        } else {
            TuneOptions::default()
        };
        if let Some(g) = generations {
            opts.generations = g.clamp(1, 256);
        }
        if let Some(p) = population {
            opts.population = p.clamp(2, 256);
        }
        if let Some(s) = seed {
            opts.seed = s;
        }
        opts.workers = workers.unwrap_or(1).clamp(1, 8);
        opts
    }
}

/// One scored parameter vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Candidate {
    /// Parameter values, ordered per the domain's `ParamSpace`.
    pub params: Vec<f64>,
    /// Worst-case gap over the evaluation set — lower is better;
    /// [`FAILURE_FITNESS`] if the tuned heuristic failed anywhere.
    pub fitness: f64,
    /// Evaluation points on which the tuned oracle returned a non-finite
    /// gap (each one pushes fitness to [`FAILURE_FITNESS`]).
    pub failures: usize,
}

/// Per-generation progress — one NDJSON line of `POST /v1/tune` and
/// `runner tune --watch`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenerationStat {
    pub generation: usize,
    pub evaluated: usize,
    pub best_fitness: f64,
    pub best_params: Vec<f64>,
}

/// The tuner's verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneReport {
    /// [`TUNE_SCHEMA_VERSION`] at production time.
    pub schema_version: u32,
    pub domain: String,
    /// Parameter names, ordered as every `params` vector here.
    pub param_names: Vec<String>,
    pub default_params: Vec<f64>,
    /// The shipped heuristic's worst-case gap over the same evaluation
    /// set — the baseline a repair must strictly beat.
    pub default_fitness: f64,
    pub best: Candidate,
    /// `best.fitness < default_fitness`, strictly.
    pub improved: bool,
    pub trajectory: Vec<GenerationStat>,
    /// Bank instances scored (after shape filtering).
    pub bank_instances: usize,
    /// Bank instances whose dimensionality no longer matches the
    /// domain's oracle and were excluded from scoring.
    pub skipped_instances: usize,
    /// Fresh probe points scored alongside the bank instances.
    pub probe_points: usize,
    /// Ids of bank entries on which the best candidate still shows a
    /// positive gap — the corpus that continues to defeat the repair.
    pub still_defeated: Vec<String>,
}

/// Why a tuning run could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// The domain exposes no `ParamSpace`.
    NotTunable { domain: String },
    /// No usable bank instances for this domain (nothing to score
    /// against — run an analysis session first).
    EmptyCorpus { domain: String },
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::NotTunable { domain } => {
                write!(f, "domain '{domain}' exposes no tunable parameter space")
            }
            TuneError::EmptyCorpus { domain } => write!(
                f,
                "regression bank holds no usable instances for domain '{domain}'"
            ),
        }
    }
}

impl std::error::Error for TuneError {}

/// One point of the fixed evaluation set.
struct EvalPoint {
    /// Bank entry id when the point is a recorded witness, `None` for a
    /// fresh probe.
    bank_id: Option<String>,
    x: Vec<f64>,
}

/// Score one candidate: worst-case gap over the evaluation set,
/// failure-penalized. Pure — safe to fan out.
fn score(domain: &dyn Domain, params: &[f64], points: &[EvalPoint]) -> Candidate {
    let Some(oracle) = domain.tuned_oracle(params) else {
        return Candidate {
            params: params.to_vec(),
            fitness: FAILURE_FITNESS,
            failures: points.len(),
        };
    };
    let mut worst = 0.0_f64;
    let mut failures = 0usize;
    for point in points {
        let gap = oracle.gap(&point.x);
        if gap.is_finite() {
            worst = worst.max(gap);
        } else {
            failures += 1;
        }
    }
    Candidate {
        params: params.to_vec(),
        fitness: if failures > 0 { FAILURE_FITNESS } else { worst },
        failures,
    }
}

/// Total order on candidates: fitness, then params lexicographically —
/// ties never depend on evaluation order.
fn candidate_order(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    a.fitness.total_cmp(&b.fitness).then_with(|| {
        for (x, y) in a.params.iter().zip(&b.params) {
            let ord = x.total_cmp(y);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    })
}

fn random_candidate(space: &ParamSpace, rng: &mut StdRng) -> Vec<f64> {
    space
        .params
        .iter()
        .map(|d| {
            if d.hi > d.lo {
                rng.gen_range(d.lo..=d.hi)
            } else {
                d.lo
            }
        })
        .collect()
}

/// Build the fixed evaluation set from this domain's bank records:
/// every recorded witness, plus `probes_per_finding` deterministic
/// uniform samples inside each record's discovered subspace box.
fn eval_points(
    records: &[(u64, BankRecord)],
    dims: usize,
    opts: &TuneOptions,
) -> (Vec<EvalPoint>, usize, usize, usize) {
    let mut points = Vec::new();
    let mut bank_instances = 0usize;
    let mut skipped = 0usize;
    let mut probes = 0usize;
    for (rank, (key, record)) in records.iter().enumerate() {
        if record.instance.len() != dims {
            skipped += 1;
            continue;
        }
        bank_instances += 1;
        points.push(EvalPoint {
            bank_id: Some(RegressionBank::format_id(*key)),
            x: record.instance.clone(),
        });
        let lo = &record.finding.subspace.rough_lo;
        let hi = &record.finding.subspace.rough_hi;
        if lo.len() != dims || hi.len() != dims {
            continue;
        }
        // Positional derivation: the probe stream depends only on the
        // tuning seed and this record's rank in key order, never on how
        // many records came before it in directory order.
        let mut rng = StdRng::seed_from_u64(derive_seed(opts.seed, rank as u64));
        for _ in 0..opts.probes_per_finding {
            let x: Vec<f64> = lo
                .iter()
                .zip(hi)
                .map(|(&a, &b)| if b > a { rng.gen_range(a..=b) } else { a })
                .collect();
            points.push(EvalPoint { bank_id: None, x });
            probes += 1;
        }
    }
    (points, bank_instances, skipped, probes)
}

/// Run the repair loop for one domain over its bank records, invoking
/// `on_generation` after each generation is scored (the streaming hook
/// behind `runner tune --watch` and `POST /v1/tune`).
///
/// `records` is typically `RegressionBank::entries()` filtered to this
/// domain; entries for other domains are ignored here too, so passing
/// the whole bank is safe.
pub fn tune_with(
    domain: &dyn Domain,
    records: &[(u64, BankRecord)],
    opts: &TuneOptions,
    mut on_generation: impl FnMut(&GenerationStat),
) -> Result<TuneReport, TuneError> {
    let space = domain.param_space().ok_or_else(|| TuneError::NotTunable {
        domain: domain.id().to_string(),
    })?;
    let domain_records: Vec<(u64, BankRecord)> = records
        .iter()
        .filter(|(_, r)| r.domain == domain.id())
        .cloned()
        .collect();
    let dims = domain.oracle().dims();
    let (points, bank_instances, skipped_instances, probe_points) =
        eval_points(&domain_records, dims, opts);
    if bank_instances == 0 {
        return Err(TuneError::EmptyCorpus {
            domain: domain.id().to_string(),
        });
    }

    let defaults = space.defaults();
    let default_candidate = score(domain, &defaults, &points);

    let generations = opts.generations.max(1);
    let population = opts.population.max(2);
    let elites = opts.elites.clamp(1, population);

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut pop: Vec<Vec<f64>> = vec![defaults.clone()];
    while pop.len() < population {
        pop.push(random_candidate(&space, &mut rng));
    }

    let mut trajectory = Vec::with_capacity(generations);
    let mut best: Option<Candidate> = None;
    for generation in 0..generations {
        let mut scored = fan_out(pop.len(), opts.workers, |i| score(domain, &pop[i], &points));
        scored.sort_by(candidate_order);
        if best
            .as_ref()
            .is_none_or(|b| candidate_order(&scored[0], b) == std::cmp::Ordering::Less)
        {
            best = Some(scored[0].clone());
        }
        let leader = best.as_ref().expect("just set");
        let stat = GenerationStat {
            generation,
            evaluated: scored.len(),
            best_fitness: leader.fitness,
            best_params: leader.params.clone(),
        };
        on_generation(&stat);
        trajectory.push(stat);

        if generation + 1 == generations {
            break;
        }
        let elite_pool: Vec<Vec<f64>> = scored
            .iter()
            .take(elites)
            .map(|c| c.params.clone())
            .collect();
        let mut next: Vec<Vec<f64>> = elite_pool.clone();
        while next.len() < population {
            if rng.gen_bool(opts.exploration_probability) {
                next.push(random_candidate(&space, &mut rng));
            } else {
                let parent = &elite_pool[rng.gen_range(0..elite_pool.len())];
                let mut child = parent.clone();
                let dim = rng.gen_range(0..child.len());
                let d = &space.params[dim];
                child[dim] += opts.mutation_scale * (d.hi - d.lo) * rng.gen_range(-1.0..=1.0);
                space.clamp(&mut child);
                next.push(child);
            }
        }
        pop = next;
    }

    let best = best.expect("at least one generation ran");
    // Which bank instances still defeat the repaired heuristic?
    let still_defeated = match domain.tuned_oracle(&best.params) {
        Some(oracle) => points
            .iter()
            .filter_map(|p| {
                let id = p.bank_id.as_ref()?;
                let gap = oracle.gap(&p.x);
                (!gap.is_finite() || gap > DEFEAT_TOL).then(|| id.clone())
            })
            .collect(),
        None => Vec::new(),
    };

    let improved = best.fitness < default_candidate.fitness;
    Ok(TuneReport {
        schema_version: TUNE_SCHEMA_VERSION,
        domain: domain.id().to_string(),
        param_names: space.params.iter().map(|p| p.name.clone()).collect(),
        default_params: defaults,
        default_fitness: default_candidate.fitness,
        best,
        improved,
        trajectory,
        bank_instances,
        skipped_instances,
        probe_points,
        still_defeated,
    })
}

/// [`tune_with`] without a streaming hook.
pub fn tune(
    domain: &dyn Domain,
    records: &[(u64, BankRecord)],
    opts: &TuneOptions,
) -> Result<TuneReport, TuneError> {
    tune_with(domain, records, opts, |_| {})
}

/// NDJSON line for one generation (`{"generation":{...}}`) — the wire
/// format shared by `runner tune --watch` and `POST /v1/tune`.
pub fn generation_line(stat: &GenerationStat) -> String {
    format!(
        "{{\"generation\":{}}}",
        serde_json::to_string(stat).unwrap_or_default()
    )
}

/// Terminal NDJSON line carrying the full report (`{"report":{...}}`).
pub fn report_line(report: &TuneReport) -> String {
    format!(
        "{{\"report\":{}}}",
        serde_json::to_string(report).unwrap_or_default()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_picks_the_preset() {
        let resolved = |quick| format!("{:?}", TuneOptions::resolve(quick, None, None, None, None));
        assert_eq!(resolved(false), format!("{:?}", TuneOptions::default()));
        assert_eq!(resolved(true), format!("{:?}", TuneOptions::quick()));
    }

    #[test]
    fn resolve_clamps_each_override() {
        let generations =
            [0, 5, 1000].map(|g| TuneOptions::resolve(false, Some(g), None, None, None));
        assert_eq!(generations.map(|o| o.generations), [1, 5, 256]);
        let population =
            [0, 1, 9, 1000].map(|p| TuneOptions::resolve(true, None, Some(p), None, None));
        assert_eq!(population.map(|o| o.population), [2, 2, 9, 256]);
        let workers = [None, Some(0), Some(3), Some(64)]
            .map(|w| TuneOptions::resolve(false, None, None, None, w));
        assert_eq!(workers.map(|o| o.workers), [1, 1, 3, 8]);
        let seeded = TuneOptions::resolve(true, None, None, Some(7), None);
        assert_eq!(seeded.seed, 7);
    }
}
