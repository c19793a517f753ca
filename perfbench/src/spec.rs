//! The three workloads: their fixed parameters and the inputs each run
//! generates from its `--seed`.
//!
//! Every workload runs on the generated bioinformatics corpus at paper
//! scale (50 schemas, ≈17.5k triples) and on a fixed set of
//! deployments: the corpus seed and the system seeds (topology,
//! routing and latency-model streams) are constants, so the
//! benchmark's `--seed` picks only the traffic — the query stream and
//! the Poisson arrival instants.
//!
//! The PlanetLab latency model gives each peer a log-normal slowdown
//! (σ = 3), so a few peers run thousands of times slower than the
//! median, and where the topology puts them decides the latency
//! percentiles of one deployment. Over system seeds 1–30 the p99 of
//! `e1_lookup` ranges from 3.5 simulated seconds to 2 simulated hours.
//! A run therefore measures every deployment in [`DEPLOYMENTS`] and
//! reports the median over them, so that no single placement of slow
//! peers decides a simulated metric.

use gridvine_core::{PlacementPolicy, QueryPlan};
use gridvine_load::{ArrivalProcess, LoadConfig};
use gridvine_netsim::rng;
use gridvine_rdf::{PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery};
use gridvine_semantic::{Correspondence, SchemaId};
use gridvine_workload::{QueryConfig, QueryGenerator, Workload, WorkloadConfig};
use rand::Rng;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Seed of the generated corpus (the paper-scale default).
pub const CORPUS_SEED: u64 = 0x000B_10DB;
/// System seeds of the deployments a run measures: topology, routing
/// RNG and latency model (see the module docs). The first five seeds,
/// not a choice among them.
pub const DEPLOYMENTS: [u64; 5] = [1, 2, 3, 4, 5];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["e1_lookup", "mediated_search", "scale_ingest"];

/// Problem size: `Full` is the benchmark, `Tiny` the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Fixed parameters of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub peers: usize,
    pub corpus: WorkloadConfig,
    /// Ground-truth equivalence mappings around a ring of all schemas.
    pub mapping_ring: bool,
    /// Every `join_every`-th session runs a conjunctive join plan
    /// instead of a closure (`None`: single-pattern plans only).
    pub join_every: Option<usize>,
    /// `QueryPlan::search` closures instead of `QueryPlan::pattern`
    /// lookups.
    pub closures: bool,
    /// Ingest the corpus (and mappings) in this many batches after
    /// construction, each followed by a read-your-writes burst; 0 loads
    /// everything in one pass.
    pub ingest_batches: usize,
    /// Read-your-writes lookups after each ingest batch.
    pub burst: usize,
    /// Replication factor of the catch-all placement rule (`None`: the
    /// null policy).
    pub placement_factor: Option<usize>,
    /// Sessions in one timed traffic phase.
    pub sessions: usize,
    /// Poisson arrival rate, sessions per simulated second.
    pub rate: f64,
    pub origins: usize,
    /// Admission cap; the wait queue holds every session, so nothing is
    /// rejected.
    pub max_concurrent: usize,
    /// Sessions whose rows are compared with a central store after the
    /// timed phase (single-pattern lookups only).
    pub oracle_sample: usize,
}

impl Spec {
    pub fn named(name: &str, size: Size) -> Option<Spec> {
        let full = size == Size::Full;
        let corpus = if full {
            WorkloadConfig::paper_scale(CORPUS_SEED)
        } else {
            WorkloadConfig::small(CORPUS_SEED)
        };
        let base = Spec {
            name: "",
            peers: if full { 340 } else { 64 },
            corpus,
            mapping_ring: false,
            join_every: None,
            closures: false,
            ingest_batches: 0,
            burst: 0,
            placement_factor: None,
            sessions: if full { 23_000 } else { 400 },
            rate: 20.0,
            origins: if full { 64 } else { 16 },
            max_concurrent: 256,
            oracle_sample: if full { 2_000 } else { 100 },
        };
        let spec = match name {
            "e1_lookup" => Spec {
                name: "e1_lookup",
                ..base
            },
            "mediated_search" => Spec {
                name: "mediated_search",
                mapping_ring: true,
                closures: true,
                join_every: Some(10),
                sessions: if full { 23_000 } else { 200 },
                rate: 1.0,
                ..base
            },
            "scale_ingest" => Spec {
                name: "scale_ingest",
                // Not 10⁴: a setup there takes about 15 s, which leaves a
                // run too few traffic phases for a steady throughput.
                peers: if full { 3_000 } else { 500 },
                mapping_ring: true,
                ingest_batches: 10,
                burst: if full { 50 } else { 10 },
                placement_factor: Some(3),
                sessions: if full { 20_000 } else { 400 },
                oracle_sample: if full { 500 } else { 100 },
                ..base
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn placement(&self) -> PlacementPolicy {
        match self.placement_factor {
            Some(factor) => PlacementPolicy::new().replicate("", factor),
            None => PlacementPolicy::new(),
        }
    }

    /// The open-loop configuration of the timed phase.
    pub fn load_config(&self, seed: u64) -> LoadConfig {
        LoadConfig {
            sessions: self.sessions,
            arrivals: ArrivalProcess::Poisson { rate: self.rate },
            origins: self.origins,
            max_concurrent: self.max_concurrent,
            queue_capacity: self.sessions,
            seed: rng::derive_seed(seed, 0x0A11),
            ..LoadConfig::default()
        }
    }
}

/// Everything one run feeds the system, generated once per run.
pub struct Inputs {
    pub corpus: Workload,
    /// The corpus in insertion order.
    pub triples: Vec<Triple>,
    /// Ground-truth equivalence mappings (source, target, pairs).
    pub mappings: Vec<(SchemaId, SchemaId, Vec<Correspondence>)>,
    /// One plan per traffic session.
    pub plans: Vec<QueryPlan>,
    /// Each session's ground-truth answer set (shared between sessions
    /// asking the same query).
    pub truths: Vec<Arc<BTreeSet<String>>>,
    /// Sessions whose rows are compared with the central store.
    pub oracle_sample: Vec<usize>,
    /// The fixed lookup that ends every setup (see [`warmup_plan`]).
    pub warmup: QueryPlan,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let corpus = Workload::generate(spec.corpus.clone());
        let triples: Vec<Triple> = corpus.all_triples().into_iter().map(|(_, t)| t).collect();
        let mappings = if spec.mapping_ring {
            let n = corpus.schemas.len();
            (0..n)
                .filter_map(|i| {
                    let a = corpus.schemas[i].id().clone();
                    let b = corpus.schemas[(i + 1) % n].id().clone();
                    let pairs = corpus.ground_truth.correct_pairs(&a, &b);
                    (!pairs.is_empty()).then_some((a, b, pairs))
                })
                .collect()
        } else {
            Vec::new()
        };
        let gen = QueryGenerator::new(&corpus, QueryConfig::default());
        let mut qrng = rng::derive(seed, 0x0E51);
        let mut plans = Vec::with_capacity(spec.sessions);
        let mut truths = Vec::with_capacity(spec.sessions);
        let mut distinct: HashMap<String, Arc<BTreeSet<String>>> = HashMap::new();
        for i in 0..spec.sessions {
            let (plan, truth) = match spec.join_every {
                Some(k) if i % k == k - 1 => {
                    let g = gen.conjunctive(&mut qrng);
                    (QueryPlan::conjunctive(g.query), g.true_answers)
                }
                _ if spec.closures => {
                    let g = gen.single(&mut qrng);
                    (QueryPlan::search(g.query), g.true_answers)
                }
                _ => {
                    let g = gen.single(&mut qrng);
                    (QueryPlan::pattern(g.query), g.true_answers)
                }
            };
            let truth = distinct
                .entry(plan.to_string())
                .or_insert_with(|| Arc::new(truth));
            truths.push(Arc::clone(truth));
            plans.push(plan);
        }
        // One oracle-checked session per stride, at a seeded offset.
        let mut srng = rng::derive(seed, 0x5A3F);
        let stride = (spec.sessions / spec.oracle_sample.max(1)).max(1);
        let oracle_sample = (0..spec.sessions)
            .step_by(stride)
            .map(|base| base + srng.gen_range(0..stride))
            .filter(|&i| i < spec.sessions)
            .take(spec.oracle_sample)
            .collect();
        let warmup = warmup_plan(&corpus);
        Inputs {
            corpus,
            triples,
            mappings,
            plans,
            truths,
            oracle_sample,
            warmup,
        }
    }
}

/// A fixed lookup issued from the highest-numbered peer at the end of
/// setup. The latency model draws each peer's slowdown from its sample
/// stream the first time a peer index is seen, placing every lower
/// index along with it; a first sample from the top peer therefore
/// fixes every slowdown from the deployment seed alone, before any
/// seeded traffic can shift the stream.
fn warmup_plan(corpus: &Workload) -> QueryPlan {
    let schema = &corpus.schemas[0];
    let attr = &schema.attributes()[0];
    let query = TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::Uri(schema.predicate(attr))),
            PatternTerm::var("v"),
        ),
    )
    .expect("x occurs in the pattern");
    QueryPlan::pattern(query)
}
