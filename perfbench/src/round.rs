//! One round of a workload: set the system up, then drive the timed
//! traffic through it.
//!
//! Untraced rounds drive traffic with `gridvine_load::run_open_loop`.
//! Traced rounds replay the same arrival schedule through a
//! [`SessionPool`] directly, so spans can sit around every `open_at`
//! and `step`; [`traced_open_loop`] follows `run_open_loop`'s merge and
//! admission order for configurations without budgets, deadlines or
//! per-origin quotas, and the caller asserts that both produce the
//! identical [`LoadReport`].

use crate::gate::{oracle_rows, sorted_rows, Gate};
use crate::spec::{Inputs, Spec};
use crate::trace::{maybe, Tracer};
use gridvine_core::pool::{PoolEvent, SessionId, SessionPool};
use gridvine_core::{ExecStats, GridVineConfig, GridVineSystem, QueryOptions, QueryPlan};
use gridvine_load::{run_open_loop, LatencySummary, LoadConfig, LoadReport, OriginStats};
use gridvine_netsim::{LatencyConfig, SimDuration, SimTime};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{PatternTerm, TriplePattern, TriplePatternQuery, TripleStore};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Wall-clock stopwatch that can be paused around untimed checks.
#[derive(Default)]
struct Stopwatch {
    total: f64,
}

impl Stopwatch {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.total += t.elapsed().as_secs_f64();
        out
    }
}

pub fn config(spec: &Spec, system_seed: u64) -> GridVineConfig {
    GridVineConfig {
        peers: spec.peers,
        latency: LatencyConfig::planetlab_2007(),
        placement: spec.placement(),
        seed: system_seed,
        ..GridVineConfig::default()
    }
}

/// Build the deployment with system seed `system_seed` and load
/// schemas, triples, mappings and placement. Returns the system and
/// the timed wall seconds (read-your-writes checks between ingest
/// batches are not timed).
pub fn setup(
    spec: &Spec,
    inputs: &Inputs,
    system_seed: u64,
    mut tracer: Option<&mut Tracer>,
    gate: &mut Gate,
) -> (GridVineSystem, f64) {
    let mut watch = Stopwatch::default();
    let peer = |i: usize| PeerId::from_index(i % spec.peers);
    let mut sys = watch.time(|| {
        maybe(&mut tracer, "pgrid.topology.build", || {
            GridVineSystem::new(config(spec, system_seed))
        })
    });
    watch.time(|| {
        for (i, s) in inputs.corpus.schemas.iter().enumerate() {
            let r = maybe(&mut tracer, "core.system.insert_schema", || {
                sys.insert_schema(peer(i), s.clone())
            });
            gate.ok("insert_schema", r);
        }
    });
    let batches = spec.ingest_batches.max(1);
    let triple_chunk = inputs.triples.len().div_ceil(batches);
    let mapping_chunk = inputs.mappings.len().div_ceil(batches).max(1);
    // Everything ingested so far, for the read-your-writes bursts.
    let mut oracle = TripleStore::new();
    for b in 0..batches {
        let triples = inputs.triples.iter().enumerate().skip(b * triple_chunk);
        let triples: Vec<_> = triples.take(triple_chunk).collect();
        let mappings = inputs.mappings.iter().enumerate().skip(b * mapping_chunk);
        let mappings: Vec<_> = mappings.take(mapping_chunk).collect();
        watch.time(|| {
            for &(k, t) in &triples {
                let r = maybe(&mut tracer, "core.system.insert_triple", || {
                    sys.insert_triple(peer(k), t.clone())
                });
                gate.ok("insert_triple", r);
            }
            for &(i, (source, target, pairs)) in &mappings {
                let r = maybe(&mut tracer, "core.system.insert_mapping", || {
                    sys.insert_mapping(
                        peer(i),
                        source.clone(),
                        target.clone(),
                        gridvine_semantic::MappingKind::Equivalence,
                        gridvine_semantic::Provenance::Manual,
                        pairs.clone(),
                    )
                });
                gate.ok("insert_mapping", r.map(|_| ()));
            }
        });
        if spec.ingest_batches > 0 {
            oracle.insert_batch(triples.iter().map(|&(_, t)| t.clone()));
            read_your_writes(&mut sys, spec, &oracle, &triples, b, gate);
        }
    }
    watch.time(|| {
        let top = PeerId::from_index(spec.peers - 1);
        let r = maybe(&mut tracer, "core.system.execute", || {
            sys.execute(top, &inputs.warmup, &QueryOptions::new())
        });
        gate.ok("warm-up lookup", r.map(|_| ()));
    });
    (sys, watch.total)
}

/// Look up the subjects of `spec.burst` triples of the batch just
/// ingested and require the rows of a store holding everything
/// ingested so far. The lookups run from peers counted down from the
/// top: a session advances its origin's clock, and `run_open_loop`
/// starts every arrival schedule at the epoch, so the traffic origins
/// (counted up from peer 0) must not have served anything before it.
fn read_your_writes(
    sys: &mut GridVineSystem,
    spec: &Spec,
    oracle: &TripleStore,
    batch: &[(usize, &gridvine_rdf::Triple)],
    b: usize,
    gate: &mut Gate,
) {
    let stride = (batch.len() / spec.burst.max(1)).max(1);
    for (j, &(_, t)) in batch.iter().step_by(stride).take(spec.burst).enumerate() {
        let pattern = TriplePattern::new(
            PatternTerm::constant(t.subject.clone()),
            PatternTerm::var("p"),
            PatternTerm::var("o"),
        );
        let query = TriplePatternQuery::new("p", pattern).expect("p occurs");
        let origin = PeerId::from_index(spec.peers - 1 - (b * spec.burst + j) % spec.peers);
        let want = oracle_rows(oracle, &query);
        match sys.execute(origin, &QueryPlan::pattern(query), &QueryOptions::new()) {
            Ok(out) => gate.check(sorted_rows(&out.rows) == want, || {
                format!(
                    "read-your-writes: {} rows for {}, {} ingested",
                    out.rows.len(),
                    t.subject,
                    want.len()
                )
            }),
            Err(e) => gate.check(false, || format!("read-your-writes lookup failed: {e}")),
        }
    }
}

/// What one traffic phase measured.
pub struct Traffic {
    pub report: LoadReport,
    pub wall_s: f64,
    /// Per-session stats and pool steps (traced rounds only).
    pub stats: Vec<ExecStats>,
    pub steps: usize,
}

/// Drive the timed traffic.
pub fn traffic(
    sys: &mut GridVineSystem,
    plans: &[QueryPlan],
    cfg: &LoadConfig,
    tracer: Option<&mut Tracer>,
) -> Traffic {
    let t = Instant::now();
    match tracer {
        None => {
            let report = run_open_loop(sys, plans, cfg);
            Traffic {
                report,
                wall_s: t.elapsed().as_secs_f64(),
                stats: Vec::new(),
                steps: 0,
            }
        }
        Some(tr) => {
            tr.enter("bench.open_loop");
            let (report, stats, steps) = traced_open_loop(sys, plans, cfg, tr);
            tr.exit();
            Traffic {
                report,
                wall_s: t.elapsed().as_secs_f64(),
                stats,
                steps,
            }
        }
    }
}

/// `run_open_loop` with a span around every pool call. Returns the
/// report, every finished session's stats and the number of pool steps.
fn traced_open_loop(
    sys: &mut GridVineSystem,
    plans: &[QueryPlan],
    cfg: &LoadConfig,
    tr: &mut Tracer,
) -> (LoadReport, Vec<ExecStats>, usize) {
    assert!(
        cfg.message_budget.is_none() && cfg.deadline.is_none() && cfg.origin_quota.is_none(),
        "the traced driver replays configurations without budgets, deadlines or quotas"
    );
    let opts = QueryOptions::new()
        .strategy(cfg.strategy)
        .window(cfg.window);
    let instants = cfg.arrivals.instants(cfg.sessions, cfg.seed);
    let mut d = Driver {
        pool: SessionPool::new(),
        track: HashMap::new(),
        waiting: VecDeque::new(),
        report: LoadReport::default(),
        latencies: Vec::new(),
        waits: Vec::new(),
        per_origin: vec![(0, 0, SimDuration::ZERO); cfg.origins],
        makespan: SimTime::ZERO,
        stats: Vec::new(),
        steps: 0,
    };
    for (i, &at) in instants.iter().enumerate() {
        loop {
            let next = tr.span("core.pool.next_instant", || d.pool.next_instant(sys));
            match next {
                Some(t) if t <= at => d.step(sys, plans, &opts, cfg, tr),
                _ => break,
            }
        }
        let origin = i % cfg.origins;
        d.report.submitted += 1;
        d.per_origin[origin].0 += 1;
        if d.pool.len() < cfg.max_concurrent {
            d.report.admitted += 1;
            d.admit(sys, plans, &opts, tr, (at, origin, i), at);
        } else if d.waiting.len() < cfg.queue_capacity {
            d.waiting.push_back((at, origin, i));
        } else {
            d.report.rejected += 1;
        }
        d.makespan = d.makespan.max(at);
    }
    while !d.pool.is_empty() {
        d.step(sys, plans, &opts, cfg, tr);
    }
    let mut report = d.report;
    report.latency = LatencySummary::from_samples(&mut d.latencies);
    report.queue_wait = LatencySummary::from_samples(&mut d.waits);
    report.makespan = d.makespan.saturating_since(SimTime::ZERO);
    report.per_origin = d
        .per_origin
        .iter()
        .enumerate()
        .map(|(origin, &(submitted, completed, total))| OriginStats {
            origin,
            submitted,
            completed,
            mean_latency: if completed == 0 {
                SimDuration::ZERO
            } else {
                SimDuration(total.0 / completed as u64)
            },
        })
        .collect();
    (report, d.stats, d.steps)
}

/// State of the traced open-loop replay.
struct Driver {
    pool: SessionPool,
    /// Submit instant and origin of each open session.
    track: HashMap<SessionId, (SimTime, usize)>,
    /// (submit, origin, plan index) behind the admission cap.
    waiting: VecDeque<(SimTime, usize, usize)>,
    report: LoadReport,
    latencies: Vec<SimDuration>,
    waits: Vec<SimDuration>,
    /// (submitted, completed, summed latency) per origin.
    per_origin: Vec<(usize, usize, SimDuration)>,
    makespan: SimTime,
    stats: Vec<ExecStats>,
    steps: usize,
}

impl Driver {
    fn admit(
        &mut self,
        sys: &mut GridVineSystem,
        plans: &[QueryPlan],
        opts: &QueryOptions,
        tr: &mut Tracer,
        (submit, origin, plan): (SimTime, usize, usize),
        at: SimTime,
    ) {
        let plan = &plans[plan % plans.len()];
        let pool = &mut self.pool;
        let opened = tr.span("core.pool.open", || {
            pool.open_at(sys, PeerId::from_index(origin), plan, opts, at)
        });
        match opened {
            Ok(id) => {
                self.track.insert(id, (submit, origin));
            }
            Err(_) => self.report.refused += 1,
        }
    }

    /// Settle one pool event, then promote waiting arrivals into the
    /// capacity it freed.
    fn step(
        &mut self,
        sys: &mut GridVineSystem,
        plans: &[QueryPlan],
        opts: &QueryOptions,
        cfg: &LoadConfig,
        tr: &mut Tracer,
    ) {
        let pool = &mut self.pool;
        let ev = tr
            .span("core.pool.step", || pool.step(sys))
            .expect("a live pool has a next event");
        self.steps += 1;
        let t = ev.at();
        match ev {
            PoolEvent::Delivered { .. } => {}
            PoolEvent::Finished { session, at } => {
                let (submit, origin) = self.track[&session];
                let latency = at.saturating_since(submit);
                self.report.completed += 1;
                self.latencies.push(latency);
                self.per_origin[origin].1 += 1;
                self.per_origin[origin].2 += latency;
                if let Some(o) = self.pool.take_outcome(session) {
                    self.report.rows += o.rows.len();
                    self.report.messages += o.stats.messages;
                    self.stats.push(o.stats);
                }
            }
            PoolEvent::Failed { session, .. } => {
                self.report.failed += 1;
                if let Some(o) = self.pool.take_outcome(session) {
                    self.report.messages += o.stats.messages;
                    self.stats.push(o.stats);
                }
            }
        }
        self.makespan = self.makespan.max(t);
        while self.pool.len() < cfg.max_concurrent {
            let Some((submit, origin, plan)) = self.waiting.pop_front() else {
                break;
            };
            self.report.queued += 1;
            self.waits.push(t.saturating_since(submit));
            self.admit(sys, plans, opts, tr, (submit, origin, plan), t.max(submit));
        }
    }
}
