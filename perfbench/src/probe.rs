//! Per-layer probes of the traced run: each layer's public functions,
//! timed on the workload's own inputs against the system the traced
//! traffic phase left behind.
//!
//! Each probe times one span around a loop of calls and reports the
//! mean per call, so the span's own cost stays out of the number.

use crate::spec::{Inputs, Spec};
use crate::trace::Tracer;
use gridvine_core::{GridVineSystem, QueryPlan};
use gridvine_netsim::{rng, EventQueue, LatencyConfig, NodeId, SimDuration, SimTime};
use gridvine_pgrid::{Overlay, PeerId};
use gridvine_rdf::join::{hash_join_rows, TermInterner, VarTable};
use gridvine_rdf::{TriplePattern, TriplePatternQuery};
use gridvine_semantic::reformulate::reformulations;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Plans probed per layer (the first ones of the traffic).
const PROBED: usize = 5_000;

/// One probed lookup: the origin its session ran from and a pattern
/// with a routing constant.
struct Lookup {
    origin: PeerId,
    pattern: TriplePattern,
}

fn lookups(spec: &Spec, plans: &[QueryPlan]) -> Vec<Lookup> {
    let mut out = Vec::new();
    for (i, plan) in plans.iter().enumerate().take(PROBED) {
        let origin = PeerId::from_index(i % spec.origins);
        let patterns: Vec<&TriplePattern> = match plan {
            QueryPlan::Pattern { query }
            | QueryPlan::ObjectPrefix { query }
            | QueryPlan::Closure { query } => vec![&query.pattern],
            QueryPlan::Join { query, .. } => query.patterns.iter().collect(),
        };
        for p in patterns {
            if p.routing_constant().is_some() {
                out.push(Lookup {
                    origin,
                    pattern: p.clone(),
                });
            }
        }
    }
    out
}

/// Time `n` calls made inside `f` as one span; mean ns per call.
fn per_call(tr: &mut Tracer, name: &'static str, n: usize, f: impl FnOnce()) -> f64 {
    let t = std::time::Instant::now();
    tr.span(name, f);
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Run every probe; returns per-layer metric values by name.
pub fn run(
    tr: &mut Tracer,
    sys: &GridVineSystem,
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let ls = lookups(spec, &inputs.plans);
    let n = ls.len();
    let lexicals: Vec<String> = ls
        .iter()
        .map(|l| {
            let (_, term) = l.pattern.routing_constant().expect("filtered above");
            term.lexical().to_string()
        })
        .collect();

    let mut keys = Vec::with_capacity(n);
    let ns = per_call(tr, "pgrid.hash.key", n, || {
        keys.extend(lexicals.iter().map(|lex| sys.key_of(lex)));
    });
    m.insert("pgrid.hash.key_ns", ns);

    let ns = per_call(tr, "pgrid.topology.responsible", n, || {
        for k in &keys {
            black_box(sys.topology().responsible(k).len());
        }
    });
    m.insert("pgrid.topology.responsible_ns", ns);

    let mut overlay: Overlay<()> = Overlay::new(sys.topology());
    let mut route_rng = rng::derive(seed, 0x4077);
    let mut dests = Vec::with_capacity(n);
    let ns = per_call(tr, "pgrid.overlay.route", n, || {
        for (l, k) in ls.iter().zip(&keys) {
            let route = overlay
                .route(l.origin, k, &mut route_rng)
                .expect("a balanced overlay routes every key");
            dests.push(route.destination);
        }
    });
    m.insert("pgrid.overlay.route_ns", ns);
    m.insert(
        "pgrid.overlay.hops",
        overlay.messages_sent() as f64 / n.max(1) as f64,
    );

    let mut rows = 0usize;
    let ns = per_call(tr, "rdf.store.match", n, || {
        for (l, d) in ls.iter().zip(&dests) {
            rows += black_box(sys.peer_db(*d).match_pattern(&l.pattern)).len();
        }
    });
    m.insert("rdf.store.match_ns", ns);
    m.insert("rdf.store.rows_per_match", rows as f64 / n.max(1) as f64);

    // Join kernel on the bindings each join plan's patterns get from
    // their destination peers.
    let mut inputs_rows = Vec::new();
    for plan in inputs.plans.iter().take(PROBED) {
        let QueryPlan::Join { query, .. } = plan else {
            continue;
        };
        let [left, right] = query.patterns.as_slice() else {
            continue;
        };
        let vars = VarTable::from_patterns([left, right]);
        let mut interner = TermInterner::new();
        let mut side = |p: &TriplePattern| -> Vec<Vec<u64>> {
            let (_, term) = p.routing_constant().expect("join patterns are routable");
            let dest = sys.topology().responsible(&sys.key_of(term.lexical()))[0];
            sys.peer_db(dest)
                .match_pattern(p)
                .iter()
                .map(|b| interner.encode(b, &vars))
                .collect()
        };
        inputs_rows.push((side(left), side(right)));
    }
    let (mut rows_in, mut rows_out) = (0usize, 0usize);
    let joins = inputs_rows.len();
    let ns = per_call(tr, "rdf.join.join", joins, || {
        for (l, r) in &inputs_rows {
            rows_in += l.len() + r.len();
            rows_out += black_box(hash_join_rows(l, r)).len();
        }
    });
    let per_join = |x: usize| x as f64 / joins.max(1) as f64;
    m.insert("rdf.join.join_ns", if joins == 0 { 0.0 } else { ns });
    m.insert("rdf.join.rows_in", per_join(rows_in));
    m.insert("rdf.join.rows_out", per_join(rows_out));

    // Closure walk over the mapping registry, for schema-bound patterns.
    let closure_queries: Vec<TriplePatternQuery> = if spec.closures {
        ls.iter()
            .filter_map(|l| TriplePatternQuery::new("x", l.pattern.clone()).ok())
            .filter(|q| gridvine_semantic::query_schema(q).is_ok())
            .collect()
    } else {
        Vec::new()
    };
    let ttl = sys.config().ttl;
    let mut size = 0usize;
    let ns = per_call(
        tr,
        "semantic.reformulate.closure",
        closure_queries.len(),
        || {
            for q in &closure_queries {
                size += reformulations(sys.registry(), q, ttl).map_or(0, |r| r.len());
            }
        },
    );
    let walks = closure_queries.len();
    m.insert(
        "semantic.reformulate.closure_ns",
        if walks == 0 { 0.0 } else { ns },
    );
    m.insert(
        "semantic.reformulate.closure_size",
        size as f64 / walks.max(1) as f64,
    );

    // The scheduler's latency model and event queue, on the probed
    // (origin, destination) pairs.
    let mut model = LatencyConfig::planetlab_2007()
        .build(rng::derive_seed(sys.config().seed, 0x1A7E))
        .expect("the PlanetLab model is not flat");
    let top = NodeId::from_index(spec.peers - 1);
    model.sample(top, top);
    let mut delays = Vec::with_capacity(n);
    let ns = per_call(tr, "netsim.latency.sample", n, || {
        for (l, d) in ls.iter().zip(&dests) {
            let from = NodeId::from_index(l.origin.index());
            delays.push(model.sample(from, NodeId::from_index(d.index())));
        }
    });
    m.insert("netsim.latency.sample_ns", ns);

    let mut queue: EventQueue<usize> = EventQueue::new();
    let ns = per_call(tr, "netsim.event.queue", n, || {
        let mut now = SimTime::ZERO;
        for (i, d) in delays.iter().enumerate() {
            queue.schedule(now + *d, i);
            now += SimDuration::from_micros(50);
        }
        while let Some(ev) = queue.pop() {
            black_box(ev);
        }
    });
    m.insert("netsim.event.queue_ns", ns);
    m
}
