//! Cross-build accounting fingerprint.
//!
//! One seeded 64-peer deployment with every cost-bearing mechanism
//! switched on at once: request loss, reply duplication and reordering,
//! the PlanetLab latency model, factor-3 placement whose heat threshold
//! fires spikes, semantic-fault gossip and churn on every non-origin
//! peer. All inserts happen first, on a quiet system; then a
//! `SessionPool` interleaves sessions with different retry budgets,
//! standalone sessions run every plan shape, and an adversarial gossip
//! round is followed by an assessment pass.
//!
//! Every observable cost is folded into one FNV-1a hash: each outcome's
//! rows and `ExecStats`, each per-unit `Stats` delta with the instant its
//! reply was delivered, each pool event, the assessment report (stats and
//! elapsed time), the lifetime replica counters, the heat-spike log and
//! the overlay message total. A change to *how* costs are counted must
//! leave the constant below where it is; a change to *what* some work
//! costs moves it and says why.

use gridvine_core::{
    GridVineConfig, GridVineSystem, JoinMode, PlacementPolicy, QueryOptions, QueryPlan,
    SessionPool, Strategy,
};
use gridvine_netsim::churn::{ChurnConfig, ChurnEvent, ChurnProcess};
use gridvine_netsim::{FaultConfig, LatencyConfig, SimDuration, SimTime};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{
    ConjunctiveQuery, PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery,
};
use gridvine_semantic::{
    BayesConfig, Correspondence, MappingKind, Provenance, Schema, SemanticFaultConfig,
};

const PEERS: usize = 64;
const RING: usize = 5;
/// Peers that issue sessions; churn never takes them down.
const ORIGINS: [PeerId; 3] = [PeerId(5), PeerId(23), PeerId(41)];

/// FNV-1a over a stream of words and strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Hash a value through its `Debug` form (every field of `ExecStats`,
    /// `ResultEvent`, `PoolEvent`, `HeatSpike`, … in declaration order).
    fn debug(&mut self, value: &impl std::fmt::Debug) {
        let text = format!("{value:?}");
        self.word(text.len() as u64);
        self.bytes(text.as_bytes());
    }
}

fn config() -> GridVineConfig {
    GridVineConfig {
        peers: PEERS,
        fault: FaultConfig {
            loss: 0.08,
            duplication: 0.15,
            reorder: 0.2,
            reorder_jitter: SimDuration::from_millis(40),
            links: Vec::new(),
        },
        semantic_fault: SemanticFaultConfig {
            stale: 0.5,
            corrupt: 0.4,
            byzantine: 0.3,
            adversaries: vec![60, 61],
        },
        latency: LatencyConfig::planetlab_2007(),
        placement: PlacementPolicy::new()
            .replicate("S", 3)
            .heat(2, SimDuration::from_secs(30)),
        seed: 0xACC0_0417,
        ..GridVineConfig::default()
    }
}

/// A 5-schema equivalence ring with a retired shortcut (so stale gossip
/// has a candidate), Aspergillus and decoy rows on every schema, and a
/// length attribute for the joins. Every insert runs before any session
/// and before churn is installed.
fn build() -> GridVineSystem {
    let mut sys = GridVineSystem::new(config());
    let p0 = PeerId(0);
    for i in 0..RING {
        sys.insert_schema(
            p0,
            Schema::new(
                format!("S{i}").as_str(),
                [format!("a{i}"), format!("b{i}"), format!("len{i}")],
            ),
        )
        .unwrap();
    }
    for i in 0..RING {
        let j = (i + 1) % RING;
        sys.insert_mapping(
            p0,
            format!("S{i}").as_str(),
            format!("S{j}").as_str(),
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![
                Correspondence::new(format!("a{i}"), format!("a{j}")),
                Correspondence::new(format!("b{i}"), format!("b{j}")),
                Correspondence::new(format!("len{i}"), format!("len{j}")),
            ],
        )
        .unwrap();
    }
    let shortcut = sys
        .insert_mapping(
            p0,
            "S0",
            "S2",
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![Correspondence::new("a0", "b2")],
        )
        .unwrap();
    sys.deprecate_mapping(p0, shortcut).unwrap();
    for i in 0..RING {
        // Inserts come from several peers so placement ranks holders
        // from more than one vantage point.
        let from = PeerId::from_index((7 * i) % PEERS);
        for r in 0..3 {
            let subject = format!("seq:R{i}x{r}");
            sys.insert_triple(
                from,
                Triple::new(
                    subject.as_str(),
                    format!("S{i}#a{i}").as_str(),
                    Term::literal(format!("Aspergillus strain {i}-{r}")),
                ),
            )
            .unwrap();
            sys.insert_triple(
                from,
                Triple::new(
                    subject.as_str(),
                    format!("S{i}#len{i}").as_str(),
                    Term::literal(format!("{}", 100 + 10 * i + r)),
                ),
            )
            .unwrap();
        }
        sys.insert_triple(
            from,
            Triple::new(
                format!("seq:D{i}").as_str(),
                format!("S{i}#b{i}").as_str(),
                Term::literal("Aspergillus decoy"),
            ),
        )
        .unwrap();
    }
    sys
}

/// Churn on every non-origin peer over the whole run.
fn install_churn(sys: &mut GridVineSystem) {
    let cfg = ChurnConfig {
        mean_uptime: SimDuration::from_millis(1500),
        mean_downtime: SimDuration::from_millis(900),
        churny_fraction: 0.5,
    };
    let process = ChurnProcess::generate(
        &cfg,
        PEERS,
        SimTime::ZERO + SimDuration::from_secs(900),
        0xC4,
    );
    let events: Vec<ChurnEvent> = process
        .events()
        .iter()
        .filter(|e| !ORIGINS.iter().any(|o| o.index() == e.node.index()))
        .copied()
        .collect();
    sys.install_churn(&events);
}

fn var(name: &str) -> PatternTerm {
    PatternTerm::var(name)
}

fn uri(u: &str) -> PatternTerm {
    PatternTerm::constant(Term::uri(u))
}

/// The ring closure query: Aspergillus rows reachable from `S0#a0`.
fn ring_query() -> TriplePatternQuery {
    TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            var("x"),
            uri("S0#a0"),
            PatternTerm::constant(Term::literal("%Aspergillus%")),
        ),
    )
    .unwrap()
}

fn plans() -> Vec<(QueryPlan, QueryOptions)> {
    let pattern = TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            var("x"),
            uri("S1#a1"),
            PatternTerm::constant(Term::literal("Aspergillus strain 1-2")),
        ),
    )
    .unwrap();
    let prefix = TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            var("x"),
            var("p"),
            PatternTerm::constant(Term::literal("Asp%")),
        ),
    )
    .unwrap();
    let join = ConjunctiveQuery::new(
        vec!["x".to_string(), "len".to_string()],
        vec![
            TriplePattern::new(var("x"), uri("S0#a0"), var("o")),
            TriplePattern::new(var("x"), uri("S0#len0"), var("len")),
        ],
    )
    .unwrap();
    let base = QueryOptions::new();
    vec![
        (QueryPlan::pattern(pattern), base),
        (QueryPlan::object_prefix(prefix), base.window(3)),
        (QueryPlan::search(ring_query()), base),
        (QueryPlan::search(ring_query()), base.window(4)),
        (
            QueryPlan::search(ring_query()),
            base.strategy(Strategy::Recursive).window(2),
        ),
        (
            QueryPlan::conjunctive(join.clone()),
            base.join_mode(JoinMode::BoundSubstitution).window(2),
        ),
        (
            QueryPlan::conjunctive(join),
            base.join_mode(JoinMode::Independent)
                .strategy(Strategy::Recursive),
        ),
    ]
}

/// Drain one standalone session, hashing every event with the instant
/// the session had reached when it surfaced.
fn run_session(
    sys: &mut GridVineSystem,
    h: &mut Fnv,
    origin: PeerId,
    plan: &QueryPlan,
    options: &QueryOptions,
) {
    let mut session = sys.open(origin, plan, options).unwrap();
    loop {
        match session.next_event() {
            Ok(Some(event)) => {
                h.debug(&event);
                h.word(session.sim_now().0);
            }
            Ok(None) => break,
            Err(e) => {
                h.debug(&e);
                break;
            }
        }
    }
    h.word(session.in_flight() as u64);
    let outcome = session.into_outcome();
    h.debug(&outcome.rows);
    h.debug(&outcome.stats);
}

/// Sessions with different retry budgets interleaved in one pool.
fn run_pool(sys: &mut GridVineSystem, h: &mut Fnv) {
    let mut pool = SessionPool::new();
    let mut ids = Vec::new();
    let budgets = [0usize, 1, 6, 2];
    for (k, (plan, options)) in plans().into_iter().skip(2).enumerate() {
        let origin = ORIGINS[k % ORIGINS.len()];
        let at = SimTime::ZERO + SimDuration::from_millis(150 * k as u64);
        let options = options.max_retries(budgets[k % budgets.len()]);
        ids.push(pool.open_at(sys, origin, &plan, &options, at).unwrap());
    }
    // Each event carries its session, its instant and, for deliveries,
    // the unit's rows and `Stats` delta.
    while let Some(event) = pool.step(sys) {
        h.debug(&event);
    }
    for id in ids {
        let outcome = pool.take_outcome(id).unwrap();
        h.debug(&outcome.rows);
        h.debug(&outcome.stats);
    }
    h.word(sys.pending_events() as u64);
}

fn fingerprint() -> u64 {
    let mut sys = build();
    install_churn(&mut sys);
    let mut h = Fnv::new();

    run_pool(&mut sys, &mut h);
    for (k, (plan, options)) in plans().iter().enumerate() {
        run_session(&mut sys, &mut h, ORIGINS[k % ORIGINS.len()], plan, options);
    }

    let injected = sys.adversary_gossip(PeerId(0)).unwrap();
    h.debug(&injected);
    let report = sys
        .assessment_pass(ORIGINS[0], &BayesConfig::default())
        .unwrap();
    h.debug(&report);
    h.word(report.elapsed.0);
    // The repaired mapping network answers again.
    run_session(
        &mut sys,
        &mut h,
        ORIGINS[1],
        &QueryPlan::search(ring_query()),
        &QueryOptions::new().window(2),
    );

    h.debug(&sys.replica_counters());
    h.debug(&sys.heat_spikes());
    h.word(sys.messages_sent());
    // The scenario really exercises every replica counter.
    let replica = sys.replica_counters();
    assert!(replica.replica_hits > 0 && replica.failovers > 0 && replica.migrations > 0);
    assert!(!sys.heat_spikes().is_empty());
    h.0
}

#[test]
fn faulty_deployment_accounting_is_pinned() {
    let got = fingerprint();
    assert_eq!(got, fingerprint(), "the run is deterministic");
    assert_eq!(
        got, 0x9203_5cec_6c83_fabf,
        "accounting fingerprint moved: {got:#018x}"
    );
}
