//! Ingest fingerprint of a replicated WAN deployment.
//!
//! `tests/topology_scale.rs` pins routing tables and σ owners of an
//! empty system; this file pins what ingest leaves behind. A seeded
//! PlanetLab deployment with factor-3 placement of every key (heat
//! telemetry on) ingests a generated corpus from rotating origins. One
//! origin is crashed and one is held down by churn, so replica
//! provisioning runs both with a live inserting origin and without one.
//!
//! The fingerprint hashes every insert result and a few read-your-writes
//! lookups between them (rows, stats and simulated finish instant), the
//! heat-spike log, then every peer's rows in `iter()` order, the replica
//! holders of every ingested lexical and the overlay message total, and
//! last one fixed lookup. The lookups sample the latency model, so its
//! stream position is pinned too. The
//! ignored 3,000-peer case ingests the paper-scale corpus and runs in
//! release mode:
//! `cargo test --release --test ingest_scale -- --include-ignored`.

use gridvine_core::{
    GridVineConfig, GridVineSystem, PlacementPolicy, QueryOptions, QueryPlan, SpikeAction,
};
use gridvine_netsim::churn::{ChurnEvent, ChurnKind};
use gridvine_netsim::{LatencyConfig, NodeId, SimDuration, SimTime};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{PatternTerm, Triple, TriplePattern, TriplePatternQuery};
use gridvine_workload::{Workload, WorkloadConfig};
use std::collections::BTreeSet;

const SYSTEM_SEED: u64 = 11;
const CORPUS_SEED: u64 = 0x000B_10DB;

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

    fn debug(&mut self, value: &impl std::fmt::Debug) {
        let text = format!("{value:?}");
        self.word(text.len() as u64);
        self.bytes(text.as_bytes());
    }
}

/// Inserting origins, used in rotation. The last peer is one of them:
/// it is the edge case of provisioning's latency-model placement.
fn origins(peers: usize) -> [PeerId; 6] {
    [3, 97, 250, peers / 2 + 11, peers - 201, peers - 1].map(PeerId::from_index)
}

fn deployment(peers: usize) -> GridVineSystem {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers,
        latency: LatencyConfig::planetlab_2007(),
        placement: PlacementPolicy::new()
            .replicate("", 3)
            .heat(2, SimDuration::from_secs(3_600)),
        seed: SYSTEM_SEED,
        ..GridVineConfig::default()
    });
    let [_, crashed, _, churned, _, _] = origins(peers);
    sys.crash_peer(crashed);
    sys.install_churn(&[ChurnEvent {
        at: SimTime::ZERO,
        node: NodeId::from_index(churned.index()),
        kind: ChurnKind::Fail,
    }]);
    sys
}

/// Drain one lookup of everything said about `subject`, hashing its
/// rows, stats and the instant the origin's clock reached.
fn lookup(sys: &mut GridVineSystem, h: &mut Fnv, origin: PeerId, subject: &Triple) {
    let query = TriplePatternQuery::new(
        "p",
        TriplePattern::new(
            PatternTerm::constant(subject.subject.clone()),
            PatternTerm::var("p"),
            PatternTerm::var("o"),
        ),
    )
    .unwrap();
    let mut session = sys
        .open(origin, &QueryPlan::pattern(query), &QueryOptions::new())
        .unwrap();
    while session.next_event().unwrap().is_some() {}
    h.word(session.sim_now().0);
    let outcome = session.into_outcome();
    assert!(!outcome.rows.is_empty(), "a lookup finds its subject");
    h.debug(&outcome.rows);
    h.debug(&outcome.stats);
}

/// Every peer's rows in `iter()` order, the holders of every lexical
/// and the overlay message total.
fn hash_state(sys: &GridVineSystem, h: &mut Fnv, lexicals: &BTreeSet<&str>) {
    for i in 0..sys.topology().len() {
        let db = sys.peer_db(PeerId::from_index(i));
        h.word(db.len() as u64);
        for t in db.iter() {
            h.debug(&t);
        }
    }
    for &lexical in lexicals {
        let holders = sys.replica_holders(lexical);
        h.word(holders.len() as u64);
        for p in holders {
            h.word(u64::from(p.0));
        }
    }
    h.word(sys.messages_sent());
}

fn fingerprint(peers: usize, corpus: WorkloadConfig) -> u64 {
    let triples: Vec<Triple> = Workload::generate(corpus)
        .all_triples()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let lexicals: BTreeSet<&str> = triples
        .iter()
        .flat_map(|t| [t.subject.as_str(), t.predicate.as_str(), t.object.lexical()])
        .collect();
    let origins = origins(peers);
    let mut sys = deployment(peers);
    let mut h = Fnv::new();
    // Read-your-writes lookups during ingest sample the latency model
    // between inserts, so when provisioning places the model's nodes
    // matters, not only whether it does. They also heat the subjects'
    // shared key: a spike migrates an extra to the reader mid-ingest,
    // so later inserts fan out to the moved replica.
    let reader = PeerId::from_index(peers / 3);
    let checkpoint = triples.len() / 4;
    for (k, t) in triples.iter().enumerate() {
        h.debug(&sys.insert_triple(origins[k % origins.len()], t.clone()));
        if k % checkpoint == 0 {
            lookup(&mut sys, &mut h, reader, t);
        }
    }
    h.debug(&sys.heat_spikes());
    assert!(sys
        .heat_spikes()
        .iter()
        .any(|s| matches!(s.action, SpikeAction::Migrate { .. })));
    hash_state(&sys, &mut h, &lexicals);
    // One fixed lookup after ingest pins the model's stream position.
    lookup(&mut sys, &mut h, PeerId::from_index(peers / 2), &triples[1]);
    h.0
}

// Both constants were computed before ingest went scan-free: the
// responsible-peer copy of a replica, the provisioning fast path and
// the table-driven hash must leave every row, holder, charge and the
// latency model's stream where they were.
const FINGERPRINT_1000_SMALL: u64 = 0x16f5_2155_ae3f_e542;
const FINGERPRINT_3000_PAPER: u64 = 0xd00a_c0fc_ca26_3498;

#[test]
fn ingest_1000_keeps_rows_holders_and_charges() {
    let got = fingerprint(1_000, WorkloadConfig::small(CORPUS_SEED));
    assert_eq!(
        got, FINGERPRINT_1000_SMALL,
        "ingest fingerprint moved: {got:#018x}"
    );
}

#[test]
#[ignore = "3,000 peers and the paper-scale corpus: run in release mode"]
fn ingest_3000_paper_corpus_keeps_rows_holders_and_charges() {
    let got = fingerprint(3_000, WorkloadConfig::paper_scale(CORPUS_SEED));
    assert_eq!(
        got, FINGERPRINT_3000_PAPER,
        "ingest fingerprint moved: {got:#018x}"
    );
}
