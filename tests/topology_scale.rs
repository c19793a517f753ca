//! Scale and stream-neutrality checks of the P-Grid topology build.
//!
//! The routing build and the responsible-peer lookup read the replica
//! groups through prefix ranges of the ordered path map. They must draw
//! exactly the routing tables the filter-over-all-groups build drew, so a
//! seeded deployment keeps every routing reference and every key owner:
//! the fingerprints below pin both at the paper's 340-peer deployment and
//! at 3,000 peers (the scale-ingest deployment). The ignored 10⁴-peer case
//! runs in release mode:
//! `cargo test --release --test topology_scale -- --include-ignored`.

use gridvine_core::{GridVineConfig, GridVineSystem, PlacementPolicy};
use gridvine_netsim::LatencyConfig;
use gridvine_pgrid::{BitString, PeerId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SYSTEM_SEED: u64 = 7;

/// A WAN deployment with factor-3 placement of every key.
fn deployment(peers: usize) -> GridVineSystem {
    GridVineSystem::new(GridVineConfig {
        peers,
        latency: LatencyConfig::planetlab_2007(),
        placement: PlacementPolicy::new().replicate("", 3),
        seed: SYSTEM_SEED,
        ..GridVineConfig::default()
    })
}

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn peers(&mut self, peers: &[PeerId]) {
        self.word(peers.len() as u64);
        for p in peers {
            self.word(u64::from(p.0));
        }
    }
}

/// Hash of every peer's routing references and of the replica holders of
/// 200 fixed lexicals.
fn fingerprint(sys: &GridVineSystem) -> u64 {
    let mut h = Fnv::new();
    let topo = sys.topology();
    for i in 0..topo.len() {
        let view = topo.view(PeerId::from_index(i));
        h.word(view.refs.len() as u64);
        for level in &view.refs {
            h.peers(level);
        }
    }
    for i in 0..200 {
        let lexical = match i % 4 {
            0 => format!("seq:R{i}"),
            1 => format!("S{}#a{i}", i % 7),
            2 => format!("Aspergillus strain {i}"),
            _ => format!("http://example.org/item/{i}"),
        };
        h.peers(&sys.replica_holders(&lexical));
    }
    h.0
}

/// `Topology::responsible` against a linear scan over all groups, on
/// seeded keys of every length up to `max_len` bits.
fn assert_responsible_agrees(topo: &Topology, keys: usize, max_len: usize) {
    let mut rng = StdRng::seed_from_u64(0x7E57);
    for _ in 0..keys {
        let len = rng.gen_range(0..=max_len);
        let key = BitString::from_u64(rng.gen::<u64>(), len);
        let scanned = topo
            .groups()
            .find(|(p, _)| p.is_prefix_of(&key))
            .map(|(_, g)| g)
            .unwrap_or(&[]);
        assert_eq!(topo.responsible(&key), scanned, "key {key}");
    }
}

// Both constants were computed on the filter-over-all-groups build, before
// the topology moved to prefix ranges; a change here is a change of the
// system RNG stream.
const FINGERPRINT_340: u64 = 0x59f9_b8ee_ddbc_1e3d;
const FINGERPRINT_3000: u64 = 0x9d68_2937_36d1_7d45;

#[test]
fn deployment_340_keeps_routing_and_owners() {
    let sys = deployment(340);
    assert_eq!(fingerprint(&sys), FINGERPRINT_340);
}

#[test]
fn deployment_3000_keeps_routing_and_owners() {
    let sys = deployment(3_000);
    assert_eq!(fingerprint(&sys), FINGERPRINT_3000);
    assert_responsible_agrees(sys.topology(), 10_000, 20);
}

#[test]
#[ignore = "10⁴ peers: run in release mode"]
fn deployment_10k_builds_valid_and_compact() {
    let refs_per_level = GridVineConfig::default().refs_per_level;
    let sys = deployment(10_000);
    let topo = sys.topology();
    topo.validate().expect("valid topology");
    assert_responsible_agrees(topo, 10_000, 24);
    for i in 0..topo.len() {
        for level in topo.refs(PeerId::from_index(i)) {
            assert!(level.capacity() <= refs_per_level);
        }
    }
}
