//! The logical P-Grid trie: peer paths, replica sets and routing tables.
//!
//! A [`Topology`] is the global view of a constructed P-Grid network —
//! which peer owns which path π(p), who replicates whom (σ(p)), and which
//! routing references each peer holds at each level of its path. Real
//! peers only ever see their own slice ([`Topology::view`]); the global
//! object exists so tests and experiments can validate invariants and
//! compute ground truth.
//!
//! Invariants (checked by [`Topology::validate`]):
//!
//! * every peer has a path; the set of **distinct** paths is prefix-free
//!   (no path is a proper prefix of another), and
//! * the distinct paths cover the whole key space: Σ 2^(−|π|) = 1, so
//!   every key has exactly one responsible path;
//! * every replica set contains every peer with that path;
//! * a routing reference of peer `p` at level `l` points to a peer whose
//!   path agrees with π(p) on the first `l` bits and differs at bit `l`.
//!
//! Both hot operations read the replica groups from one ordered map keyed
//! by path, whose lexicographic order makes every trie region a
//! contiguous run: [`Topology::responsible`] is a single O(log G) descent
//! over the G distinct paths, and [`Topology::rebuild_routing`] collects
//! each (peer, level) candidate pool from the sibling region's run instead
//! of filtering all groups. The pools keep the order of the full filter,
//! so a seeded build draws exactly the same routing tables.

use crate::bits::BitString;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Logical peer identifier; dense, convertible to a `netsim` node index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PeerId(pub u32);

impl PeerId {
    #[inline]
    pub fn from_index(i: usize) -> PeerId {
        PeerId(u32::try_from(i).expect("peer index fits in u32"))
    }

    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Errors detected by [`Topology::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Two distinct paths where one is a prefix of the other.
    PrefixOverlap {
        shorter: BitString,
        longer: BitString,
    },
    /// The distinct paths do not cover the key space.
    IncompleteCoverage {
        covered_fraction_num: u64,
        covered_fraction_den: u64,
    },
    /// A routing reference violates the level agreement rule.
    BadReference {
        peer: PeerId,
        level: usize,
        target: PeerId,
    },
    /// A replica set disagrees with path equality.
    BadReplicaSet { peer: PeerId },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::PrefixOverlap { shorter, longer } => {
                write!(f, "path {shorter} is a prefix of path {longer}")
            }
            TopologyError::IncompleteCoverage {
                covered_fraction_num,
                covered_fraction_den,
            } => write!(
                f,
                "paths cover {covered_fraction_num}/{covered_fraction_den} of the key space"
            ),
            TopologyError::BadReference {
                peer,
                level,
                target,
            } => {
                write!(
                    f,
                    "peer {peer} level-{level} reference to {target} is invalid"
                )
            }
            TopologyError::BadReplicaSet { peer } => {
                write!(f, "replica set of {peer} is inconsistent")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A peer's private view of the overlay: its path, replicas and routing
/// references — everything the routing algorithm may legally consult.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeerView {
    pub id: PeerId,
    pub path: BitString,
    /// σ(p): other peers with the same path.
    pub replicas: Vec<PeerId>,
    /// `refs[l]`: peers on the other side of the tree at level `l`
    /// (their paths agree with ours on `l` bits and differ at bit `l`).
    pub refs: Vec<Vec<PeerId>>,
}

impl PeerView {
    /// Whether this peer is responsible for `key`.
    pub fn is_responsible(&self, key: &BitString) -> bool {
        self.path.is_prefix_of(key)
    }

    /// Greedy prefix-routing decision for `key`: `None` when this peer is
    /// responsible, otherwise the candidate references to forward to.
    pub fn forwarding_level(&self, key: &BitString) -> Option<usize> {
        if self.is_responsible(key) {
            return None;
        }
        Some(self.path.common_prefix_len(key))
    }

    /// Candidates for forwarding a message about `key`, or an empty slice
    /// when the routing table has a hole at the needed level.
    pub fn candidates(&self, key: &BitString) -> &[PeerId] {
        match self.forwarding_level(key) {
            None => &[],
            Some(l) => self.refs.get(l).map(Vec::as_slice).unwrap_or(&[]),
        }
    }
}

/// Global view of a constructed P-Grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    paths: Vec<BitString>,
    /// peers per distinct path, i.e. the replica sets keyed by path.
    groups: BTreeMap<BitString, Vec<PeerId>>,
    /// routing[peer][level] = referenced peers on the other side.
    routing: Vec<Vec<Vec<PeerId>>>,
}

impl Topology {
    /// Build a balanced P-Grid over `n` peers with paths of depth
    /// ⌊log₂ n⌋ and `refs_per_level` sampled references per level.
    ///
    /// With `n` not a power of two, the surplus peers become replicas,
    /// mirroring how a real P-Grid absorbs population growth.
    ///
    /// # Panics
    /// Panics if `n == 0` or `refs_per_level == 0`.
    pub fn balanced<R: Rng + ?Sized>(n: usize, refs_per_level: usize, rng: &mut R) -> Topology {
        assert!(n > 0, "need at least one peer");
        assert!(refs_per_level > 0, "need at least one reference per level");
        let depth = if n <= 1 { 0 } else { n.ilog2() as usize };
        let leaves = 1usize << depth;
        let paths: Vec<BitString> = (0..n)
            .map(|i| BitString::from_u64((i % leaves) as u64, depth))
            .collect();
        Topology::from_paths(paths, refs_per_level, rng)
    }

    /// Build from explicit per-peer paths (used by the construction
    /// algorithm and by data-adapted topologies).
    pub fn from_paths<R: Rng + ?Sized>(
        paths: Vec<BitString>,
        refs_per_level: usize,
        rng: &mut R,
    ) -> Topology {
        let mut groups: BTreeMap<BitString, Vec<PeerId>> = BTreeMap::new();
        for (i, p) in paths.iter().enumerate() {
            groups
                .entry(p.clone())
                .or_default()
                .push(PeerId::from_index(i));
        }
        let mut topo = Topology {
            paths,
            groups,
            routing: Vec::new(),
        };
        topo.rebuild_routing(refs_per_level, rng);
        topo
    }

    /// Build a data-adapted (possibly unbalanced) trie: split any region
    /// holding more than `max_load` of the given keys, then spread the
    /// `n` peers over the resulting leaf regions proportionally to load.
    /// This models P-Grid's storage load balancing (§2 "index
    /// load-balancing").
    pub fn adapted<R: Rng + ?Sized>(
        keys: &[BitString],
        n: usize,
        max_load: usize,
        max_depth: usize,
        refs_per_level: usize,
        rng: &mut R,
    ) -> Topology {
        assert!(n > 0 && max_load > 0);
        // Recursively split the key space on load.
        let mut leaves: Vec<(BitString, usize)> = Vec::new();
        let mut stack = vec![BitString::empty()];
        while let Some(region) = stack.pop() {
            let load = keys.iter().filter(|k| region.is_prefix_of(k)).count();
            if load > max_load && region.len() < max_depth {
                stack.push(region.child(false));
                stack.push(region.child(true));
            } else {
                leaves.push((region, load));
            }
        }
        leaves.sort_by(|a, b| a.0.cmp(&b.0));
        // Assign peers to leaves proportionally to load (every leaf gets
        // at least one peer so coverage stays complete).
        let total_load: usize = leaves.iter().map(|(_, l)| l.max(&1)).sum();
        let mut assignment: Vec<BitString> = Vec::with_capacity(n);
        let mut counts: Vec<usize> = leaves
            .iter()
            .map(|(_, l)| ((*l).max(1) * n / total_load).max(1))
            .collect();
        // Adjust rounding drift.
        while counts.iter().sum::<usize>() > n.max(leaves.len()) {
            let i = counts
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| **c)
                .map(|(i, _)| i)
                .expect("non-empty");
            if counts[i] > 1 {
                counts[i] -= 1;
            } else {
                break;
            }
        }
        while counts.iter().sum::<usize>() < n {
            let i = counts
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| **c)
                .map(|(i, _)| i)
                .expect("non-empty");
            counts[i] += 1;
        }
        for ((path, _), c) in leaves.iter().zip(&counts) {
            for _ in 0..*c {
                assignment.push(path.clone());
            }
        }
        assignment.truncate(n.max(leaves.len()));
        Topology::from_paths(assignment, refs_per_level, rng)
    }

    /// Build from explicit paths *and* explicit routing tables, as
    /// produced by the decentralized construction in [`crate::construct`].
    /// Illegal references (wrong side, wrong level) are dropped rather
    /// than trusted.
    pub fn from_paths_and_routing(
        paths: Vec<BitString>,
        routing: Vec<Vec<Vec<PeerId>>>,
    ) -> Topology {
        assert_eq!(paths.len(), routing.len(), "one routing table per peer");
        let mut groups: BTreeMap<BitString, Vec<PeerId>> = BTreeMap::new();
        for (i, p) in paths.iter().enumerate() {
            groups
                .entry(p.clone())
                .or_default()
                .push(PeerId::from_index(i));
        }
        let mut sanitized = Vec::with_capacity(routing.len());
        for (i, levels) in routing.into_iter().enumerate() {
            let path = &paths[i];
            let mut clean: Vec<Vec<PeerId>> = vec![Vec::new(); path.len()];
            for (l, refs) in levels.into_iter().enumerate().take(path.len()) {
                let sib = path.sibling_at(l);
                for r in refs {
                    let tp = &paths[r.index()];
                    if (sib.is_prefix_of(tp) || tp.is_prefix_of(&sib)) && !clean[l].contains(&r) {
                        clean[l].push(r);
                    }
                }
            }
            sanitized.push(clean);
        }
        Topology {
            paths,
            groups,
            routing: sanitized,
        }
    }

    /// Re-sample all routing tables with `refs_per_level` entries per
    /// level.
    ///
    /// The pool of peer `p` at level `l` is every group whose path
    /// extends — or is a prefix of — the sibling region `π(p)[..l]·¬π(p)[l]`,
    /// in path order, each group's peers in peer order. It is read off the
    /// ordered group map: the groups on prefixes of π(p) no longer than
    /// `l` (there are none in a prefix-free topology; they sort before the
    /// sibling) followed by the contiguous `range(sibling..)` run of
    /// extensions.
    /// That is the same pool, in the same order, as filtering every group,
    /// so the one full `shuffle` per (peer, level) draws exactly what it
    /// always drew and every seeded run keeps its routing tables and RNG
    /// stream. The shuffle is kept deliberately: sampling only
    /// `refs_per_level` entries would be cheaper but re-draws every table
    /// and all key placement downstream, a versioned stream change.
    ///
    /// Cost per peer: O(|π|·log G) map lookups plus filling and shuffling
    /// the pools (about N entries over all levels of a balanced trie),
    /// instead of a filter over all G groups at each of the |π| levels.
    /// Each level is stored at its exact length, so no pool capacity
    /// outlives the build.
    pub fn rebuild_routing<R: Rng + ?Sized>(&mut self, refs_per_level: usize, rng: &mut R) {
        let groups = &self.groups;
        let mut pool: Vec<PeerId> = Vec::new();
        let mut ancestors: Vec<(usize, &[PeerId])> = Vec::new();
        let routing = self
            .paths
            .iter()
            .map(|path| {
                // The sibling at level `l` shares its first `l` bits with
                // `path`, so its proper prefixes are the prefixes of
                // `path` no longer than `l`.
                ancestors.clear();
                ancestors.extend(
                    (0..path.len())
                        .filter_map(|k| groups.get(&path.prefix(k)).map(|g| (k, g.as_slice()))),
                );
                (0..path.len())
                    .map(|l| {
                        let sibling = path.sibling_at(l);
                        pool.clear();
                        for (_, peers) in ancestors.iter().take_while(|(k, _)| *k <= l) {
                            pool.extend_from_slice(peers);
                        }
                        for (_, peers) in groups
                            .range(&sibling..)
                            .take_while(|(p, _)| sibling.is_prefix_of(p))
                        {
                            pool.extend_from_slice(peers);
                        }
                        pool.shuffle(rng);
                        pool[..refs_per_level.min(pool.len())].to_vec()
                    })
                    .collect()
            })
            .collect();
        self.routing = routing;
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Path of a peer.
    pub fn path(&self, peer: PeerId) -> &BitString {
        &self.paths[peer.index()]
    }

    /// Maximum path depth in the network (|Π| in the paper's O(log |Π|)).
    pub fn depth(&self) -> usize {
        self.paths.iter().map(BitString::len).max().unwrap_or(0)
    }

    /// Distinct paths with their replica groups.
    pub fn groups(&self) -> impl Iterator<Item = (&BitString, &[PeerId])> {
        self.groups.iter().map(|(p, g)| (p, g.as_slice()))
    }

    /// All peers responsible for `key` (the replica set of the covering
    /// path); empty only if coverage is incomplete.
    ///
    /// One O(log G) map descent: in a prefix-free path set, the covering
    /// path — a prefix of `key`, so ordered at or before it — is the
    /// greatest path `<= key`, since any path ordered between the two
    /// would have to extend it. Topologies that fail
    /// [`validate`](Topology::validate) get no guarantee.
    pub fn responsible(&self, key: &BitString) -> &[PeerId] {
        self.groups
            .range(..=key)
            .next_back()
            .filter(|(p, _)| p.is_prefix_of(key))
            .map(|(_, g)| g.as_slice())
            .unwrap_or(&[])
    }

    /// A peer's private view (path + replicas + routing refs).
    pub fn view(&self, peer: PeerId) -> PeerView {
        let path = self.paths[peer.index()].clone();
        let replicas = self
            .groups
            .get(&path)
            .map(|g| g.iter().copied().filter(|p| *p != peer).collect())
            .unwrap_or_default();
        PeerView {
            id: peer,
            path,
            replicas,
            refs: self.refs(peer).to_vec(),
        }
    }

    /// A peer's routing table: `refs(p)[l]` are its level-`l` references.
    pub fn refs(&self, peer: PeerId) -> &[Vec<PeerId>] {
        &self.routing[peer.index()]
    }

    /// Check all structural invariants.
    pub fn validate(&self) -> Result<(), TopologyError> {
        // Prefix-freeness of distinct paths. The extensions of a path form
        // a contiguous run right after it in path order, so a path that
        // prefixes any other prefixes its immediate successor.
        let distinct: Vec<&BitString> = self.groups.keys().collect();
        for pair in distinct.windows(2) {
            if pair[0].is_prefix_of(pair[1]) {
                return Err(TopologyError::PrefixOverlap {
                    shorter: pair[0].clone(),
                    longer: pair[1].clone(),
                });
            }
        }
        // Coverage: Σ 2^(depth - |π|) over distinct paths must be 2^depth.
        let depth = self.depth();
        if depth <= 63 {
            let den: u64 = 1u64 << depth;
            let num: u64 = distinct.iter().map(|p| 1u64 << (depth - p.len())).sum();
            if num != den {
                return Err(TopologyError::IncompleteCoverage {
                    covered_fraction_num: num,
                    covered_fraction_den: den,
                });
            }
        }
        // Routing reference legality.
        for (i, levels) in self.routing.iter().enumerate() {
            let peer = PeerId::from_index(i);
            let path = &self.paths[i];
            for (l, refs) in levels.iter().enumerate() {
                for target in refs {
                    let tp = &self.paths[target.index()];
                    let sib = path.sibling_at(l);
                    if !(sib.is_prefix_of(tp) || tp.is_prefix_of(&sib)) {
                        return Err(TopologyError::BadReference {
                            peer,
                            level: l,
                            target: *target,
                        });
                    }
                }
            }
        }
        // Replica sets.
        for (path, group) in &self.groups {
            for p in group {
                if &self.paths[p.index()] != path {
                    return Err(TopologyError::BadReplicaSet { peer: *p });
                }
            }
        }
        Ok(())
    }
}

/// The straightforward forms of the two indexed operations: the prefix
/// range build and lookup must agree with these exactly.
#[cfg(test)]
mod reference {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Routing build by filtering every group for every (peer, level).
    pub fn rebuild_routing<R: Rng + ?Sized>(t: &mut Topology, refs_per_level: usize, rng: &mut R) {
        let mut routing = Vec::with_capacity(t.paths.len());
        for path in &t.paths {
            let mut levels = Vec::with_capacity(path.len());
            for l in 0..path.len() {
                let sibling = path.sibling_at(l);
                let mut pool: Vec<PeerId> = t
                    .groups
                    .iter()
                    .filter(|(p, _)| sibling.is_prefix_of(p) || p.is_prefix_of(&sibling))
                    .flat_map(|(_, peers)| peers.iter().copied())
                    .collect();
                pool.shuffle(rng);
                pool.truncate(refs_per_level);
                levels.push(pool);
            }
            routing.push(levels);
        }
        t.routing = routing;
    }

    /// Responsible group by a linear scan over all groups.
    pub fn responsible<'a>(t: &'a Topology, key: &BitString) -> &'a [PeerId] {
        t.groups
            .iter()
            .find(|(p, _)| p.is_prefix_of(key))
            .map(|(_, g)| g.as_slice())
            .unwrap_or(&[])
    }

    /// Rebuild `t`'s routing with the indexed build and with the
    /// filter-all reference from the same seed: the tables and the next
    /// draw must agree. On a prefix-free topology every key must also get
    /// the reference's responsible group.
    pub fn check(t: &Topology, refs_per_level: usize, seed: u64, keys: &[BitString]) {
        let mut fast = t.clone();
        let mut slow = t.clone();
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        fast.rebuild_routing(refs_per_level, &mut r1);
        rebuild_routing(&mut slow, refs_per_level, &mut r2);
        assert_eq!(&fast.routing, &slow.routing);
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        if !matches!(t.validate(), Err(TopologyError::PrefixOverlap { .. })) {
            for key in keys {
                assert_eq!(fast.responsible(key), responsible(&fast, key));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn balanced_power_of_two_has_one_peer_per_leaf() {
        let t = Topology::balanced(8, 2, &mut rng());
        assert_eq!(t.len(), 8);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.groups().count(), 8);
        t.validate().expect("valid topology");
    }

    #[test]
    fn balanced_non_power_of_two_creates_replicas() {
        let t = Topology::balanced(11, 2, &mut rng());
        assert_eq!(t.len(), 11);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.groups().count(), 8);
        let replicated: usize = t.groups().filter(|(_, g)| g.len() > 1).count();
        assert_eq!(replicated, 3);
        t.validate().expect("valid topology");
    }

    #[test]
    fn single_peer_owns_everything() {
        let t = Topology::balanced(1, 1, &mut rng());
        assert_eq!(t.depth(), 0);
        let key = BitString::parse("010101");
        assert_eq!(t.responsible(&key), &[PeerId(0)]);
        t.validate().expect("valid topology");
    }

    #[test]
    fn responsible_matches_prefix() {
        let t = Topology::balanced(16, 2, &mut rng());
        let key = BitString::parse("01100110");
        let peers = t.responsible(&key);
        assert!(!peers.is_empty());
        for p in peers {
            assert!(t.path(*p).is_prefix_of(&key));
        }
    }

    #[test]
    fn views_have_legal_references() {
        let t = Topology::balanced(32, 3, &mut rng());
        for i in 0..32 {
            let v = t.view(PeerId::from_index(i));
            assert_eq!(v.refs.len(), v.path.len());
            for (l, refs) in v.refs.iter().enumerate() {
                assert!(!refs.is_empty(), "level {l} of peer {i} is empty");
                for r in refs {
                    let tp = t.path(*r);
                    assert_eq!(v.path.common_prefix_len(tp), l);
                }
            }
        }
    }

    #[test]
    fn view_replicas_exclude_self() {
        let t = Topology::balanced(12, 2, &mut rng());
        for i in 0..12 {
            let v = t.view(PeerId::from_index(i));
            assert!(!v.replicas.contains(&v.id));
        }
    }

    #[test]
    fn candidates_empty_when_responsible() {
        let t = Topology::balanced(8, 2, &mut rng());
        let v = t.view(PeerId(0));
        let mut own_key = v.path.clone();
        own_key.push(true);
        assert!(v.is_responsible(&own_key));
        assert!(v.candidates(&own_key).is_empty());
        assert_eq!(v.forwarding_level(&own_key), None);
    }

    #[test]
    fn adapted_splits_hot_regions() {
        // 90 % of keys start with 1, spread uniformly within each side:
        // the 1-side should need deeper splits.
        let mut keys = Vec::new();
        for i in 0..900u64 {
            keys.push(BitString::from_u64((1 << 15) | ((i * 36) & 0x7FFF), 16));
        }
        for i in 0..100u64 {
            keys.push(BitString::from_u64((i * 327) & 0x7FFF, 16));
        }
        let t = Topology::adapted(&keys, 64, 50, 12, 2, &mut rng());
        t.validate().expect("valid adapted topology");
        let depth_of = |prefix: &str| {
            t.groups()
                .filter(|(p, _)| BitString::parse(prefix).is_prefix_of(p))
                .map(|(p, _)| p.len())
                .max()
                .unwrap_or(0)
        };
        assert!(
            depth_of("1") > depth_of("0"),
            "hot side should split deeper: {} vs {}",
            depth_of("1"),
            depth_of("0")
        );
    }

    #[test]
    fn validate_catches_prefix_overlap() {
        let paths = vec![BitString::parse("0"), BitString::parse("01")];
        let t = Topology::from_paths(paths, 1, &mut rng());
        assert!(matches!(
            t.validate(),
            Err(TopologyError::PrefixOverlap { .. })
        ));
    }

    #[test]
    fn routing_lists_hold_no_surplus_capacity() {
        let t = Topology::balanced(3000, 2, &mut rng());
        for levels in &t.routing {
            for refs in levels {
                assert!(refs.capacity() <= 2, "capacity {}", refs.capacity());
            }
        }
    }

    #[test]
    fn single_peer_matches_reference() {
        let t = Topology::balanced(1, 2, &mut rng());
        let keys = ["", "0", "1011"].map(BitString::parse);
        reference::check(&t, 2, 42, &keys);
    }

    #[test]
    fn validate_catches_incomplete_coverage() {
        let paths = vec![BitString::parse("00"), BitString::parse("01")];
        let t = Topology::from_paths(paths, 1, &mut rng());
        assert!(matches!(
            t.validate(),
            Err(TopologyError::IncompleteCoverage { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// Bit strings from `(value, len)` pairs.
    fn bit_strings(raw: &[(u64, usize)]) -> Vec<BitString> {
        raw.iter()
            .map(|&(v, len)| BitString::from_u64(v, len))
            .collect()
    }

    proptest! {
        /// Balanced topologies of any size validate and give every key a
        /// responsible replica group.
        #[test]
        fn balanced_always_valid(n in 1usize..200, seed in 0u64..50, key_bits in "[01]{20}") {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let t = Topology::balanced(n, 2, &mut rng);
            prop_assert!(t.validate().is_ok());
            let key = BitString::parse(&key_bits);
            prop_assert!(!t.responsible(&key).is_empty());
        }

        /// Every peer is in the replica group of its own path.
        #[test]
        fn groups_partition_peers(n in 1usize..100, seed in 0u64..20) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let t = Topology::balanced(n, 2, &mut rng);
            let total: usize = t.groups().map(|(_, g)| g.len()).sum();
            prop_assert_eq!(total, n);
        }
    }

    proptest! {
        // The references cost O(N·|π|·G) per build: few, large cases.
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Balanced tries of every size: the indexed routing build and
        /// lookup agree with the references, keys of every length
        /// (shorter than the paths included).
        #[test]
        fn balanced_matches_reference(
            n in 1usize..600,
            refs in 1usize..4,
            seed in any::<u64>(),
            keys in proptest::collection::vec((any::<u64>(), 0usize..14), 1..40),
        ) {
            let t = Topology::balanced(n, refs, &mut rand::rngs::StdRng::seed_from_u64(seed));
            reference::check(&t, refs, seed ^ 1, &bit_strings(&keys));
        }

        /// Data-adapted (unbalanced) tries agree with the references.
        #[test]
        fn adapted_matches_reference(
            data in proptest::collection::vec(any::<u64>(), 1..300),
            n in 1usize..200,
            max_load in 1usize..40,
            max_depth in 1usize..12,
            seed in any::<u64>(),
            keys in proptest::collection::vec((any::<u64>(), 0usize..16), 1..40),
        ) {
            let data: Vec<BitString> = data.iter().map(|&v| BitString::from_u64(v, 16)).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let t = Topology::adapted(&data, n, max_load, max_depth, 2, &mut rng);
            reference::check(&t, 2, seed ^ 1, &bit_strings(&keys));
        }

        /// Arbitrary path sets — overlapping ones included, where groups
        /// on proper prefixes of a peer's path join its pools — build the
        /// reference's tables; the prefix-free ones (complete or not)
        /// also resolve every key alike.
        #[test]
        fn arbitrary_paths_match_reference(
            paths in proptest::collection::vec((any::<u64>(), 0usize..6), 1..40),
            refs in 1usize..4,
            seed in any::<u64>(),
            keys in proptest::collection::vec((any::<u64>(), 0usize..8), 1..40),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let t = Topology::from_paths(bit_strings(&paths), refs, &mut rng);
            reference::check(&t, refs, seed ^ 1, &bit_strings(&keys));
        }
    }
}
