//! Policy-driven replica placement, heat migration and crash failover.
//!
//! The paper's P-Grid substrate stores each triple at exactly the σ(p)
//! owner group of its key, so failure injection on an owner turns every
//! query touching that key into a *recorded failure* — degraded rows,
//! not degraded latency. This module makes replication a first-class,
//! policy-driven mechanism layered over the PR 5–8 machinery: extra
//! replicas are provisioned per placement rule, reads pick the
//! lowest-expected-latency live holder, the timeout–retry protocol
//! fails over past dead holders before resolving
//! [`PeerDown`](super::SystemError::PeerDown), and windowed heat
//! telemetry migrates replicas toward hot origins.
//!
//! ## Lifecycle: policy → registry → routing → failover
//!
//! ```text
//!  PlacementPolicy (GridVineConfig::placement, serde; null = exactly-
//!        │          owner placement, bit-identical to PR 8)
//!        │ rule matches a lexical at insert time
//!        ▼
//!  replica registry ──commit_replica──► extra holders beyond σ(key)
//!        │   (atomic multi-peer copy in the commit_mapping_copies
//!        │    style: written copies roll back when the armed
//!        │    commit-crash hook downs the target mid-commit; inserts
//!        │    fan out to every registered extra the same way)
//!        │ a unit resolves a pattern whose routed lexical matches
//!        ▼
//!  replica-aware issue: rank σ(key) ∪ extras by the latency model's
//!        │  deterministic expected(origin, holder), ties by peer
//!        │  index; direct exchange with the best holder (no DHT walk,
//!        │  no routing-RNG draw)
//!        │
//!        ├──request answered──► replica_hits += 1, rows served
//!        │
//!        └──holder crashed / retries exhausted──► failovers += 1,
//!              next-ranked holder tried; only when every holder is
//!              down does the unit resolve PeerDown
//! ```
//!
//! ## Heat telemetry
//!
//! Every replica-path access bumps a windowed per-key counter on the
//! serving unit's clock (`Unit::now`).
//! Reaching [`PlacementPolicy::heat_threshold`] accesses within one
//! [`PlacementPolicy::heat_window`] raises a [`HeatSpike`], handled
//! inline in the serving unit so its copies are charged as that unit's
//! overlay messages and latency:
//!
//! * service already within the rule's `latency_target` → [`SpikeAction::Hold`];
//! * holders below the growth cap → a new replica is committed on the
//!   cheapest live non-holder ([`SpikeAction::Replicate`]);
//! * at the cap → the worst-placed extra migrates to the cheaper peer
//!   ([`SpikeAction::Migrate`]) — σ owners never move, so prefix scans
//!   and null-policy routing always find the natural copies.
//!
//! `replica_hits` / `failovers` / `migrations` are charged into the
//! serving unit's ledger (`sched::Unit`) where they happen, so they
//! join that unit's [`ExecStats`](super::exec::ExecStats) delta like
//! every other cost, and surface as lifetime
//! [`gridvine_netsim::ReplicaCounters`] via
//! [`GridVineSystem::replica_counters`].
//!
//! Insert-time provisioning runs outside any unit: it judges candidate
//! liveness at the inserting origin's own clock, so an insert never
//! depends on which sessions other origins happened to run before it.
//!
//! ## Determinism
//!
//! A null policy (no rules) takes none of these paths: no registry
//! entries, no heat tracking, no extra RNG draws — rows, stats and the
//! routing RNG stream are bit-identical to the PR-8 scheduler (pinned
//! by proptest for windows 1 and 4). An active policy consumes *no*
//! main-stream randomness either: candidate ranking uses the latency
//! model's deterministic [`expected`](gridvine_netsim::LatencyModel::expected)
//! and expected-latency scores are computed for **every** candidate
//! before liveness is probed, so the model's placement stream advances
//! identically in faulty and fault-free runs. Provisioning from a live
//! non-holder origin skips the candidate scan but places the same
//! model nodes (see `best_new_holder`).

use super::sched::Unit;
use super::{GridVineSystem, SystemError};
use gridvine_netsim::{NodeId, ReplicaCounters, SimDuration, SimTime};
use gridvine_pgrid::{BitString, PeerId};
use gridvine_rdf::Triple;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Heat window used when a policy enables heat telemetry without
/// picking one.
pub const DEFAULT_HEAT_WINDOW: SimDuration = SimDuration::from_millis(50);

/// One placement rule: every key whose routed lexical starts with
/// `prefix` (a predicate URI, a schema name, or any key-prefix) is
/// held by `factor` peers — the natural σ(key) owners plus committed
/// extras.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementRule {
    /// Lexical prefix the rule covers (first matching rule wins).
    pub prefix: String,
    /// Desired number of live holders of a matching key. Factors at or
    /// below the natural σ-group size provision nothing up front but
    /// still enable replica-aware routing and heat migration.
    pub factor: usize,
    /// Expected one-way latency target: a heat spike whose best live
    /// holder already serves within the target holds placement steady
    /// instead of replicating or migrating. `None` chases every spike.
    #[serde(default)]
    pub latency_target: Option<SimDuration>,
}

impl PlacementRule {
    pub fn new(prefix: impl Into<String>, factor: usize) -> PlacementRule {
        PlacementRule {
            prefix: prefix.into(),
            factor,
            latency_target: None,
        }
    }

    /// Set the rule's expected-latency target.
    pub fn latency_target(mut self, target: SimDuration) -> PlacementRule {
        self.latency_target = Some(target);
        self
    }
}

/// The per-key-prefix replication policy
/// ([`GridVineConfig::placement`](super::GridVineConfig)). The default
/// is the **null policy**: no rules, exactly-owner placement,
/// bit-identical to the placement-free scheduler.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementPolicy {
    /// Rules in priority order: the first whose prefix matches a
    /// routed lexical governs that key.
    #[serde(default)]
    pub rules: Vec<PlacementRule>,
    /// Replica-path accesses to one key within one window that raise a
    /// [`HeatSpike`]. Zero (the default) disables heat telemetry.
    #[serde(default)]
    pub heat_threshold: usize,
    /// Width of the per-key access window on the protocol clock
    /// (`None` → [`DEFAULT_HEAT_WINDOW`]).
    #[serde(default)]
    pub heat_window: Option<SimDuration>,
}

impl PlacementPolicy {
    pub fn new() -> PlacementPolicy {
        PlacementPolicy::default()
    }

    /// Append a rule replicating `prefix`-keyed lexicals to `factor`
    /// holders.
    pub fn replicate(mut self, prefix: impl Into<String>, factor: usize) -> PlacementPolicy {
        self.rules.push(PlacementRule::new(prefix, factor));
        self
    }

    /// Enable heat telemetry: `threshold` accesses within `window`
    /// raise a spike.
    pub fn heat(mut self, threshold: usize, window: SimDuration) -> PlacementPolicy {
        self.heat_threshold = threshold;
        self.heat_window = Some(window);
        self
    }

    /// The null policy places every key at exactly its owners.
    pub fn is_null(&self) -> bool {
        self.rules.is_empty()
    }

    /// First rule covering `lexical`, if any.
    pub fn rule_for(&self, lexical: &str) -> Option<&PlacementRule> {
        self.rules.iter().find(|r| lexical.starts_with(&r.prefix))
    }

    fn window(&self) -> SimDuration {
        self.heat_window.unwrap_or(DEFAULT_HEAT_WINDOW)
    }
}

/// What one heat spike did (see [`GridVineSystem::heat_spikes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpikeAction {
    /// A new replica was committed on this peer.
    Replicate(PeerId),
    /// The worst-placed extra moved to a cheaper peer.
    Migrate { from: PeerId, to: PeerId },
    /// Placement held steady: service already within the latency
    /// target, no cheaper live peer exists, or the commit failed and
    /// rolled back.
    Hold,
}

/// One detected heat spike: a key whose windowed access count reached
/// the policy threshold, and the placement change it triggered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatSpike {
    /// The routed lexical whose key went hot.
    pub lexical: String,
    /// The origin whose access tripped the threshold.
    pub origin: PeerId,
    /// Protocol-clock instant of the spike.
    pub at: SimTime,
    /// Accesses accumulated in the window.
    pub count: usize,
    /// What the spike triggered.
    pub action: SpikeAction,
}

#[derive(Debug)]
struct HeatWindow {
    since: SimTime,
    count: usize,
}

/// Runtime placement state: the configured policy, the replica
/// registry (extra holders per key, beyond the natural σ owners), the
/// heat windows and the spike log.
#[derive(Debug)]
pub(crate) struct PlacementState {
    pub(crate) policy: PlacementPolicy,
    /// Extra holders per exact key. Only fully-committed replicas are
    /// registered (a rolled-back commit leaves no entry), and σ owners
    /// never appear here.
    extras: BTreeMap<BitString, Vec<PeerId>>,
    heat: BTreeMap<BitString, HeatWindow>,
    spikes: Vec<HeatSpike>,
}

impl PlacementState {
    pub(crate) fn new(policy: PlacementPolicy) -> PlacementState {
        PlacementState {
            policy,
            extras: BTreeMap::new(),
            heat: BTreeMap::new(),
            spikes: Vec::new(),
        }
    }

    fn extras_for(&self, key: &BitString) -> &[PeerId] {
        self.extras.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    fn register_extra(&mut self, key: BitString, peer: PeerId) {
        let list = self.extras.entry(key).or_default();
        if !list.contains(&peer) {
            list.push(peer);
        }
    }

    fn retire_extra(&mut self, key: &BitString, peer: PeerId) {
        if let Some(list) = self.extras.get_mut(key) {
            list.retain(|&p| p != peer);
            if list.is_empty() {
                self.extras.remove(key);
            }
        }
    }

    /// Record one replica-path access at `now`; `Some(count)` when the
    /// windowed count reaches the policy threshold (the window resets).
    fn record_access(&mut self, key: &BitString, now: SimTime) -> Option<usize> {
        let threshold = self.policy.heat_threshold;
        if threshold == 0 {
            return None;
        }
        let window = self.policy.window();
        let w = self.heat.entry(key.clone()).or_insert(HeatWindow {
            since: now,
            count: 0,
        });
        if now.saturating_since(w.since) > window {
            w.since = now;
            w.count = 0;
        }
        w.count += 1;
        if w.count >= threshold {
            let count = w.count;
            w.since = now;
            w.count = 0;
            Some(count)
        } else {
            None
        }
    }
}

impl GridVineSystem {
    /// Replica-aware unit issue: when a placement rule covers
    /// `lexical`, serve from the lowest-expected-latency live holder of
    /// its key, failing over past dead holders (see the module docs).
    /// `None` when no rule covers the key — the caller takes the
    /// classic routed path, so the null policy touches nothing.
    pub(crate) fn replica_route(
        &mut self,
        unit: &mut Unit,
        origin: PeerId,
        lexical: &str,
    ) -> Option<Result<PeerId, SystemError>> {
        if self.place.policy.is_null() {
            return None;
        }
        let rule = self.place.policy.rule_for(lexical)?.clone();
        let key = self.key_of(lexical);
        if let Some(count) = self.place.record_access(&key, unit.now) {
            self.heat_spike(unit, origin, &key, lexical, count, &rule);
        }
        let holders = self.holders_of(&key);
        // Rank every holder before probing liveness: the latency
        // model's placement stream advances identically whether or not
        // any candidate is down.
        let mut ranked: Vec<(SimDuration, u32)> = holders
            .iter()
            .map(|&c| (self.expected_latency(origin, c), c.0))
            .collect();
        ranked.sort();
        let mut down = None;
        for &(_, c) in &ranked {
            let c = PeerId(c);
            match self.proto_request(unit, origin, c) {
                Ok(()) => {
                    // A direct request/response exchange with a known
                    // holder: no DHT walk, no routing-RNG draw.
                    self.overlay.charge_direct(origin, c, 2);
                    unit.stats.replica_hits += 1;
                    return Some(Ok(c));
                }
                Err(SystemError::PeerDown(p)) => {
                    // The unanswered request was still sent (and its
                    // retry backoffs accumulated in the unit's delay).
                    self.overlay.charge_direct(origin, c, 1);
                    unit.stats.failovers += 1;
                    down = Some(SystemError::PeerDown(p));
                }
                Err(e) => return Some(Err(e)),
            }
        }
        Some(Err(down.unwrap_or(SystemError::NotRoutable)))
    }

    /// Placement hook of [`GridVineSystem::insert_triple`]: for each of
    /// the triple's three keys covered by a rule, fan the new triple
    /// out to the registered extras and provision up to the rule's
    /// factor. No-op under the null policy.
    pub(crate) fn place_triple(
        &mut self,
        origin: PeerId,
        t: &Triple,
        keys: &[BitString; 3],
    ) -> Result<(), SystemError> {
        if self.place.policy.is_null() {
            return Ok(());
        }
        // Candidate liveness is judged at the inserting origin's clock.
        let at = self.exec_state(origin).clock;
        let lexicals = [t.subject.as_str(), t.predicate.as_str(), t.object.lexical()];
        for (key, lexical) in keys.iter().zip(lexicals) {
            let Some(rule) = self.place.policy.rule_for(lexical).cloned() else {
                continue;
            };
            self.fan_out_insert(origin, key, t)?;
            self.ensure_factor(origin, key, &rule, at)?;
        }
        Ok(())
    }

    /// Atomically fan one freshly-placed triple out to the registered
    /// extras of `key`, in the `commit_mapping_copies` style: a down
    /// extra (possibly downed mid-commit by the armed crash hook) rolls
    /// the already-written copies back and fails the insert, so the
    /// registry never points at a holder missing rows.
    fn fan_out_insert(
        &mut self,
        origin: PeerId,
        key: &BitString,
        t: &Triple,
    ) -> Result<(), SystemError> {
        let extras = self.place.extras_for(key).to_vec();
        let mut written: Vec<PeerId> = Vec::new();
        for x in extras {
            if !written.is_empty() {
                // Between the first and later replica writes: the
                // armed crash hook fires here.
                if let Some(victim) = self.commit_crash.take() {
                    self.crash_peer(victim);
                }
            }
            if self.crashed.contains(&x) {
                for w in written {
                    self.local_dbs[w.index()].remove(t);
                }
                return Err(SystemError::PeerDown(x));
            }
            self.local_dbs[x.index()].insert(t.clone());
            self.overlay.charge_direct(origin, x, 1);
            written.push(x);
        }
        Ok(())
    }

    /// Commit replicas until `key` has `rule.factor` holders (or no
    /// non-holder is live at `at`).
    fn ensure_factor(
        &mut self,
        origin: PeerId,
        key: &BitString,
        rule: &PlacementRule,
        at: SimTime,
    ) -> Result<(), SystemError> {
        loop {
            let holders = self.holders_of(key);
            if holders.len() >= rule.factor {
                return Ok(());
            }
            let Some((_, target)) = self.best_new_holder(origin, &holders, at) else {
                return Ok(());
            };
            self.commit_replica(origin, key, target)?;
        }
    }

    /// Copy the full matching set of `key` from its first σ owner to
    /// `target` and register the extra — atomically: a target downed
    /// mid-copy (the armed crash hook fires between items) rolls the
    /// copied rows back, and the registry is only written after the
    /// last row lands. Charges one registration message plus one per
    /// copied triple as direct exchanges.
    fn commit_replica(
        &mut self,
        origin: PeerId,
        key: &BitString,
        target: PeerId,
    ) -> Result<(), SystemError> {
        if self.crashed.contains(&target) {
            return Err(SystemError::PeerDown(target));
        }
        let src = self
            .topology
            .responsible(key)
            .first()
            .copied()
            .expect("every key has a responsible peer");
        let items = self.rows_under_key(src, key);
        let mut copied: Vec<Triple> = Vec::new();
        for t in items {
            if !copied.is_empty() {
                if let Some(victim) = self.commit_crash.take() {
                    self.crash_peer(victim);
                }
            }
            if self.crashed.contains(&target) {
                for c in &copied {
                    self.local_dbs[target.index()].remove(c);
                }
                return Err(SystemError::PeerDown(target));
            }
            self.local_dbs[target.index()].insert(t.clone());
            copied.push(t);
        }
        self.overlay
            .charge_direct(origin, target, 1 + copied.len() as u64);
        self.place.register_extra(key.clone(), target);
        Ok(())
    }

    /// Move the extra at `from` to `to`: commit the new copy first,
    /// then retire the old one (never a σ owner, so natural placement
    /// is untouched).
    fn migrate_replica(
        &mut self,
        origin: PeerId,
        key: &BitString,
        from: PeerId,
        to: PeerId,
    ) -> Result<(), SystemError> {
        self.commit_replica(origin, key, to)?;
        for t in &self.rows_under_key(from, key) {
            self.local_dbs[from.index()].remove(t);
        }
        self.overlay.charge_direct(origin, from, 1);
        self.place.retire_extra(key, from);
        Ok(())
    }

    /// The triples of `peer`'s `DB_p` indexed under `key` (one of their
    /// three keys is `key`), in the database's row order, so a copy
    /// keeps the source's scan order. Hashes each distinct term once
    /// instead of three keys per row.
    fn rows_under_key(&self, peer: PeerId, key: &BitString) -> Vec<Triple> {
        let ks = self.keyspace();
        self.local_dbs[peer.index()].rows_where_any_term(|lexical| ks.key_of(lexical) == *key)
    }

    /// Handle one heat spike inline in the serving unit (its copies
    /// charge as that unit's messages and latency).
    fn heat_spike(
        &mut self,
        unit: &mut Unit,
        origin: PeerId,
        key: &BitString,
        lexical: &str,
        count: usize,
        rule: &PlacementRule,
    ) {
        let at = unit.now;
        let owners = self.topology.responsible(key).len();
        let holders = self.holders_of(key);
        // Score every holder before filtering liveness so the latency
        // model's call sequence is identical in faulty and fault-free
        // runs.
        let mut best_current: Option<SimDuration> = None;
        for &c in &holders {
            let d = self.expected_latency(origin, c);
            if self.crashed.contains(&c) || self.churn_down_at(c, at) {
                continue;
            }
            if best_current.is_none_or(|b| d < b) {
                best_current = Some(d);
            }
        }
        let within_target = match (rule.latency_target, best_current) {
            (Some(target), Some(best)) => best <= target,
            _ => false,
        };
        let action = if within_target {
            SpikeAction::Hold
        } else {
            match self.best_new_holder(origin, &holders, at) {
                Some((d, to)) if best_current.is_none_or(|b| d < b) => {
                    // Allow at least one heat-driven extra even when the
                    // factor is within the natural σ-group size.
                    let cap = rule.factor.max(owners + 1);
                    if holders.len() < cap {
                        match self.commit_replica(origin, key, to) {
                            Ok(()) => {
                                unit.stats.migrations += 1;
                                SpikeAction::Replicate(to)
                            }
                            Err(_) => SpikeAction::Hold,
                        }
                    } else {
                        let worst_extra = self
                            .place
                            .extras_for(key)
                            .to_vec()
                            .into_iter()
                            .map(|x| (self.expected_latency(origin, x), x.0))
                            .max();
                        match worst_extra {
                            Some((_, from)) => {
                                let from = PeerId(from);
                                match self.migrate_replica(origin, key, from, to) {
                                    Ok(()) => {
                                        unit.stats.migrations += 1;
                                        SpikeAction::Migrate { from, to }
                                    }
                                    Err(_) => SpikeAction::Hold,
                                }
                            }
                            None => SpikeAction::Hold,
                        }
                    }
                }
                _ => SpikeAction::Hold,
            }
        };
        self.place.spikes.push(HeatSpike {
            lexical: lexical.to_string(),
            origin,
            at,
            count,
            action,
        });
    }

    /// The cheapest non-holder live at `at` from `origin`, ties broken
    /// by peer index.
    ///
    /// Fast path: the origin is at zero expected latency from itself
    /// and every other peer is strictly above zero (a model's zero
    /// falls back to the flat cost), so an origin that is a live
    /// non-holder is the unique minimum and is returned without
    /// scanning the other peers. Otherwise every peer is scanned.
    ///
    /// Model-placement contract: the scan asks the latency model for
    /// the expected latency to **every** non-holder other than the
    /// origin, before liveness filtering, so the model's stream does
    /// not depend on the crash/churn state. A placing model
    /// ([`RegionalWan`](gridvine_netsim::RegionalWan)) draws each
    /// node's slowdown once, in index order, on first sight; after the
    /// scan every node up to the highest non-holder has been placed.
    /// The fast path asks for that highest non-holder alone, which
    /// places exactly the same nodes at the same point of the stream.
    fn best_new_holder(
        &mut self,
        origin: PeerId,
        holders: &[PeerId],
        at: SimTime,
    ) -> Option<(SimDuration, PeerId)> {
        let origin_free = !holders.contains(&origin)
            && !self.crashed.contains(&origin)
            && !self.churn_down_at(origin, at);
        if origin_free {
            // Holders are a handful, so this walks down a few indexes.
            let last = (0..self.config.peers)
                .rev()
                .map(PeerId::from_index)
                .find(|p| *p != origin && !holders.contains(p));
            if let Some(last) = last {
                self.expected_latency(origin, last);
            }
            return Some((SimDuration::ZERO, origin));
        }
        let mut best: Option<(SimDuration, u32)> = None;
        for i in 0..self.config.peers {
            let p = PeerId::from_index(i);
            if holders.contains(&p) {
                continue;
            }
            let d = self.expected_latency(origin, p);
            if self.crashed.contains(&p) || self.churn_down_at(p, at) {
                continue;
            }
            if best.is_none_or(|b| (d, p.0) < b) {
                best = Some((d, p.0));
            }
        }
        best.map(|(d, p)| (d, PeerId(p)))
    }

    /// σ(key) ∪ registered extras, owners first.
    fn holders_of(&self, key: &BitString) -> Vec<PeerId> {
        let mut holders = self.topology.responsible(key).to_vec();
        for x in self.place.extras_for(key) {
            if !holders.contains(x) {
                holders.push(*x);
            }
        }
        holders
    }

    /// Deterministic expected one-way delay used to rank replica
    /// holders: zero to self, the flat per-message cost without a
    /// model, the model's [`expected`](gridvine_netsim::LatencyModel::expected)
    /// otherwise (an uninformative zero falls back to the flat cost so
    /// locality still wins ties).
    fn expected_latency(&mut self, from: PeerId, to: PeerId) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        match self.latency.as_deref_mut() {
            None => super::sched::PER_MESSAGE,
            Some(model) => {
                let d = model.expected(
                    NodeId::from_index(from.index()),
                    NodeId::from_index(to.index()),
                );
                if d == SimDuration::ZERO {
                    super::sched::PER_MESSAGE
                } else {
                    d
                }
            }
        }
    }

    /// Every peer currently holding copies of the key of `lexical`:
    /// the natural σ(key) owners plus the registered placement extras.
    pub fn replica_holders(&self, lexical: &str) -> Vec<PeerId> {
        self.holders_of(&self.key_of(lexical))
    }

    /// Chronological heat-spike log (see [`HeatSpike`]).
    pub fn heat_spikes(&self) -> &[HeatSpike] {
        &self.place.spikes
    }

    /// Lifetime replica-placement counters: replica-path serves,
    /// failovers past dead holders, heat-driven creations/migrations.
    pub fn replica_counters(&self) -> ReplicaCounters {
        let c = &self.totals;
        ReplicaCounters {
            replica_hits: c.replica_hits as u64,
            failovers: c.failovers as u64,
            migrations: c.migrations as u64,
        }
    }

    /// Compact every peer's local store in one pass — replica copies
    /// compact together with their owners, so the scan order a pattern
    /// match observes stays aligned across all holders of a replicated
    /// key.
    pub fn compact_stores(&mut self) {
        for db in &mut self.local_dbs {
            db.compact();
        }
    }
}

/// The full peer scan `best_new_holder` short-cuts and the
/// whole-database filter `rows_under_key` replaced, kept to test the
/// new code against.
#[cfg(test)]
mod reference {
    use super::*;

    impl GridVineSystem {
        pub(super) fn best_new_holder_scan(
            &mut self,
            origin: PeerId,
            holders: &[PeerId],
            at: SimTime,
        ) -> Option<(SimDuration, PeerId)> {
            let mut best: Option<(SimDuration, u32)> = None;
            for i in 0..self.config.peers {
                let p = PeerId::from_index(i);
                if holders.contains(&p) {
                    continue;
                }
                let d = self.expected_latency(origin, p);
                if self.crashed.contains(&p) || self.churn_down_at(p, at) {
                    continue;
                }
                if best.is_none_or(|b| (d, p.0) < b) {
                    best = Some((d, p.0));
                }
            }
            best.map(|(d, p)| (d, PeerId(p)))
        }

        pub(super) fn rows_under_key_scan(&self, peer: PeerId, key: &BitString) -> Vec<Triple> {
            let ks = self.keyspace();
            self.local_dbs[peer.index()]
                .iter()
                .filter(|t| ks.triple_keys(t).contains(key))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GridVineConfig;
    use gridvine_netsim::churn::{ChurnEvent, ChurnKind};
    use gridvine_netsim::LatencyConfig;
    use gridvine_rdf::Term;

    const PEERS: usize = 40;

    fn system(latency: LatencyConfig) -> GridVineSystem {
        GridVineSystem::new(GridVineConfig {
            peers: PEERS,
            latency,
            placement: PlacementPolicy::new().replicate("", 3),
            seed: 3,
            ..GridVineConfig::default()
        })
    }

    fn peers(ids: &[usize]) -> Vec<PeerId> {
        ids.iter().map(|&i| PeerId::from_index(i)).collect()
    }

    /// Ask a fresh system and its twin the same question, one through
    /// `best_new_holder` and one through the full scan; the answers and
    /// the latency model's next draw must agree.
    fn assert_same_choice(
        latency: LatencyConfig,
        origin: usize,
        holders: &[usize],
        setup: impl Fn(&mut GridVineSystem),
    ) {
        let mut fast = system(latency.clone());
        let mut scan = system(latency);
        setup(&mut fast);
        setup(&mut scan);
        let origin = PeerId::from_index(origin);
        let holders = peers(holders);
        let at = SimTime::ZERO;
        assert_eq!(
            fast.best_new_holder(origin, &holders, at),
            scan.best_new_holder_scan(origin, &holders, at),
            "origin {origin}, holders {holders:?}"
        );
        let next = |sys: &mut GridVineSystem| {
            sys.latency
                .as_deref_mut()
                .map(|m| m.sample(NodeId::from_index(0), NodeId::from_index(0)))
        };
        assert_eq!(next(&mut fast), next(&mut scan), "model stream moved");
    }

    #[test]
    fn best_new_holder_matches_full_scan() {
        let wan = LatencyConfig::planetlab_2007;
        let none = |_: &mut GridVineSystem| {};
        // Live non-holder origins: the fast path.
        assert_same_choice(wan(), 5, &[1, 2], none);
        assert_same_choice(wan(), PEERS - 1, &[3, 17], none);
        // The last peer is a holder: the scan places one node less.
        assert_same_choice(wan(), 5, &[PEERS - 1, PEERS - 2], none);
        // The origin is the only non-holder: the scan asks the model
        // nothing.
        let all_but_origin: Vec<usize> = (0..PEERS).filter(|&i| i != 7).collect();
        assert_same_choice(wan(), 7, &all_but_origin, none);
        // Crashed, churned and holding origins take the scan.
        assert_same_choice(wan(), 5, &[1, 2], |sys| sys.crash_peer(PeerId(5)));
        assert_same_choice(wan(), 5, &[1, 2], |sys| {
            sys.install_churn(&[ChurnEvent {
                at: SimTime::ZERO,
                node: NodeId::from_index(5),
                kind: ChurnKind::Fail,
            }])
        });
        assert_same_choice(wan(), 5, &[5, 9], none);
        // A model drawn from before the question.
        assert_same_choice(wan(), 5, &[1, 2], |sys| {
            if let Some(m) = sys.latency.as_deref_mut() {
                m.sample(NodeId::from_index(2), NodeId::from_index(11));
            }
        });
        // The flat and uniform models.
        assert_same_choice(LatencyConfig::Flat, 5, &[1, 2], none);
        assert_same_choice(LatencyConfig::Flat, 5, &[5, 9], none);
        let uniform = LatencyConfig::Uniform {
            min: SimDuration::from_millis(5),
            max: SimDuration::from_millis(50),
        };
        assert_same_choice(uniform.clone(), PEERS - 1, &[1, 2], none);
        assert_same_choice(uniform, 5, &[5, 9], none);
    }

    /// Rows of a replicated deployment whose subjects share one 24-bit
    /// key in pairs, with some rows tombstoned.
    fn loaded() -> (GridVineSystem, Vec<Triple>) {
        let mut sys = system(LatencyConfig::planetlab_2007());
        let mut triples = Vec::new();
        for i in 0..30 {
            let t = Triple::new(
                format!("seq:P{}", 10_000 + i).as_str(),
                format!("S{}#a{}", i % 3, i % 4).as_str(),
                Term::literal(format!("Aspergillus strain {i}")),
            );
            sys.insert_triple(PeerId::from_index(i % PEERS), t.clone())
                .unwrap();
            triples.push(t);
        }
        for t in triples.iter().step_by(7) {
            for db in &mut sys.local_dbs {
                db.remove(t);
            }
        }
        (sys, triples)
    }

    #[test]
    fn rows_under_key_matches_full_scan() {
        let (sys, triples) = loaded();
        let mut keys: Vec<BitString> = triples
            .iter()
            .flat_map(|t| sys.keyspace().triple_keys(t))
            .collect();
        keys.sort();
        keys.dedup();
        assert!(keys.len() < 3 * triples.len(), "terms share keys");
        for key in &keys {
            for i in 0..PEERS {
                let p = PeerId::from_index(i);
                assert_eq!(sys.rows_under_key(p, key), sys.rows_under_key_scan(p, key));
            }
        }
    }

    #[test]
    fn migrate_round_trip_moves_exactly_the_key_rows() {
        let (mut sys, triples) = loaded();
        let key = sys.key_of(triples[1].subject.as_str());
        let src = sys.topology.responsible(&key)[0];
        let expected = sys.rows_under_key_scan(src, &key);
        assert!(expected.len() > 1, "the key indexes several rows");
        let holders = sys.holders_of(&key);
        let mut spare = (0..PEERS)
            .map(PeerId::from_index)
            .filter(|p| !holders.contains(p) && sys.local_dbs[p.index()].is_empty());
        let (a, b) = (spare.next().unwrap(), spare.next().unwrap());
        sys.commit_replica(PeerId(0), &key, a).unwrap();
        assert_eq!(
            sys.local_dbs[a.index()].iter().collect::<Vec<_>>(),
            expected
        );
        sys.migrate_replica(PeerId(0), &key, a, b).unwrap();
        assert!(sys.local_dbs[a.index()].is_empty());
        assert_eq!(
            sys.local_dbs[b.index()].iter().collect::<Vec<_>>(),
            expected
        );
        assert!(sys.holders_of(&key).contains(&b));
        assert!(!sys.holders_of(&key).contains(&a));
    }

    #[test]
    fn null_policy_matches_nothing() {
        let p = PlacementPolicy::default();
        assert!(p.is_null());
        assert!(p.rule_for("EMBL#Organism").is_none());
    }

    #[test]
    fn first_matching_rule_wins() {
        let p = PlacementPolicy::new().replicate("S0#", 3).replicate("S", 2);
        assert_eq!(p.rule_for("S0#a0").unwrap().factor, 3);
        assert_eq!(p.rule_for("S1#a1").unwrap().factor, 2);
        assert!(p.rule_for("T0#b0").is_none());
        assert!(!p.is_null());
    }

    #[test]
    fn heat_window_resets_on_spike_and_expiry() {
        let mut state = PlacementState::new(
            PlacementPolicy::new()
                .replicate("k", 2)
                .heat(3, SimDuration::from_millis(10)),
        );
        let key = BitString::parse("0101");
        let t0 = SimTime::ZERO;
        assert_eq!(state.record_access(&key, t0), None);
        assert_eq!(state.record_access(&key, t0), None);
        assert_eq!(
            state.record_access(&key, t0),
            Some(3),
            "third access spikes"
        );
        // The window reset: counting starts over.
        assert_eq!(state.record_access(&key, t0), None);
        // Accesses past the window expire the count.
        let later = t0 + SimDuration::from_millis(20);
        assert_eq!(state.record_access(&key, later), None);
        assert_eq!(state.record_access(&key, later), None);
        assert_eq!(state.record_access(&key, later), Some(3));
    }

    #[test]
    fn threshold_zero_disables_heat() {
        let mut state = PlacementState::new(PlacementPolicy::new().replicate("k", 2));
        let key = BitString::parse("0101");
        for _ in 0..100 {
            assert_eq!(state.record_access(&key, SimTime::ZERO), None);
        }
    }

    #[test]
    fn extras_register_and_retire() {
        let mut state = PlacementState::new(PlacementPolicy::default());
        let key = BitString::parse("0011");
        assert!(state.extras_for(&key).is_empty());
        state.register_extra(key.clone(), PeerId(7));
        state.register_extra(key.clone(), PeerId(7)); // idempotent
        state.register_extra(key.clone(), PeerId(9));
        assert_eq!(state.extras_for(&key), &[PeerId(7), PeerId(9)]);
        state.retire_extra(&key, PeerId(7));
        assert_eq!(state.extras_for(&key), &[PeerId(9)]);
        state.retire_extra(&key, PeerId(9));
        assert!(state.extras_for(&key).is_empty());
    }
}
