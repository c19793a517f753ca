//! The correctness gate every run passes through. A failed check fails
//! the run: the result line says `"correct": false` and the process
//! exits non-zero.
//!
//! * Conservation: every submitted session lands in exactly one
//!   terminal bucket of the `LoadReport`.
//! * Drain: `pending_events() == 0` once the traffic phase returns.
//! * Answers: after the timed phase every traffic session is replayed
//!   with `GridVineSystem::execute`. Lookups on a seeded sample must
//!   return the rows of one local `TripleStore` holding the whole
//!   corpus; closures and joins may return only true answers, since
//!   ground-truth mappings cannot produce a wrong one. Recall against
//!   the generated answer sets is measured on every session.

use crate::spec::{Inputs, Spec};
use gridvine_core::{GridVineSystem, QueryOptions, QueryPlan};
use gridvine_load::LoadReport;
use gridvine_pgrid::PeerId;
use gridvine_rdf::{Binding, Term, TriplePatternQuery, TripleStore};
use gridvine_workload::recall;
use std::fmt::Display;

#[derive(Debug, Default)]
pub struct Gate {
    checks: usize,
    failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn ok<E: Display>(&mut self, what: &str, r: Result<(), E>) {
        match r {
            Ok(()) => self.check(true, String::new),
            Err(e) => self.check(false, || format!("{what} failed: {e}")),
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn checks(&self) -> usize {
        self.checks
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Rows in a canonical order, for multiset comparison.
pub fn sorted_rows(rows: &[Binding]) -> Vec<Vec<(String, Term)>> {
    let mut out: Vec<Vec<(String, Term)>> = rows
        .iter()
        .map(|b| b.iter().map(|(v, t)| (v.to_string(), t.clone())).collect())
        .collect();
    out.sort();
    out
}

/// What a single-pattern plan must return: the distinct projections
/// of a central store's matches onto the distinguished variable, in
/// the canonical order of [`sorted_rows`].
pub fn oracle_rows(store: &TripleStore, query: &TriplePatternQuery) -> Vec<Vec<(String, Term)>> {
    let mut rows = sorted_rows(
        &store
            .match_pattern(&query.pattern)
            .iter()
            .map(|b| b.project(&[query.distinguished.as_str()]))
            .collect::<Vec<_>>(),
    );
    rows.dedup();
    rows
}

/// Sessions that did not complete: failed, cancelled, rejected or
/// refused.
pub fn unfinished(r: &LoadReport) -> usize {
    r.failed + r.cancelled_deadline + r.cancelled_budget + r.rejected + r.refused
}

/// Conservation and drain checks after one traffic phase.
pub fn after_traffic(gate: &mut Gate, sys: &GridVineSystem, r: &LoadReport) {
    gate.check(r.completed + unfinished(r) == r.submitted, || {
        format!(
            "conservation: {} completed + {} unfinished != {} submitted",
            r.completed,
            unfinished(r),
            r.submitted
        )
    });
    gate.check(r.admitted + r.queued + r.rejected == r.submitted, || {
        format!(
            "admission: {} admitted + {} queued + {} rejected != {} submitted",
            r.admitted, r.queued, r.rejected, r.submitted
        )
    });
    gate.check(sys.pending_events() == 0, || {
        format!(
            "drain: {} events still pending after the traffic phase",
            sys.pending_events()
        )
    });
}

/// Replay every traffic session on the system the timed phase left
/// behind, check its answers and return the mean recall.
pub fn answer_checks(
    gate: &mut Gate,
    sys: &mut GridVineSystem,
    spec: &Spec,
    inputs: &Inputs,
) -> f64 {
    let mut oracle = TripleStore::new();
    oracle.insert_batch(inputs.triples.iter().cloned());
    let mut oracle_sample = inputs.oracle_sample.iter().peekable();
    let mut total = 0.0;
    for (i, (plan, truth)) in inputs.plans.iter().zip(&inputs.truths).enumerate() {
        let origin = PeerId::from_index(i % spec.origins);
        let out = match sys.execute(origin, plan, &QueryOptions::new()) {
            Ok(out) => out,
            Err(e) => {
                gate.check(false, || format!("session {i} failed on replay: {e}"));
                continue;
            }
        };
        let found = out.accessions();
        total += recall(&found, truth);
        match plan {
            QueryPlan::Pattern { query } => {
                if oracle_sample.next_if_eq(&&i).is_some() {
                    let want = oracle_rows(&oracle, query);
                    gate.check(sorted_rows(&out.rows) == want, || {
                        format!(
                            "oracle: session {i} returned {} rows, the central store {}",
                            out.rows.len(),
                            want.len()
                        )
                    });
                }
            }
            _ => gate.check(found.is_subset(truth), || {
                let wrong = found.difference(truth).count();
                format!(
                    "ground truth: session {i} returned {wrong} accessions that are not answers"
                )
            }),
        }
    }
    total / inputs.plans.len().max(1) as f64
}
