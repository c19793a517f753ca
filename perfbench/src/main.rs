//! GridVine core-stack benchmark.
//!
//! ```text
//! perfbench --workload <e1_lookup|mediated_search|scale_ingest>
//!           --seed <n> --seconds <n> --trace <0|1>
//!           [--size full|tiny] [--trace-out <file.jsonl>]
//! perfbench --list-metrics
//! ```
//!
//! An untraced run (`--trace 0`) repeats rounds — set one deployment
//! up, then drive one open-loop traffic phase through `run_open_loop`
//! — in cycles of one round per deployment in [`DEPLOYMENTS`], for
//! `--seconds` of wall time and at least [`MIN_CYCLES`] cycles. It
//! reports the end-to-end metrics: `setup_s` as the median over
//! rounds, traffic throughput over all rounds' traffic phases
//! together, memory as growth over the first round, and each
//! simulated number as the median over the deployments' first rounds
//! (every later round must reproduce its deployment's `LoadReport`
//! exactly). A traced run (`--trace 1`) drives the first deployment
//! once through `run_open_loop`, then through the benchmark's own
//! replay of it in pairs of rounds, spans off and on, for `--seconds`;
//! it checks that every round gives the identical `LoadReport`, probes
//! each layer and reports the per-layer metrics.
//!
//! Lines starting with `transcript` carry everything that must repeat
//! for a seed. The last line of standard output is the JSON result; a
//! failed correctness check makes it say `"correct": false` and the
//! process exit with status 1.

mod gate;
mod metrics;
mod probe;
mod round;
mod spec;
mod trace;

use gate::{unfinished, Gate};
use gridvine_core::GridVineSystem;
use gridvine_load::LoadReport;
use metrics::{median, proc_mb, result_line, END_TO_END, PER_LAYER};
use spec::{Inputs, Size, Spec, DEPLOYMENTS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Fewest cycles (one round per deployment) of an untraced run, so
/// every deployment is measured twice and must repeat its report.
const MIN_CYCLES: usize = 2;
/// Most rounds of an untraced run, a whole number of cycles.
const MAX_ROUNDS: usize = 80 * DEPLOYMENTS.len();

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list-metrics" {
            for m in END_TO_END.iter().chain(PER_LAYER) {
                println!("{} {} {}", m.name, m.unit, m.better);
            }
            std::process::exit(0);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad(&"expected full or tiny")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// What a run measured, before it is printed.
struct Outcome {
    gate: Gate,
    attempted: usize,
    failed: usize,
    values: BTreeMap<&'static str, f64>,
    transcript: Vec<String>,
}

fn report_transcript(r: &LoadReport) -> Vec<String> {
    r.to_string()
        .lines()
        .map(|l| format!("report {l}"))
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload, args.size) else {
        eprintln!(
            "perfbench: unknown workload {:?}; choose one of {:?}",
            args.workload,
            spec::WORKLOADS
        );
        std::process::exit(2);
    };
    let inputs = Inputs::generate(&spec, args.seed);
    let (outcome, catalog) = if args.trace {
        (traced(&spec, &inputs, &args), PER_LAYER)
    } else {
        (untraced(&spec, &inputs, &args), END_TO_END)
    };
    println!("transcript workload {} seed {}", spec.name, args.seed);
    println!(
        "transcript inputs {} triples {} mappings {} sessions",
        inputs.triples.len(),
        inputs.mappings.len(),
        inputs.plans.len()
    );
    for line in &outcome.transcript {
        println!("transcript {line}");
    }
    for m in catalog {
        println!(
            "{:<42} {:>16.6} {}",
            m.name,
            outcome.values.get(m.name).unwrap_or(&f64::NAN),
            m.unit
        );
    }
    for f in outcome.gate.failures() {
        println!("CHECK FAILED: {f}");
    }
    let correct = outcome.gate.passed();
    println!(
        "{} checks, {}",
        outcome.gate.checks(),
        if correct { "all passed" } else { "some failed" }
    );
    match result_line(
        correct,
        outcome.attempted,
        outcome.failed,
        catalog,
        &outcome.values,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}

/// The end-to-end run: cycles of rounds, one round per deployment,
/// until `--seconds` have passed.
fn untraced(spec: &Spec, inputs: &Inputs, args: &Args) -> Outcome {
    let cfg = spec.load_config(args.seed);
    let mut gate = Gate::default();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let (mut traffic_sessions, mut traffic_s) = (0.0, 0.0);
    let (mut attempted, mut failed) = (0, 0);
    // The first report of each deployment, in `DEPLOYMENTS` order.
    let mut firsts: Vec<LoadReport> = Vec::new();
    let (mut setup_rss_mb, mut peak_rss_mb) = (0.0, 0.0);
    let mut last: Option<GridVineSystem> = None;
    let start = Instant::now();
    let mut round = 0;
    // Whole cycles only; another one starts if it would end nearer to
    // `--seconds` than stopping now does.
    let cycles = |round: usize| (round / DEPLOYMENTS.len()) as f64;
    while round < MAX_ROUNDS
        && (round % DEPLOYMENTS.len() != 0
            || round < MIN_CYCLES * DEPLOYMENTS.len()
            || start.elapsed().as_secs_f64() * (1.0 + 0.5 / cycles(round)) < args.seconds)
    {
        let deployment = round % DEPLOYMENTS.len();
        // Free the previous round's system first. Memory is counted
        // from here, so the benchmark's own inputs and the answer
        // checks after the last round stay out of it.
        drop(last.take());
        let base_mb = proc_mb("VmRSS");
        if round == 0 {
            eprintln!(
                "before setup: VmRSS {base_mb:.1} MB, VmHWM {:.1} MB",
                proc_mb("VmHWM")
            );
        }
        let (mut sys, setup_s) =
            round::setup(spec, inputs, DEPLOYMENTS[deployment], None, &mut gate);
        if round == 0 {
            setup_rss_mb = proc_mb("VmRSS") - base_mb;
        }
        let t = round::traffic(&mut sys, &inputs.plans, &cfg, None);
        if round == 0 {
            peak_rss_mb = proc_mb("VmHWM") - base_mb;
        }
        gate::after_traffic(&mut gate, &sys, &t.report);
        attempted += t.report.submitted;
        failed += unfinished(&t.report);
        setups.push(setup_s);
        rates.push(t.report.submitted as f64 / t.wall_s);
        traffic_sessions += t.report.submitted as f64;
        traffic_s += t.wall_s;
        match firsts.get(deployment) {
            None => firsts.push(t.report),
            Some(r0) => gate.check(r0.to_string() == t.report.to_string(), || {
                format!(
                    "round {} did not reproduce the first report of deployment {}",
                    round + 1,
                    DEPLOYMENTS[deployment]
                )
            }),
        }
        last = Some(sys);
        round += 1;
    }
    eprintln!(
        "{round} rounds over deployments {DEPLOYMENTS:?}; setup_s {setups:.4?}; sessions/s {rates:.0?}"
    );
    let mut sys = last.expect("at least one round ran");
    let recall = gate::answer_checks(&mut gate, &mut sys, spec, inputs);
    let ms = |d: gridvine_netsim::SimDuration| d.as_micros() as f64 / 1000.0;
    // Each simulated metric is the median over the deployments.
    let over = |f: &dyn Fn(&LoadReport) -> f64| median(&firsts.iter().map(f).collect::<Vec<_>>());
    let per_submitted = |n: f64, r: &LoadReport| n / r.submitted.max(1) as f64;
    let values = BTreeMap::from([
        ("setup_s", median(&setups)),
        // Over every round's traffic phase together: on a shared host
        // the CPU speed drifts by up to 30% over minutes (a fixed
        // arithmetic loop shows it too), and of the estimators tried
        // (median round, fastest round, pooled) pooling spread least
        // across runs. Every round's rate is printed on stderr.
        ("wall_sessions_per_s", traffic_sessions / traffic_s),
        ("setup_rss_mb", setup_rss_mb),
        ("peak_rss_mb", peak_rss_mb),
        ("sim_latency_p50_ms", over(&|r| ms(r.latency.p50))),
        ("sim_latency_p99_ms", over(&|r| ms(r.latency.p99))),
        (
            "messages_per_session",
            over(&|r| per_submitted(r.messages as f64, r)),
        ),
        ("recall", recall),
        (
            "completed_share",
            over(&|r| per_submitted(r.completed as f64, r)),
        ),
    ]);
    let mut transcript = Vec::new();
    for (seed, r) in DEPLOYMENTS.iter().zip(&firsts) {
        transcript.extend(
            report_transcript(r)
                .into_iter()
                .map(|l| format!("deployment {seed} {l}")),
        );
    }
    transcript.push(format!("recall {recall:?}"));
    Outcome {
        gate,
        attempted,
        failed,
        values,
        transcript,
    }
}

/// The per-layer run on the first deployment: one round through
/// `run_open_loop`, then pairs of rounds through the benchmark's own
/// replay of it, with spans off and on, for `--seconds`; then the
/// layer probes on the last traced round's system.
fn traced(spec: &Spec, inputs: &Inputs, args: &Args) -> Outcome {
    let cfg = spec.load_config(args.seed);
    let mut gate = Gate::default();
    let (mut attempted, mut failed) = (0, 0);

    // The process's first round, so the high-water growth over its
    // traffic phase is the traffic's own and not reuse of an earlier
    // round's memory.
    let (mut sys, _) = round::setup(spec, inputs, DEPLOYMENTS[0], None, &mut gate);
    let rss_before = proc_mb("VmRSS");
    let plain = round::traffic(&mut sys, &inputs.plans, &cfg, None);
    let rss_kb = (proc_mb("VmHWM") - rss_before) * 1024.0;
    gate::after_traffic(&mut gate, &sys, &plain.report);
    drop(sys);

    // Spans off, then on, through the same driver, so the overhead
    // ratio compares tracing and nothing else.
    let (mut off_walls, mut on_walls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let (mut tr, sys, traced, cache_before) = loop {
        let (sys, off, _, wall) = replay_round(spec, inputs, &cfg, &mut Tracer::off(), &mut gate);
        drop(sys);
        off_walls.push(wall);
        let mut tr = Tracer::new();
        let (sys, on, cache_before, wall) = replay_round(spec, inputs, &cfg, &mut tr, &mut gate);
        on_walls.push(wall);
        for (what, r) in [("untraced", &off.report), ("traced", &on.report)] {
            gate.check(plain.report.to_string() == r.to_string(), || {
                format!("the {what} replay's report differs from run_open_loop's")
            });
            attempted += r.submitted;
            failed += unfinished(r);
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break (tr, sys, on, cache_before);
        }
    };
    attempted += plain.report.submitted;
    failed += unfinished(&plain.report);
    let cache = sys.cache_counters();

    tr.enter("bench.probe");
    let mut values = probe::run(&mut tr, &sys, spec, inputs, args.seed);
    tr.exit();

    let r = &traced.report;
    let sessions = traced.stats.len().max(1) as f64;
    let per_session = |f: fn(&gridvine_core::ExecStats) -> usize| {
        traced.stats.iter().map(f).sum::<usize>() as f64 / sessions
    };
    let (hits, misses) = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );
    let copies: usize = (0..spec.peers)
        .map(|p| sys.peer_db(gridvine_pgrid::PeerId::from_index(p)).len())
        .sum();
    // Pool time per step, with the window replenish `next_instant` does.
    let (steps, step_ns) = tr.total_ns("core.pool.step");
    let pool_ns = step_ns + tr.total_ns("core.pool.next_instant").1;
    values.extend([
        (
            "pgrid.topology.build_s",
            tr.mean_ns("pgrid.topology.build") / 1e9,
        ),
        (
            "core.system.insert_triple_us",
            tr.mean_ns("core.system.insert_triple") / 1e3,
        ),
        (
            "core.place.copies_per_triple",
            copies as f64 / inputs.triples.len().max(1) as f64,
        ),
        (
            "semantic.cache.hit_ratio",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        ),
        (
            "semantic.cache.evictions",
            (cache.evictions - cache_before.evictions) as f64,
        ),
        (
            "semantic.mapping_fetches_per_session",
            per_session(|s| s.mapping_fetches),
        ),
        ("core.pool.open_ns", tr.mean_ns("core.pool.open")),
        ("core.pool.step_ns", pool_ns as f64 / steps.max(1) as f64),
        (
            "core.pool.steps_per_session",
            traced.steps as f64 / sessions,
        ),
        (
            "core.pool.rss_kb_per_session",
            rss_kb / plain.report.submitted.max(1) as f64,
        ),
        (
            "core.exec.subqueries_per_session",
            per_session(|s| s.subqueries),
        ),
        (
            "core.exec.bindings_shipped_per_session",
            per_session(|s| s.bindings_shipped),
        ),
        ("core.exec.max_in_flight", per_session(|s| s.max_in_flight)),
        (
            "load.queue_wait_p99_ms",
            r.queue_wait.p99.as_micros() as f64 / 1000.0,
        ),
        (
            "load.queued_share",
            r.queued as f64 / r.submitted.max(1) as f64,
        ),
        (
            "bench.trace_overhead",
            median(&on_walls) / median(&off_walls),
        ),
    ]);
    // Only the round: the probes' spans time fixed-length loops.
    let own = tr.self_seconds("bench.round");
    for (layer, name) in [
        ("pgrid", "self_s.pgrid"),
        ("core", "self_s.core"),
        ("bench", "self_s.bench"),
    ] {
        values.insert(name, own.get(layer).copied().unwrap_or(0.0));
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = tr.write_jsonl(path) {
            gate.check(false, || {
                format!("writing spans to {}: {e}", path.display())
            });
        }
    }

    // Counts repeat exactly per seed; times do not.
    let mut transcript = report_transcript(r);
    for m in PER_LAYER {
        if m.unit == "count" || m.unit == "fraction" || m.unit.starts_with("sim_") {
            transcript.push(format!("{} {:?}", m.name, values[m.name]));
        }
    }
    Outcome {
        attempted,
        failed,
        gate,
        values,
        transcript,
    }
}

/// One round of the first deployment through the benchmark's replay
/// driver, inside a `bench.round` span when `tr` records. Returns the
/// system, the traffic, the cache counters before the traffic and the
/// round's wall seconds.
fn replay_round(
    spec: &Spec,
    inputs: &Inputs,
    cfg: &gridvine_load::LoadConfig,
    tr: &mut Tracer,
    gate: &mut Gate,
) -> (
    GridVineSystem,
    round::Traffic,
    gridvine_semantic::CacheCounters,
    f64,
) {
    let t = Instant::now();
    tr.enter("bench.round");
    let (mut sys, _) = round::setup(spec, inputs, DEPLOYMENTS[0], Some(&mut *tr), gate);
    let cache_before = sys.cache_counters();
    let traffic = round::traffic(&mut sys, &inputs.plans, cfg, Some(&mut *tr));
    tr.exit();
    let wall = t.elapsed().as_secs_f64();
    gate::after_traffic(gate, &sys, &traffic.report);
    (sys, traffic, cache_before, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> Outcome {
        let spec = Spec::named(workload, Size::Tiny).expect("known workload");
        let inputs = Inputs::generate(&spec, 7);
        let args = Args {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.0,
            trace,
            size: Size::Tiny,
            trace_out: None,
        };
        if trace {
            traced(&spec, &inputs, &args)
        } else {
            untraced(&spec, &inputs, &args)
        }
    }

    #[test]
    fn tiny_runs_of_every_workload_pass_the_gate() {
        for w in spec::WORKLOADS {
            for trace in [false, true] {
                let out = tiny(w, trace);
                assert!(
                    out.gate.passed(),
                    "{w} trace={trace}: {:?}",
                    out.gate.failures()
                );
                assert_eq!(out.failed, 0, "{w}: no session may fail");
                let catalog = if trace { PER_LAYER } else { END_TO_END };
                result_line(true, out.attempted, out.failed, catalog, &out.values)
                    .expect("every metric is measured and finite");
            }
        }
    }
}
