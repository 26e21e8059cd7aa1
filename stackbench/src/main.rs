//! stackbench — one benchmark for the GSO-Simulcast stack: the conference
//! simulator (media plane + embedded controller) and the multi-conference
//! controller fleet, with a traced mode that splits the time by layer.
//!
//! ```text
//! stackbench --workload <meeting20|fleet_steady|fleet_churn>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The second-to-last line of standard output is the full run record
//! (context, every metric with median/quartiles/sample count, counts,
//! checks); the last line is the summary. See
//! `stackbench/README.md`.

mod fleetwl;
mod isolate;
mod simwl;
mod stats;

use stats::{Obj, Summary};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// End-to-end metrics, reported on every workload with `--trace 0`.
const E2E: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("sim_rate", "sim-s/s"),
    ("pkts_per_s", "1/s"),
    ("rounds_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("solved_ratio", "ratio"),
    ("decided_qoe", "qoe"),
];

/// Per-layer metrics, reported on every workload with `--trace 1`. A
/// layer a workload does not exercise reads 0.
const LAYERS: [(&str, &str); 50] = [
    ("sim.client.calls", "count"),
    ("sim.client.self_ms", "ms"),
    ("sim.access.calls", "count"),
    ("sim.access.self_ms", "ms"),
    ("sim.conference.calls", "count"),
    ("sim.conference.self_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("sim.harvest_ms", "ms"),
    ("net.events", "count"),
    ("net.self_ms", "ms"),
    ("net.ns_per_event", "ns"),
    ("net.pkts", "count"),
    ("net.drop_queue", "count"),
    ("net.drop_loss", "count"),
    ("net.peak_queue_bytes", "bytes"),
    ("telemetry.export_ms", "ms"),
    ("control.report_us", "us"),
    ("control.prepare_ms", "ms"),
    ("control.commit_ms", "ms"),
    ("control.ack_ms", "ms"),
    ("control.rounds", "count"),
    ("control.fallback_rounds", "count"),
    ("control.gtmb_configs", "count"),
    ("algo.solve_ms", "ms"),
    ("algo.knapsacks", "count"),
    ("algo.full_hits", "count"),
    ("algo.backtracks", "count"),
    ("algo.suffix_recomputes", "count"),
    ("algo.fresh_recomputes", "count"),
    ("algo.rows_recomputed", "count"),
    ("algo.rows_reused", "count"),
    ("algo.row_reuse_ratio", "ratio"),
    ("algo.allocs_per_round", "count"),
    ("rtp.parse_ns", "ns"),
    ("rtp.serialize_ns", "ns"),
    ("rtp.rtcp_parse_ns", "ns"),
    ("net.link_offer_ns", "ns"),
    ("net.pacer_ns", "ns"),
    ("bwe.on_feedback_ns", "ns"),
    ("bwe.twcc_ns", "ns"),
    ("sfu.forward_ns", "ns"),
    ("media.encode_us", "us"),
    ("media.receive_ns", "ns"),
    ("telemetry.add_ns", "ns"),
    ("ledger.traced_wall_ms", "ms"),
    ("ledger.layer_sum_ms", "ms"),
    ("ledger.capture_ms", "ms"),
    ("ledger.unattributed_ms", "ms"),
    ("ledger.unattributed_share", "ratio"),
    ("ledger.traced_rate_ratio", "ratio"),
];

/// Per-layer values of one traced run, keyed by the names in [`LAYERS`].
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(LAYERS.iter().map(|&(k, _)| (k, 0.0)).collect())
    }
}

impl Layers {
    /// Set a layer metric. Names outside [`LAYERS`] are a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.get_mut(name).unwrap_or_else(|| panic!("unknown layer metric {name}"));
        *slot = value;
    }
}

/// The sum of two engines' work counters.
pub fn add_engine(a: gso_algo::EngineStats, b: gso_algo::EngineStats) -> gso_algo::EngineStats {
    gso_algo::EngineStats {
        solves: a.solves + b.solves,
        iterations: a.iterations + b.iterations,
        knapsacks: a.knapsacks + b.knapsacks,
        full_hits: a.full_hits + b.full_hits,
        backtracks: a.backtracks + b.backtracks,
        suffix_recomputes: a.suffix_recomputes + b.suffix_recomputes,
        fresh_recomputes: a.fresh_recomputes + b.fresh_recomputes,
        rows_recomputed: a.rows_recomputed + b.rows_recomputed,
        rows_reused: a.rows_reused + b.rows_reused,
    }
}

/// Engine work counters as layer metrics.
pub fn set_engine_layers(l: &mut Layers, e: &gso_algo::EngineStats) {
    l.set("algo.knapsacks", e.knapsacks as f64);
    l.set("algo.full_hits", e.full_hits as f64);
    l.set("algo.backtracks", e.backtracks as f64);
    l.set("algo.suffix_recomputes", e.suffix_recomputes as f64);
    l.set("algo.fresh_recomputes", e.fresh_recomputes as f64);
    l.set("algo.rows_recomputed", e.rows_recomputed as f64);
    l.set("algo.rows_reused", e.rows_reused as f64);
    let rows = e.rows_recomputed + e.rows_reused;
    l.set("algo.row_reuse_ratio", e.rows_reused as f64 / rows.max(1) as f64);
}

/// The ledger: layer self times against traced wall time. `rate_ratio` is
/// the traced rate over the untraced rate (1 = tracing costs nothing).
pub fn set_ledger(l: &mut Layers, wall_ms: f64, layer_sum_ms: f64, rate_ratio: f64) {
    let capture = l.0["ledger.capture_ms"];
    let unattributed = wall_ms - layer_sum_ms - capture;
    l.set("ledger.traced_wall_ms", wall_ms);
    l.set("ledger.layer_sum_ms", layer_sum_ms);
    l.set("ledger.unattributed_ms", unattributed);
    l.set("ledger.unattributed_share", unattributed / wall_ms);
    l.set("ledger.traced_rate_ratio", rate_ratio);
}

/// Output checks: every check counts as one attempted operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Vec<(&'static str, &'static str, Summary)>,
    pub layers: Layers,
    pub detail: Obj,
    pub checks: Checks,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The run's time budget, counted from the start of the process, so that
/// every step of a run (checks, held-out seed, set-up repetitions) is
/// inside it.
pub struct Budget {
    start: Instant,
    limit: Duration,
}

impl Budget {
    /// Whether another repetition, as long as the mean of `reps` so far,
    /// still ends within the budget. Always true before the first.
    pub fn another(&self, reps: &[Duration]) -> bool {
        let Ok(n) = u32::try_from(reps.len()) else { return false };
        if n == 0 {
            return true;
        }
        let mean = reps.iter().sum::<Duration>() / n;
        self.start.elapsed() + mean <= self.limit
    }
}

/// The second seed every run also checks, derived from the first so that
/// it differs from the seeds of neighbouring runs.
fn held_out(seed: u64) -> u64 {
    seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407) >> 1
}

/// The commit the benchmark was built from, when the source tree is a git
/// checkout; "unknown" otherwise.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let c = resolved.trim();
    if c.is_empty() {
        "unknown".into()
    } else {
        c.to_string()
    }
}

fn summary_json(unit: &str, s: &Summary) -> String {
    let mut o = Obj::new();
    o.str("unit", unit)
        .num("median", s.median)
        .num("q1", s.q1)
        .num("q3", s.q3)
        .int("n", s.n as u64);
    o.finish()
}

fn metric_json(unit: &str, value: f64) -> String {
    let mut o = Obj::new();
    o.num("value", value).str("unit", unit);
    o.finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Budget { start: Instant::now(), limit: Duration::from_secs_f64(args.seconds) };
    let held = held_out(args.seed);
    let (outcome, workers) = match args.workload.as_str() {
        "meeting20" => (simwl::run(args.seed, held, &budget, args.trace), 1),
        "fleet_steady" => (
            fleetwl::run(fleetwl::FleetKind::Steady, args.seed, held, &budget, args.trace),
            fleetwl::WORKERS,
        ),
        "fleet_churn" => (
            fleetwl::run(fleetwl::FleetKind::Churn, args.seed, held, &budget, args.trace),
            fleetwl::WORKERS,
        ),
        other => {
            eprintln!("stackbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let checks = &outcome.checks;
    let correct = checks.failed == 0;
    let mut metrics = Obj::new();
    let mut record_metrics = Obj::new();
    if args.trace {
        for (name, unit) in LAYERS {
            metrics.raw(name, &metric_json(unit, outcome.layers.0[name]));
        }
    } else {
        for (name, unit) in E2E {
            let (_, _, s) = outcome
                .e2e
                .iter()
                .find(|(n, _, _)| *n == name)
                .unwrap_or_else(|| panic!("workload did not report {name}"));
            metrics.raw(name, &metric_json(unit, s.median));
            record_metrics.raw(name, &summary_json(unit, s));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut context = Obj::new();
    context
        .str("workload", &args.workload)
        .int("seed", args.seed)
        .int("held_out_seed", held)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .int("nproc", nproc as u64)
        .int("workers", workers as u64)
        .str("profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .str("commit", &commit())
        .num("run_wall_s", budget.start.elapsed().as_secs_f64());
    let mut record = Obj::new();
    record
        .raw("context", &context.finish())
        .raw("metrics", &record_metrics.finish())
        .raw("detail", &outcome.detail.finish())
        .int("checks_attempted", checks.attempted)
        .int("checks_failed", checks.failed)
        .num("fail_ratio", checks.failed as f64 / checks.attempted.max(1) as f64)
        .raw("failures", &stats::str_array(&checks.failures));
    let mut wrapped = Obj::new();
    wrapped.raw("stackbench_record", &record.finish());
    println!("{}", wrapped.finish());

    let mut result = Obj::new();
    result
        .bool("correct", correct)
        .int("attempted", checks.attempted.max(1))
        .int("failed", checks.failed)
        .raw("metrics", &metrics.finish());
    println!("{}", result.finish());
    for f in &checks.failures {
        eprintln!("stackbench: check failed: {f}");
    }
    ExitCode::SUCCESS
}
