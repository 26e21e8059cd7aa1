//! The controller-fleet workloads: `fleet_steady` and `fleet_churn`.
//!
//! 64 conferences of 20 parties each on one `ControllerFleet` with two
//! solver workers, ticked every 100 ms of simulated time for 60 s. A
//! closed loop: the ticking thread blocks in each tick while the workers
//! solve. Untraced episodes call `ControllerFleet::tick_all`, the product
//! path. Traced episodes drive the same three public phases by hand
//! (`tick_prepare` → `BatchScheduler::solve_batch` → `tick_commit`) and
//! time each; their per-tick outputs must equal `tick_all`'s.

use crate::stats::{self, Summary};
use crate::{Budget, Checks, Outcome};
use gso_algo::{
    ladders, solver, BatchConfig, BatchJob, BatchScheduler, EngineStats, Problem, Resolution,
    Solution, SolveEngine, SolverConfig, SourceId,
};
use gso_control::{
    CodecCapability, ControllerConfig, ControllerFleet, FleetTick, GsoController, SolveOutcome,
    SubscribeIntent, TickPrep,
};
use gso_rtp::GsoTmmbn;
use gso_util::{Bitrate, ClientId, DetRng, SimTime, Ssrc, StreamKind};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetKind {
    /// One rotating downlink report per conference per tick.
    Steady,
    /// Steady plus a speaker change every tick and one leave/rejoin per
    /// conference per second.
    Churn,
}

pub const CONFERENCES: usize = 64;
const PARTIES: u32 = 20;
const TICKS: u64 = 600;
/// Ticks of the held-out seed's episodes: enough for every conference to
/// solve rounds and for the sampled solver cross-checks, at a third of
/// the cost.
const HELD_OUT_TICKS: u64 = 200;
pub const WORKERS: usize = 2;
/// Conference `i` joins at tick `i % STAGGER`, so rounds spread over ticks.
const STAGGER: u64 = 10;
const TICK_MS: u64 = 100;
/// Every this many-th solved round is re-solved by `solver::solve`.
const SAMPLE_EVERY: u64 = 160;
/// Extra set-up-only repetitions per run, on top of one per episode.
const SETUP_REPS: usize = 9;

fn caps() -> CodecCapability {
    CodecCapability { ladders: vec![(StreamKind::Video, ladders::fine15())] }
}

fn intents(me: u32) -> Vec<SubscribeIntent> {
    (1..=PARTIES)
        .filter(|&j| j != me)
        .map(|j| SubscribeIntent {
            source: SourceId::video(ClientId(j)),
            max_resolution: Resolution::R720,
            tag: 0,
        })
        .collect()
}

/// One signaling input to a conference controller.
#[derive(Debug, Clone)]
enum Input {
    Join(u32, Bitrate, Bitrate),
    Leave(u32),
    Speaker(u32),
    Downlink(u32, Bitrate),
}

/// Seeded inputs: nominal per-client rates fixed per episode, and a
/// per-tick stream of reports and churn events.
struct Inputs {
    kind: FleetKind,
    /// `[conference][client]` → (uplink, downlink) nominal rates.
    nominal: Vec<Vec<(Bitrate, Bitrate)>>,
    rng: DetRng,
}

impl Inputs {
    fn new(kind: FleetKind, seed: u64) -> Self {
        let mut rng = DetRng::derive(seed, "stackbench-fleet-nominal");
        let nominal = (0..CONFERENCES)
            .map(|_| {
                (0..PARTIES)
                    .map(|c| {
                        let up = Bitrate::from_kbps(rng.range_u64(1_500, 4_000));
                        let down = if c % 3 == 0 {
                            Bitrate::from_kbps(rng.range_u64(1_200, 1_800))
                        } else {
                            Bitrate::from_kbps(rng.range_u64(3_000, 5_000))
                        };
                        (up, down)
                    })
                    .collect()
            })
            .collect();
        Inputs { kind, nominal, rng: DetRng::derive(seed, "stackbench-fleet-ticks") }
    }

    /// The inputs of tick `k` for every conference.
    fn tick(&mut self, k: u64) -> Vec<Vec<Input>> {
        (0..CONFERENCES)
            .map(|ci| {
                let mut v = Vec::new();
                let joined_at = ci as u64 % STAGGER;
                if k == joined_at {
                    for c in 1..=PARTIES {
                        let (up, down) = self.nominal[ci][c as usize - 1];
                        v.push(Input::Join(c, up, down));
                    }
                    return v;
                }
                if k < joined_at {
                    return v;
                }
                let age = k - joined_at;
                let idx = ((k + ci as u64) % u64::from(PARTIES)) as u32 + 1;
                let scale = self.rng.range_u64(70, 130);
                let nominal = self.nominal[ci][idx as usize - 1].1;
                v.push(Input::Downlink(idx, Bitrate::from_bps(nominal.as_bps() * scale / 100)));
                if self.kind == FleetKind::Churn {
                    v.push(Input::Speaker(idx));
                    // One participant leaves each second and is back half
                    // a second later, rotating through the conference.
                    let churner = ((age / 10 + ci as u64) % u64::from(PARTIES)) as u32 + 1;
                    if age % 10 == 3 {
                        v.push(Input::Leave(churner));
                    } else if age % 10 == 8 {
                        let (up, down) = self.nominal[ci][churner as usize - 1];
                        v.push(Input::Join(churner, up, down));
                    }
                }
                v
            })
            .collect()
    }
}

/// Apply one conference's inputs; returns the number of signaling
/// messages they stand for.
fn apply(c: &mut GsoController, now: SimTime, inputs: &[Input]) -> u64 {
    let mut msgs = 0;
    for input in inputs {
        match *input {
            Input::Join(id, up, down) => {
                let id32 = id;
                let id = ClientId(id32);
                c.on_join(id, caps());
                c.on_subscriptions(id, intents(id32));
                c.on_uplink_report(now, id, up);
                c.on_downlink_report(now, id, down);
                msgs += 4;
                // Everyone else subscribes to the (re)joined client again.
                for other in 1..=PARTIES {
                    if other != id32 && c.picture.contains(ClientId(other)) {
                        c.on_subscriptions(ClientId(other), intents(other));
                        msgs += 1;
                    }
                }
            }
            Input::Leave(id) => {
                c.on_leave(ClientId(id));
                msgs += 1;
            }
            Input::Speaker(id) => {
                c.on_speaker(Some(ClientId(id)));
                msgs += 1;
            }
            Input::Downlink(id, rate) => {
                if c.picture.contains(ClientId(id)) {
                    c.on_downlink_report(now, ClientId(id), rate);
                    msgs += 1;
                }
            }
        }
    }
    msgs
}

/// Ack every configuration and retransmission of one conference's tick;
/// returns the number of GTMB messages acked.
fn ack(c: &mut GsoController, t: &FleetTick) -> u64 {
    let (out, retx) = t;
    let mut n = 0;
    for (client, msg) in out.iter().flat_map(|o| o.configs.iter()).chain(retx.iter()) {
        c.on_ack(
            *client,
            &GsoTmmbn {
                sender_ssrc: Ssrc(9_999),
                epoch: msg.epoch,
                request_seq: msg.request_seq,
                entries: vec![],
            },
        );
        n += 1;
    }
    n
}

/// FNV-1a over a value's `Debug` text, without building the string.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest(ticks: &[FleetTick]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = write!(h, "{ticks:?}");
    h.0
}

/// Summed QoE of every conference's committed configuration.
fn decided_qoe(controllers: &[GsoController]) -> f64 {
    controllers.iter().filter_map(GsoController::last_solution).map(|s| s.total_qoe).sum()
}

/// Deterministic tallies of one episode.
#[derive(Debug, Clone, Default, PartialEq)]
struct Tally {
    rounds: u64,
    fallback_rounds: u64,
    gtmb_configs: u64,
    retransmissions: u64,
    signaling: u64,
    acks: u64,
    /// Summed committed QoE, averaged over ticks 1.. .
    decided_qoe: f64,
    /// Per-tick output digests, one per tick.
    digests: Vec<u64>,
}

impl Tally {
    fn count(&mut self, out: &[FleetTick]) {
        for (o, retx) in out {
            if let Some(o) = o {
                self.rounds += 1;
                self.fallback_rounds += u64::from(o.fallback);
                self.gtmb_configs += o.configs.len() as u64;
            }
            self.retransmissions += retx.len() as u64;
        }
        self.digests.push(digest(out));
    }

    /// Control packets in and out of the fleet: signaling and reports in,
    /// GTMB configurations and retransmissions out, acks back in.
    fn packets(&self) -> u64 {
        self.signaling + self.gtmb_configs + self.retransmissions + self.acks
    }
}

/// An untraced episode through `ControllerFleet::tick_all`. Each tick is
/// timed in wall time on the ticking thread, which blocks while the
/// workers solve, so a stalled or unbalanced worker shows in it.
struct Untraced {
    setup_s: f64,
    ticks_ms: Vec<f64>,
    /// Resident set (MiB) after every tick, when asked for.
    rss_mb: Vec<f64>,
    tally: Tally,
    engine: EngineStats,
}

/// Runs ticks `0..ticks`; tick 0 is the set-up. With `sample_rss`, reads
/// the resident set after every tick.
fn episode_untraced(kind: FleetKind, seed: u64, ticks: u64, sample_rss: bool) -> Untraced {
    let mut inputs = Inputs::new(kind, seed);
    let mut tally = Tally::default();
    let mut ticks_ms = Vec::with_capacity(TICKS as usize);
    let mut rss_mb = Vec::new();
    let mut setup_s = 0.0;
    let setup = Instant::now();
    let mut fleet = ControllerFleet::new(&BatchConfig { workers: WORKERS });
    for ci in 0..CONFERENCES {
        fleet.push(GsoController::new(ControllerConfig::paper_defaults(), Ssrc(100 + ci as u32)));
    }
    let mut tick_start = Some(setup);
    for k in 0..ticks {
        let now = SimTime::from_millis(k * TICK_MS);
        let tick_inputs = inputs.tick(k);
        let t = tick_start.take().unwrap_or_else(Instant::now);
        for (ci, inp) in tick_inputs.iter().enumerate() {
            let c = fleet.get_mut(ci).expect("conference exists");
            tally.signaling += apply(c, now, inp);
        }
        let out = fleet.tick_all(now);
        for (ci, o) in out.iter().enumerate() {
            tally.acks += ack(fleet.get_mut(ci).expect("conference exists"), o);
        }
        let dt = t.elapsed().as_secs_f64();
        if k == 0 {
            setup_s = dt;
            tally.digests.push(digest(&out));
        } else {
            ticks_ms.push(dt * 1e3);
            tally.count(&out);
            tally.decided_qoe += decided_qoe(fleet.controllers());
        }
        if sample_rss {
            rss_mb.push(stats::rss_mb());
        }
    }
    tally.decided_qoe /= ticks.saturating_sub(1).max(1) as f64;
    let engine = fleet
        .controllers()
        .iter()
        .map(GsoController::engine_stats)
        .fold(EngineStats::default(), crate::add_engine);
    Untraced { setup_s, ticks_ms, rss_mb, tally, engine }
}

/// Phase times of one traced episode (ticks 1.., seconds).
#[derive(Debug, Clone, Copy, Default)]
struct PhaseTimes {
    wall: f64,
    report: f64,
    prepare: f64,
    solve: f64,
    commit: f64,
    ack: f64,
    reports: u64,
    allocs: u64,
}

struct Traced {
    times: PhaseTimes,
    tally: Tally,
    engine: EngineStats,
    /// Sampled (problem, fresh solution) pairs for the solver cross-check.
    samples: Vec<(Arc<Problem>, Solution)>,
    /// Each conference's last solved round: (problem, committed solution).
    finals: Vec<Option<(Arc<Problem>, Solution)>>,
}

/// A traced episode: the three tick phases driven by hand on a private
/// scheduler, with one engine per conference held by the ticking thread.
fn episode_traced(kind: FleetKind, seed: u64, ticks: u64) -> Traced {
    let cfg = ControllerConfig::paper_defaults();
    let solver_cfg = cfg.solver.clone();
    let mut inputs = Inputs::new(kind, seed);
    let mut sched = BatchScheduler::new(&BatchConfig { workers: WORKERS });
    let mut controllers: Vec<GsoController> =
        (0..CONFERENCES).map(|ci| GsoController::new(cfg.clone(), Ssrc(100 + ci as u32))).collect();
    let mut engines: Vec<SolveEngine> =
        (0..CONFERENCES).map(|_| SolveEngine::new(solver_cfg.clone())).collect();
    let mut tally = Tally::default();
    let mut pt = PhaseTimes::default();
    let mut samples = Vec::new();
    let mut finals: Vec<Option<(Arc<Problem>, Solution)>> = vec![None; CONFERENCES];
    let mut solved_rounds = 0u64;
    let lap = |t: &mut Instant| {
        let dt = t.elapsed().as_secs_f64();
        *t = Instant::now();
        dt
    };
    let mut wall = 0.0;
    for k in 0..ticks {
        let now = SimTime::from_millis(k * TICK_MS);
        let tick_inputs = inputs.tick(k);
        let measured = k > 0;
        let mut p = PhaseTimes::default();
        stats::count_allocs(measured);
        let start = Instant::now();
        let mut t = start;
        for (c, inp) in controllers.iter_mut().zip(&tick_inputs) {
            let n = apply(c, now, inp);
            tally.signaling += n;
            p.reports += n;
        }
        p.report = lap(&mut t);
        let allocs_before = stats::allocs();
        let preps: Vec<_> = controllers.iter_mut().map(|c| c.tick_prepare(now)).collect();
        p.prepare = lap(&mut t);
        let mut owners = Vec::new();
        let mut rows_before = Vec::new();
        let mut jobs = Vec::new();
        for (ci, (prep, _)) in preps.iter().enumerate() {
            if let TickPrep::Round(ctx) = prep {
                if !ctx.must_fall_back() {
                    let engine =
                        std::mem::replace(&mut engines[ci], SolveEngine::new(solver_cfg.clone()));
                    rows_before.push(engine.stats().rows_recomputed);
                    owners.push(ci);
                    jobs.push(BatchJob {
                        engine,
                        problem: Arc::clone(ctx.problem()),
                        traced: false,
                    });
                }
            }
        }
        let results = sched.solve_batch(jobs);
        let mut solved: Vec<Option<SolveOutcome>> = (0..CONFERENCES).map(|_| None).collect();
        let mut fresh: Vec<Option<Solution>> = vec![None; CONFERENCES];
        for ((ci, r), before) in owners.into_iter().zip(results).zip(rows_before) {
            let rows_delta = r.engine.stats().rows_recomputed - before;
            engines[ci] = r.engine;
            solved_rounds += 1;
            if solved_rounds.is_multiple_of(SAMPLE_EVERY) {
                stats::count_allocs(false);
                fresh[ci] = Some(r.solution.clone());
                stats::count_allocs(measured);
            }
            solved[ci] = Some(SolveOutcome { solution: r.solution, trace: None, rows_delta });
        }
        p.solve = lap(&mut t);
        let mut problems: Vec<Option<Arc<Problem>>> = vec![None; CONFERENCES];
        let out: Vec<FleetTick> = controllers
            .iter_mut()
            .zip(preps)
            .zip(solved)
            .enumerate()
            .map(|(ci, ((c, (prep, retx)), solved))| {
                let out = match prep {
                    TickPrep::Idle => None,
                    TickPrep::Round(ctx) => {
                        if solved.is_some() {
                            problems[ci] = Some(Arc::clone(ctx.problem()));
                        }
                        c.tick_commit(now, ctx, solved)
                    }
                };
                (out, retx)
            })
            .collect();
        p.commit = lap(&mut t);
        p.allocs = stats::allocs() - allocs_before;
        for (c, o) in controllers.iter_mut().zip(&out) {
            tally.acks += ack(c, o);
        }
        p.ack = lap(&mut t);
        p.wall = start.elapsed().as_secs_f64();
        stats::count_allocs(false);
        // Untimed bookkeeping for the checks.
        for (ci, problem) in problems.into_iter().enumerate() {
            let Some(problem) = problem else { continue };
            if let Some(s) = fresh[ci].take() {
                samples.push((Arc::clone(&problem), s));
            }
            if let Some(o) = out[ci].0.as_ref().filter(|o| !o.fallback) {
                finals[ci] = Some((problem, o.solution.clone()));
            }
        }
        if measured {
            tally.count(&out);
            tally.decided_qoe += decided_qoe(&controllers);
            wall += p.wall;
            pt.report += p.report;
            pt.prepare += p.prepare;
            pt.solve += p.solve;
            pt.commit += p.commit;
            pt.ack += p.ack;
            pt.reports += p.reports;
            pt.allocs += p.allocs;
        } else {
            tally.digests.push(digest(&out));
        }
    }
    pt.wall = wall;
    tally.decided_qoe /= ticks.saturating_sub(1).max(1) as f64;
    let engine =
        engines.iter().map(SolveEngine::stats).fold(EngineStats::default(), crate::add_engine);
    Traced { times: pt, tally, engine, samples, finals }
}

/// Output checks of a traced episode against the untraced reference.
fn check_traced(checks: &mut Checks, label: &str, tr: &Traced, reference: &Untraced) {
    checks.check(tr.tally == reference.tally, || {
        format!("{label}: three-phase outputs differ from tick_all's")
    });
    checks.check(tr.engine == reference.engine, || {
        format!("{label}: three-phase engine counts differ from tick_all's")
    });
    checks.check(tr.tally.rounds > 0, || format!("{label}: no rounds"));
    let cfg = SolverConfig::default();
    for (problem, fresh) in &tr.samples {
        checks.check(*fresh == solver::solve(problem, &cfg), || {
            format!("{label}: fleet round differs from solver::solve")
        });
    }
    checks.check(!tr.samples.is_empty(), || format!("{label}: no rounds sampled"));
    let auditor = gso_audit::SolutionAuditor::new();
    for (ci, f) in tr.finals.iter().enumerate() {
        let Some((problem, solution)) = f else {
            checks.check(false, || format!("{label}: conference {ci} never solved a round"));
            continue;
        };
        let findings = auditor.audit_constraints(problem, solution);
        checks.check(findings.is_empty(), || {
            format!(
                "{label}: conference {ci} final solution fails the audit: {}",
                gso_audit::report(&findings)
            )
        });
    }
}

/// Run one fleet workload within `budget` and check it.
pub fn run(kind: FleetKind, seed: u64, held_out: u64, budget: &Budget, traced: bool) -> Outcome {
    let mut checks = Checks::default();
    let mut o = Outcome::default();
    // Set-up, timed apart as well: fleet and controllers built, workers
    // started, and the first (cold) tick run. Timed first, as on the
    // simulator, so every run measures it from the same allocator state.
    let mut setup: Vec<f64> =
        (0..SETUP_REPS).map(|_| episode_untraced(kind, seed, 1, false).setup_s).collect();
    // The reference episode the others must reproduce.
    let t = Instant::now();
    let reference = episode_untraced(kind, seed, TICKS, true);
    let reference_took = t.elapsed();
    // Held-out seed: the three-phase pass, the solver samples and the
    // audit on a second input stream.
    let held_ref = episode_untraced(kind, held_out, HELD_OUT_TICKS, false);
    let held = episode_traced(kind, held_out, HELD_OUT_TICKS);
    check_traced(&mut checks, "held-out", &held, &held_ref);
    o.detail
        .int("held_out_rounds", held_ref.tally.rounds)
        .num("held_out_decided_qoe", held_ref.tally.decided_qoe);
    if traced {
        let mut eps = Vec::new();
        let mut took = Vec::new();
        while budget.another(&took) {
            let t = Instant::now();
            eps.push(episode_traced(kind, seed, TICKS));
            took.push(t.elapsed());
        }
        for tr in &eps {
            check_traced(&mut checks, "seed", tr, &reference);
        }
        // The ledger of the episode with the median traced wall time.
        let mut order: Vec<usize> = (0..eps.len()).collect();
        order.sort_by(|&a, &b| eps[a].times.wall.total_cmp(&eps[b].times.wall));
        let mid = &eps[order[order.len() / 2]];
        let p = mid.times;
        let wall_ms = p.wall * 1e3;
        let parts = [p.report, p.prepare, p.solve, p.commit, p.ack].map(|s| s * 1e3);
        let layer_sum: f64 = parts.iter().sum();
        let t = &eps[0];
        let rounds = t.tally.rounds as f64;
        let l = &mut o.layers;
        l.set("control.report_us", parts[0] * 1e3 / p.reports.max(1) as f64);
        l.set("control.prepare_ms", parts[1]);
        l.set("algo.solve_ms", parts[2]);
        l.set("control.commit_ms", parts[3]);
        l.set("control.ack_ms", parts[4]);
        l.set("control.rounds", rounds);
        l.set("control.fallback_rounds", t.tally.fallback_rounds as f64);
        l.set("control.gtmb_configs", t.tally.gtmb_configs as f64);
        l.set("algo.allocs_per_round", t.times.allocs as f64 / rounds.max(1.0));
        crate::set_engine_layers(l, &t.engine);
        // Whole episodes, wall clock, untraced reference against traced.
        let walls: Vec<f64> = took.iter().map(Duration::as_secs_f64).collect();
        let ratio = reference_took.as_secs_f64() / stats::median(&walls);
        crate::set_ledger(l, wall_ms, layer_sum, ratio);
        for e in &eps[1..] {
            checks.check(e.engine == t.engine && e.times.allocs == t.times.allocs, || {
                "engine counts or allocations differ between repetitions".to_string()
            });
        }
        o.detail.int("episodes", eps.len() as u64);
    } else {
        let mut eps = vec![reference];
        let mut took = vec![reference_took];
        while budget.another(&took) {
            let t = Instant::now();
            let e = episode_untraced(kind, seed, TICKS, false);
            took.push(t.elapsed());
            checks.check(e.tally == eps[0].tally && e.engine == eps[0].engine, || {
                "episode outputs differ between repetitions".into()
            });
            eps.push(e);
        }
        setup.extend(eps.iter().map(|e| e.setup_s));
        let t = &eps[0].tally;
        // The resident set over the first episode, sampled after every tick.
        let rss = &eps[0].rss_mb;
        // The typical episode, rebuilt tick by tick: every tick takes its
        // median time over the episodes. A tick lasts a few milliseconds,
        // so its fastest time over many episodes is an extreme that moves
        // with whether the run happened to catch a fast phase of the host;
        // the median ignores slow outliers without chasing fast ones.
        let ticks: Vec<f64> = (0..eps[0].ticks_ms.len())
            .map(|j| stats::median(&eps.iter().map(|e| e.ticks_ms[j]).collect::<Vec<_>>()))
            .collect();
        let wall_s = ticks.iter().sum::<f64>() / 1e3;
        let walls: Vec<f64> = eps.iter().map(|e| e.ticks_ms.iter().sum::<f64>() / 1e3).collect();
        let rate =
            |x: f64| Summary::robust(x / wall_s, &walls.iter().map(|w| x / w).collect::<Vec<_>>());
        let sim_s = (TICKS - 1) as f64 * TICK_MS as f64 / 1e3;
        let (tail_p, tail_ms) = stats::tail(&ticks);
        let solved = 1.0 - t.fallback_rounds as f64 / t.rounds.max(1) as f64;
        o.e2e.extend([
            ("setup_s", "s", Summary::of(&setup)),
            ("sim_rate", "sim-s/s", rate(sim_s)),
            ("pkts_per_s", "1/s", rate(t.packets() as f64)),
            ("rounds_per_s", "1/s", rate(t.rounds as f64)),
            ("step_p50_ms", "ms", Summary::single(stats::median(&ticks), ticks.len())),
            ("step_tail_ms", "ms", Summary::single(tail_ms, ticks.len())),
            ("solved_ratio", "ratio", Summary::exact(solved)),
            ("decided_qoe", "qoe", Summary::exact(t.decided_qoe)),
            ("rss_mb", "MiB", Summary::robust(stats::mean(rss), rss)),
        ]);
        let e = &eps[0].engine;
        o.detail
            .int("episodes", eps.len() as u64)
            .num("step_tail_percentile", tail_p)
            .num("fallback_ratio", 1.0 - solved)
            .int("rounds", t.rounds)
            .int("gtmb_configs", t.gtmb_configs)
            .int("retransmissions", t.retransmissions)
            .int("control_packets", t.packets())
            .int("rows_recomputed", e.rows_recomputed)
            .int("rows_reused", e.rows_reused);
    }
    o.checks = checks;
    o
}
