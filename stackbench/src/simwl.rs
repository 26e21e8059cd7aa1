//! The conference-simulator workload, `meeting20`, and the slow-link
//! matrix its traced runs check and sample.
//!
//! Untraced passes drive `Scenario::build` + `Simulator::run_until` in
//! 100 ms slices + `Scenario::harvest`, which processes exactly the events
//! one `Scenario::run` call does. Traced passes rebuild the same wiring
//! with every node wrapped in [`Timed`], which times each callback and
//! captures a packet corpus for the isolation measurements.

use crate::isolate::{Corpus, List};
use crate::stats::{self, Summary};
use crate::{Budget, Checks, Outcome};
use gso_algo::{ladders, Resolution};
use gso_net::{Actions, LinkConfig, Node, NodeId, Packet, Simulator};
use gso_sim::access::AccessNode;
use gso_sim::conference::{ConferenceNode, SPEAKER_EVENT};
use gso_sim::workloads::{slow_link_cases, slow_link_scenario};
use gso_sim::{ClientConfig, ClientNode, ClientScenario, PolicyMode, Scenario, WiredConference};
use gso_telemetry::{keys, Telemetry};
use gso_util::{Bitrate, ClientId, SimDuration, SimTime};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Meetings per pass, and the simulated length of each.
const MEETINGS: u64 = 4;
const MEETING_SECS: u64 = 10;
const SLICE: SimDuration = SimDuration::from_millis(100);
/// Set-up is timed this many times per run; the median is reported.
const SETUP_REPS: usize = 101;

/// Fig 8 floors (`crates/sim/src/experiments/fig8.rs`): the normal case.
const NORMAL_MIN_FPS: f64 = 12.0;
const NORMAL_MAX_STALL: f64 = 0.1;
const NORMAL_MIN_QUALITY: f64 = 30.0;
/// Floors every GSO conference must meet, impaired or not: media flows
/// (`tests/end_to_end_conference.rs` asserts framerate > 5 for every mode).
const ANY_MIN_FPS: f64 = 5.0;

/// The 15 slow-link cases of Table 2 / Fig 8, GSO, named. The seed picks
/// the simulator's random streams (loss, jitter, encoder frame sizes); the
/// program only receives the generated scenarios.
pub fn slow_link(seed: u64) -> Vec<(String, Scenario)> {
    slow_link_cases()
        .into_iter()
        .map(|c| (c.name.to_string(), slow_link_scenario(PolicyMode::Gso, c, seed)))
        .collect()
}

/// [`MEETINGS`] independent 20-party all-to-all GSO meetings, each with
/// its own seed drawn from `seed`: clients 1, 4, 7, ... have 1.5 Mbps
/// downlinks and the rest 4 Mbps, and the speaker changes every 4 s. How
/// much a meeting costs per event depends on how congestion plays out,
/// which differs from seed to seed; several draws per pass make the
/// workload's cost the average over them.
pub fn meeting20(seed: u64) -> Vec<(String, Scenario)> {
    const PARTIES: u32 = 20;
    let ladder = ladders::fine15();
    let duration = SimDuration::from_secs(MEETING_SECS);
    // A fixed speaker order (1, 8, 15, ...): which client speaks moves the
    // work more than anything else, and the seed should not.
    let speaker_schedule: Vec<_> = (0..MEETING_SECS.div_ceil(4))
        .map(|k| (SimTime::from_secs(4 * k), Some(ClientId(1 + (k as u32 * 7) % PARTIES))))
        .collect();
    (0..MEETINGS)
        .map(|m| {
            let clients = (0..PARTIES)
                .map(|i| {
                    let down = if i.is_multiple_of(3) {
                        Bitrate::from_kbps(1_500)
                    } else {
                        Bitrate::from_mbps(4)
                    };
                    ClientScenario::clean(
                        ClientId(i + 1),
                        Bitrate::from_mbps(4),
                        down,
                        ladder.clone(),
                    )
                })
                .collect();
            let mut s = Scenario {
                seed: seed.wrapping_mul(MEETINGS).wrapping_add(m),
                mode: PolicyMode::Gso,
                duration,
                clients,
                speaker_schedule: speaker_schedule.clone(),
                standby: false,
            };
            s.subscribe_all_to_all(Resolution::R720);
            (format!("meeting20/{m}"), s)
        })
        .collect()
}

/// The timed scenarios of the workload.
pub fn scenarios(seed: u64) -> Vec<(String, Scenario)> {
    meeting20(seed)
}

/// What one scenario run produced, traced or not.
struct PassOut {
    sim_s: f64,
    /// Wall seconds of run + harvest (wiring is set-up, reported apart).
    wall_s: f64,
    build_s: f64,
    harvest_s: f64,
    slices_ms: Vec<f64>,
    events: u64,
    pkts: u64,
    drop_queue: u64,
    drop_loss: u64,
    peak_queue_bytes: u64,
    rounds: u64,
    fallback_rounds: u64,
    gtmb_configs: u64,
    engine: gso_algo::EngineStats,
    decided_qoe: f64,
    framerate: f64,
    stall: f64,
    quality: f64,
    metrics_json: String,
    /// Resident set (MiB) after every slice, when asked for.
    rss_mb: Vec<f64>,
}

/// Read everything the metrics need from a run wired conference, harvest
/// it, and time the pieces.
fn finish(sc: &Scenario, wired: WiredConference, end: SimTime, mut out: PassOut) -> PassOut {
    for (_, st) in wired.sim.all_link_stats() {
        out.pkts += st.enqueued;
        out.drop_queue += st.dropped_queue;
        out.drop_loss += st.dropped_loss;
        out.peak_queue_bytes = out.peak_queue_bytes.max(st.peak_queued_bytes);
    }
    if let Some(cn) = wired.sim.node::<ConferenceNode>(wired.cn) {
        out.engine = cn.controller.engine_stats();
    }
    let t = Instant::now();
    let r = sc.harvest(wired, end);
    out.harvest_s = t.elapsed().as_secs_f64();
    out.rounds = r.telemetry.counter_total(keys::CTRL_SOLVES);
    out.fallback_rounds = r.telemetry.counter_total(keys::CTRL_FALLBACK_ROUNDS);
    out.gtmb_configs = r.telemetry.counter_total(keys::GTMB_SENT);
    out.framerate = r.mean_framerate();
    out.stall = r.mean_video_stall();
    out.quality = mean(r.per_client.values().map(|m| m.quality));
    out.metrics_json = r.metrics_json;
    out
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn empty_pass(sc: &Scenario) -> PassOut {
    PassOut {
        sim_s: sc.duration.as_secs_f64(),
        wall_s: 0.0,
        build_s: 0.0,
        harvest_s: 0.0,
        slices_ms: Vec::new(),
        events: 0,
        pkts: 0,
        drop_queue: 0,
        drop_loss: 0,
        peak_queue_bytes: 0,
        rounds: 0,
        fallback_rounds: 0,
        gtmb_configs: 0,
        engine: gso_algo::EngineStats::default(),
        decided_qoe: 0.0,
        framerate: 0.0,
        stall: 0.0,
        quality: 0.0,
        metrics_json: String::new(),
        rss_mb: Vec::new(),
    }
}

/// Run a wired conference to `end` in 100 ms slices, recording each
/// slice's wall time and, between slices, the QoE of the
/// configuration the controller has committed (0 before its first round)
/// and, with `sample_rss`, the resident set.
fn run_slices(wired: &mut WiredConference, end: SimTime, out: &mut PassOut, sample_rss: bool) {
    let mut now = SimTime::ZERO;
    let mut qoe_sum = 0.0;
    let mut slice_start = Instant::now();
    while now < end {
        let next = (now + SLICE).min(end);
        out.events += wired.sim.run_until(next);
        out.slices_ms.push(slice_start.elapsed().as_secs_f64() * 1e3);
        qoe_sum += wired
            .sim
            .node::<ConferenceNode>(wired.cn)
            .and_then(|c| c.controller.last_solution())
            .map_or(0.0, |s| s.total_qoe);
        if sample_rss {
            out.rss_mb.push(stats::rss_mb());
        }
        slice_start = Instant::now();
        now = next;
    }
    out.decided_qoe = qoe_sum / out.slices_ms.len().max(1) as f64;
}

/// One untraced run.
fn run_untraced(sc: &Scenario, sample_rss: bool) -> PassOut {
    let mut out = empty_pass(sc);
    let end = SimTime::ZERO + sc.duration;
    let t = Instant::now();
    let mut wired = sc.build();
    out.build_s = t.elapsed().as_secs_f64();
    let run_start = Instant::now();
    run_slices(&mut wired, end, &mut out, sample_rss);
    let mut out = finish(sc, wired, end, out);
    out.wall_s = run_start.elapsed().as_secs_f64();
    out
}

/// Node roles the ledger attributes time to.
#[derive(Debug, Clone, Copy)]
enum Role {
    Client = 0,
    Access = 1,
    Conference = 2,
}

/// Per-role call counts and callback nanoseconds, plus the corpus.
#[derive(Default)]
struct Probe {
    calls: [Cell<u64>; 3],
    nanos: [Cell<u64>; 3],
    /// Time spent copying packets into the corpus (not a program layer).
    capture_ns: Cell<u64>,
    /// Whether packets are copied into the corpus (the first pass only).
    capturing: Cell<bool>,
    corpus: RefCell<Corpus>,
}

/// A node wrapper timing every callback of the wrapped node. Downcasts
/// forward to the wrapped node, so the harvest reads it unchanged.
struct Timed {
    inner: Box<dyn Node>,
    role: Role,
    /// The wrapped node's id, for grouping the corpus by node.
    node: u32,
    probe: Rc<Probe>,
}

impl Timed {
    fn record(&self, started: Instant) {
        let i = self.role as usize;
        let ns = started.elapsed().as_nanos() as u64;
        self.probe.calls[i].set(self.probe.calls[i].get() + 1);
        self.probe.nanos[i].set(self.probe.nanos[i].get() + ns);
    }

    /// Copy an arriving packet, or the packets a callback sent, into the
    /// corpus. Timed apart: capture is tracing work, not program work.
    fn capture(&self, now: SimTime, arrival: Option<&Packet>, sent: Option<&Actions>) {
        if !self.probe.capturing.get() {
            return;
        }
        let t = Instant::now();
        let mut corpus = self.probe.corpus.borrow_mut();
        let list = match self.role {
            Role::Client if arrival.is_some() => List::ClientIn,
            Role::Client => List::ClientOut,
            Role::Access => List::AccessIn,
            Role::Conference => return,
        };
        for p in
            arrival.into_iter().chain(sent.iter().flat_map(|a| a.sends().iter().map(|(_, p)| p)))
        {
            corpus.push(list, now, self.node, p);
        }
        drop(corpus);
        let ns = t.elapsed().as_nanos() as u64;
        self.probe.capture_ns.set(self.probe.capture_ns.get() + ns);
    }
}

impl Node for Timed {
    fn on_packet(&mut self, now: SimTime, from: NodeId, packet: Packet, out: &mut Actions) {
        self.capture(now, Some(&packet), None);
        let t = Instant::now();
        self.inner.on_packet(now, from, packet, out);
        self.record(t);
        if matches!(self.role, Role::Client) {
            self.capture(now, None, Some(out));
        }
    }

    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Actions) {
        let t = Instant::now();
        self.inner.on_timer(now, token, out);
        self.record(t);
        if matches!(self.role, Role::Client) {
            self.capture(now, None, Some(out));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// `Scenario::build`'s wiring with every node wrapped in [`Timed`]. Node
/// ids, links, boots and timers are created in the same order, so the run
/// is event-for-event the untraced one. Standby shards are not wired: no
/// workload asks for one.
fn build_wrapped(sc: &Scenario, probe: &Rc<Probe>) -> WiredConference {
    assert!(!sc.standby, "the traced wiring does not cover standby shards");
    // Every node is wrapped, so the n-th wrap is node id n.
    let next_id = Cell::new(0u32);
    let wrap = |node: Box<dyn Node>, role: Role| -> Box<dyn Node> {
        let id = next_id.get();
        next_id.set(id + 1);
        Box::new(Timed { inner: node, role, node: id, probe: Rc::clone(probe) })
    };
    let mut sim = Simulator::new(sc.seed);
    let telemetry = Telemetry::new(format!("{}-seed{}", sc.mode.short_name(), sc.seed));
    let cn = sim.add_node(wrap(
        Box::new(ConferenceNode::new(gso_control::ControllerConfig::paper_defaults(), Vec::new())),
        Role::Conference,
    ));
    let n_regions = sc.clients.iter().map(|c| c.region).max().unwrap_or(0) + 1;
    let ans: Vec<NodeId> = (0..n_regions)
        .map(|_| {
            let gso = (sc.mode == PolicyMode::Gso).then_some(cn);
            sim.add_node(wrap(Box::new(AccessNode::new(sc.mode, gso)), Role::Access))
        })
        .collect();
    let backbone =
        |delay_ms| LinkConfig::clean(Bitrate::from_mbps(1_000), SimDuration::from_millis(delay_ms));
    for &an in &ans {
        sim.add_duplex_link(an, cn, backbone(2));
        if let Some(conference) = sim.node_mut::<ConferenceNode>(cn) {
            conference.register_access_node(an);
        }
    }
    if let Some(conference) = sim.node_mut::<ConferenceNode>(cn) {
        conference.set_telemetry(telemetry.clone());
    }
    for &an in &ans {
        if let Some(access) = sim.node_mut::<AccessNode>(an) {
            access.set_telemetry(telemetry.clone());
        }
    }
    for i in 0..ans.len() {
        for j in (i + 1)..ans.len() {
            sim.add_duplex_link(ans[i], ans[j], backbone(40));
        }
    }
    let mut endpoints = BTreeMap::new();
    for (i, c) in sc.clients.iter().enumerate() {
        let region = c.region.min(ans.len() - 1);
        let an = ans[region];
        let cfg = ClientConfig {
            id: c.id,
            mode: sc.mode,
            ladder: c.ladder.clone(),
            screen_ladder: c.screen_ladder.clone(),
            subscriptions: c.subscriptions.clone(),
            audio: true,
            bwe: gso_bwe::BweConfig::default(),
        };
        let node = sim.add_node(wrap(Box::new(ClientNode::new(cfg, an, sc.seed)), Role::Client));
        endpoints.insert(c.id, node);
        if let Some(client) = sim.node_mut::<ClientNode>(node) {
            client.set_telemetry(telemetry.clone());
        }
        sim.add_link(node, an, c.uplink.clone());
        sim.add_link(an, node, c.downlink.clone());
        if let Some(access) = sim.node_mut::<AccessNode>(an) {
            access.attach(c.id, node);
        }
        for (r, &other) in ans.iter().enumerate() {
            if r != region {
                if let Some(access) = sim.node_mut::<AccessNode>(other) {
                    access.attach_remote(c.id, an);
                }
            }
        }
        sim.schedule_timer(node, SimTime::from_millis(137 * i as u64), 0);
    }
    ConferenceNode::schedule_boot(cn, &mut sim);
    for &an in &ans {
        AccessNode::schedule_boot(an, &mut sim);
    }
    for &(at, speaker) in &sc.speaker_schedule {
        let token = SPEAKER_EVENT | speaker.map_or(0, |c| u64::from(c.0) + 1);
        sim.schedule_timer(cn, at, token);
    }
    WiredConference { sim, telemetry, cn, standby: None, endpoints, ans }
}

/// Per-pass layer times of one traced run, in seconds.
#[derive(Default, Clone, Copy)]
struct LayerTimes {
    /// Build + run + harvest.
    wall: f64,
    build: f64,
    client: f64,
    access: f64,
    conference: f64,
    /// `run_until` minus the node callbacks and the corpus capture.
    net: f64,
    harvest: f64,
    capture: f64,
}

impl LayerTimes {
    fn add(self, o: LayerTimes) -> LayerTimes {
        LayerTimes {
            wall: self.wall + o.wall,
            build: self.build + o.build,
            client: self.client + o.client,
            access: self.access + o.access,
            conference: self.conference + o.conference,
            net: self.net + o.net,
            harvest: self.harvest + o.harvest,
            capture: self.capture + o.capture,
        }
    }
}

/// One traced run: wrapped wiring, callback times, corpus capture.
fn run_traced(sc: &Scenario, probe: &Rc<Probe>) -> (PassOut, LayerTimes) {
    let nanos = |p: &Probe| -> [u64; 3] { [0, 1, 2].map(|i| p.nanos[i].get()) };
    let ns_before = nanos(probe);
    let capture_before = probe.capture_ns.get();
    let mut out = empty_pass(sc);
    let end = SimTime::ZERO + sc.duration;
    let wall = Instant::now();
    let mut wired = build_wrapped(sc, probe);
    out.build_s = wall.elapsed().as_secs_f64();
    let run = Instant::now();
    run_slices(&mut wired, end, &mut out, false);
    let run_s = run.elapsed().as_secs_f64();
    let mut out = finish(sc, wired, end, out);
    let wall_s = wall.elapsed().as_secs_f64();
    out.wall_s = wall_s - out.build_s;
    let ns_after = nanos(probe);
    let ns: [f64; 3] = [0, 1, 2].map(|i| (ns_after[i] - ns_before[i]) as f64 * 1e-9);
    let capture = (probe.capture_ns.get() - capture_before) as f64 * 1e-9;
    let times = LayerTimes {
        wall: wall_s,
        build: out.build_s,
        client: ns[0],
        access: ns[1],
        conference: ns[2],
        net: run_s - ns.iter().sum::<f64>() - capture,
        harvest: out.harvest_s,
        capture,
    };
    (out, times)
}

/// Checks every GSO conference of the workload must pass.
fn check_floors(checks: &mut Checks, name: &str, p: &PassOut) {
    checks.check(p.framerate > ANY_MIN_FPS, || {
        format!("{name}: framerate {} <= {ANY_MIN_FPS}", p.framerate)
    });
    if name.ends_with("normal") {
        checks.check(p.framerate > NORMAL_MIN_FPS, || format!("{name}: framerate {}", p.framerate));
        checks.check(p.stall < NORMAL_MAX_STALL, || format!("{name}: stall {}", p.stall));
        checks.check(p.quality > NORMAL_MIN_QUALITY, || format!("{name}: quality {}", p.quality));
    }
    checks.check(p.rounds > 0, || format!("{name}: the controller never ran a round"));
    checks.check(p.pkts > 0 && p.events > 0, || format!("{name}: no traffic"));
}

/// Deterministic counts and simulated QoE of one pass over all scenarios;
/// compared exactly between repetitions.
#[derive(Debug, Clone, PartialEq)]
struct Counts {
    events: u64,
    pkts: u64,
    drop_queue: u64,
    drop_loss: u64,
    peak_queue_bytes: u64,
    rounds: u64,
    fallback_rounds: u64,
    gtmb_configs: u64,
    engine: gso_algo::EngineStats,
    decided_qoe: f64,
    framerate: f64,
    stall: f64,
}

impl Counts {
    fn of<'a>(passes: impl Iterator<Item = &'a PassOut> + Clone) -> Self {
        let sum = |f: fn(&PassOut) -> u64| passes.clone().map(f).sum::<u64>();
        let n = passes.clone().count() as f64;
        let engine = passes.clone().map(|p| p.engine).fold(Default::default(), crate::add_engine);
        Counts {
            events: sum(|p| p.events),
            pkts: sum(|p| p.pkts),
            drop_queue: sum(|p| p.drop_queue),
            drop_loss: sum(|p| p.drop_loss),
            peak_queue_bytes: passes.clone().map(|p| p.peak_queue_bytes).max().unwrap_or(0),
            rounds: sum(|p| p.rounds),
            fallback_rounds: sum(|p| p.fallback_rounds),
            gtmb_configs: sum(|p| p.gtmb_configs),
            engine,
            decided_qoe: passes.clone().map(|p| p.decided_qoe).sum(),
            framerate: passes.clone().map(|p| p.framerate).sum::<f64>() / n,
            stall: passes.map(|p| p.stall).sum::<f64>() / n,
        }
    }

    fn json(&self) -> String {
        let e = &self.engine;
        let mut o = stats::Obj::new();
        o.int("events", self.events)
            .int("pkts", self.pkts)
            .int("drop_queue", self.drop_queue)
            .int("drop_loss", self.drop_loss)
            .int("peak_queue_bytes", self.peak_queue_bytes)
            .int("rounds", self.rounds)
            .int("fallback_rounds", self.fallback_rounds)
            .int("gtmb_configs", self.gtmb_configs)
            .int("solves", e.solves)
            .int("knapsacks", e.knapsacks)
            .int("full_hits", e.full_hits)
            .int("backtracks", e.backtracks)
            .int("suffix_recomputes", e.suffix_recomputes)
            .int("fresh_recomputes", e.fresh_recomputes)
            .int("rows_recomputed", e.rows_recomputed)
            .int("rows_reused", e.rows_reused)
            .num("decided_qoe", self.decided_qoe)
            .num("framerate_fps", self.framerate)
            .num("video_stall", self.stall);
        o.finish()
    }
}

/// Run the workload within `budget` and check it. `held_out` is a second
/// seed whose scenarios must pass the same checks.
pub fn run(seed: u64, held_out: u64, budget: &Budget, traced: bool) -> Outcome {
    let mut checks = Checks::default();
    let scs = scenarios(seed);
    let mut outcome = if traced {
        run_traced_workload(&scs, seed, held_out, budget, &mut checks)
    } else {
        run_untraced_workload(&scs, seed, held_out, budget, &mut checks)
    };
    outcome.checks = checks;
    outcome
}

/// Held-out seed: one untraced pass, the same floors.
fn check_held_out(held_out: u64, checks: &mut Checks, o: &mut Outcome) {
    let held_scs = scenarios(held_out);
    let held: Vec<PassOut> = held_scs.iter().map(|(_, sc)| run_untraced(sc, false)).collect();
    for ((name, _), p) in held_scs.iter().zip(&held) {
        check_floors(checks, &format!("held-out {name}"), p);
    }
    o.detail.raw("held_out_counts", &Counts::of(held.iter()).json());
}

/// One untraced pass over every scenario, and how long it took. Pass `k`
/// runs on the `k`-th allowed CPU in turn: on a shared host one CPU can be
/// slowed by a co-tenant for a whole run, and the per-slice minimum over
/// passes then still sees the other. The first meeting of the first pass
/// also samples the resident set.
fn untraced_pass(scs: &[(String, Scenario)], cpus: &[usize], k: usize) -> (Vec<PassOut>, Duration) {
    let pinned = !cpus.is_empty();
    if pinned {
        stats::pin(&[cpus[k % cpus.len()]]);
    }
    let t = Instant::now();
    let pass =
        scs.iter().enumerate().map(|(i, (_, sc))| run_untraced(sc, k == 0 && i == 0)).collect();
    let took = t.elapsed();
    if pinned {
        stats::pin(cpus);
    }
    (pass, took)
}

fn run_untraced_workload(
    scs: &[(String, Scenario)],
    seed: u64,
    held_out: u64,
    budget: &Budget,
    checks: &mut Checks,
) -> Outcome {
    let mut o = Outcome::default();
    // Set-up: generate the scenarios from the seed and wire them. Timed
    // first, while the heap holds nothing else, so every run measures it
    // from the same allocator state.
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let built: Vec<_> = scenarios(seed).iter().map(|(_, s)| s.build()).collect();
            let dt = t.elapsed().as_secs_f64();
            drop(built);
            dt
        })
        .collect();
    let cpus = stats::allowed_cpus();
    let (first, took) = untraced_pass(scs, &cpus, 0);
    check_held_out(held_out, checks, &mut o);
    let mut passes = vec![first];
    let mut took = vec![took];
    while budget.another(&took) {
        let (pass, t) = untraced_pass(scs, &cpus, passes.len());
        passes.push(pass);
        took.push(t);
    }
    let first = &passes[0];
    for ((name, _), p) in scs.iter().zip(first) {
        check_floors(checks, name, p);
    }
    // Every repetition reproduces the first byte for byte.
    let counts = Counts::of(first.iter());
    for rep in &passes[1..] {
        for ((name, _), (a, b)) in scs.iter().zip(first.iter().zip(rep)) {
            checks.check(a.metrics_json == b.metrics_json, || {
                format!("{name}: export differs between repetitions")
            });
        }
        checks
            .check(Counts::of(rep.iter()) == counts, || "counts differ between repetitions".into());
    }
    let sim_s: f64 = first.iter().map(|p| p.sim_s).sum();
    // The undisturbed pass, rebuilt slice by slice: every 100 ms slice
    // (and every harvest) takes its fastest time over the passes, so host
    // interference during some passes does not move the result.
    let mut slices = Vec::new();
    let mut rest_s = 0.0;
    for i in 0..scs.len() {
        for j in 0..first[i].slices_ms.len() {
            slices.push(stats::undisturbed(
                &passes.iter().map(|ps| ps[i].slices_ms[j]).collect::<Vec<_>>(),
            ));
        }
        let rest: Vec<f64> = passes
            .iter()
            .map(|ps| ps[i].wall_s - ps[i].slices_ms.iter().sum::<f64>() / 1e3)
            .collect();
        rest_s += stats::undisturbed(&rest);
    }
    let wall_s = slices.iter().sum::<f64>() / 1e3 + rest_s;
    // Per-pass values give the quartiles in the record.
    let walls: Vec<f64> = passes.iter().map(|ps| ps.iter().map(|p| p.wall_s).sum()).collect();
    let rate =
        |x: f64| Summary::robust(x / wall_s, &walls.iter().map(|w| x / w).collect::<Vec<_>>());
    let (tail_p, tail_ms) = stats::tail(&slices);
    // The resident set over the first meeting, which starts from the heap
    // the set-up left, sampled after every slice: its mean, because the
    // peak is set by single reallocations that some seeds' meetings make
    // and others do not. Later meetings start from the heap the earlier
    // ones left, and whether glibc handed those pages back depends on
    // where the last live block sat: after one 28 MiB meeting a pass could
    // stay at 28 MiB or fall back to 14 MiB.
    let rss = &first[0].rss_mb;
    let solved = 1.0 - counts.fallback_rounds as f64 / counts.rounds.max(1) as f64;

    o.e2e.extend([
        ("setup_s", "s", Summary::of(&setup)),
        ("sim_rate", "sim-s/s", rate(sim_s)),
        ("pkts_per_s", "1/s", rate(counts.pkts as f64)),
        ("rounds_per_s", "1/s", rate(counts.rounds as f64)),
        ("step_p50_ms", "ms", Summary::single(stats::median(&slices), slices.len())),
        ("step_tail_ms", "ms", Summary::single(tail_ms, slices.len())),
        ("solved_ratio", "ratio", Summary::exact(solved)),
        ("decided_qoe", "qoe", Summary::exact(counts.decided_qoe)),
        ("rss_mb", "MiB", Summary::robust(stats::mean(rss), rss)),
    ]);
    o.detail
        .int("passes", passes.len() as u64)
        .num("sim_seconds_per_pass", sim_s)
        .num("step_tail_percentile", tail_p)
        .num("framerate_fps", counts.framerate)
        .num("video_stall", counts.stall)
        .num("fallback_ratio", 1.0 - solved)
        .raw("counts", &counts.json());
    o
}

/// One traced pass over every scenario: its per-scenario results, its
/// callback counts and how long it took. With `capture` set, scenario `i`
/// is corpus case `first_case + i` of `cases`.
fn traced_pass(
    scs: &[(String, Scenario)],
    probe: &Rc<Probe>,
    capture: Option<(u32, usize)>,
) -> (Vec<(PassOut, LayerTimes)>, [u64; 3], Duration) {
    let t = Instant::now();
    let before = [0, 1, 2].map(|i| probe.calls[i].get());
    probe.capturing.set(capture.is_some());
    let pass = scs
        .iter()
        .enumerate()
        .map(|(i, (_, sc))| {
            if let Some((first_case, cases)) = capture {
                probe.corpus.borrow_mut().start_case(first_case + i as u32, cases);
            }
            run_traced(sc, probe)
        })
        .collect();
    probe.capturing.set(false);
    let calls = [0, 1, 2].map(|i| probe.calls[i].get() - before[i]);
    (pass, calls, t.elapsed())
}

fn run_traced_workload(
    scs: &[(String, Scenario)],
    seed: u64,
    held_out: u64,
    budget: &Budget,
    checks: &mut Checks,
) -> Outcome {
    let mut o = Outcome::default();
    // Reference: `Scenario::run`, untraced; its rate is the overhead base.
    let t = Instant::now();
    let reference: Vec<_> = scs.iter().map(|(_, sc)| sc.run()).collect();
    let untraced_wall = t.elapsed().as_secs_f64();

    // The first traced pass also captures the isolation corpus.
    let probe = Rc::new(Probe::default());
    let slow = slow_link(seed);
    let cases = scs.len() + slow.len();
    let (pass, calls, t) = traced_pass(scs, &probe, Some((0, cases)));
    let (mut passes, mut calls_per_pass, mut took) = (vec![pass], vec![calls], vec![t]);
    // The Table 2 / Fig 8 slow-link matrix, traced once: it must meet the
    // Fig 8 floors and export what `Scenario::run` does, and it adds lossy,
    // delayed and rate-limited traffic to the corpus.
    let slow_ref: Vec<_> = slow.iter().map(|(_, sc)| sc.run()).collect();
    let (slow_pass, _, _) = traced_pass(&slow, &probe, Some((scs.len() as u32, cases)));
    for (((name, _), r), (p, _)) in slow.iter().zip(&slow_ref).zip(&slow_pass) {
        checks.check(p.metrics_json == r.metrics_json, || {
            format!("{name}: traced export differs from Scenario::run")
        });
        check_floors(checks, name, p);
    }
    o.detail.raw("slow_link_counts", &Counts::of(slow_pass.iter().map(|(p, _)| p)).json());
    let corpus = probe.corpus.take();
    crate::isolate::measure(&corpus, &mut o.layers, checks);
    check_held_out(held_out, checks, &mut o);
    while budget.another(&took) {
        let (pass, calls, t) = traced_pass(scs, &probe, None);
        passes.push(pass);
        calls_per_pass.push(calls);
        took.push(t);
    }
    // The export runs inside the harvest: time it again on the reference
    // registries (same content) and check it reproduces.
    let mut export_s = 0.0;
    for r in &reference {
        let t = Instant::now();
        let again = r.telemetry.export_json();
        export_s += t.elapsed().as_secs_f64();
        checks.check(again == r.metrics_json, || "telemetry export is not reproducible".into());
    }
    for rep in &passes {
        for (((name, _), r), (p, _)) in scs.iter().zip(&reference).zip(rep) {
            checks.check(p.metrics_json == r.metrics_json, || {
                format!("{name}: traced export differs from Scenario::run")
            });
        }
    }
    for ((name, _), (p, _)) in scs.iter().zip(&passes[0]) {
        check_floors(checks, name, p);
    }
    let counts = Counts::of(passes[0].iter().map(|(p, _)| p));
    for (rep, calls) in passes.iter().zip(&calls_per_pass).skip(1) {
        checks.check(*calls == calls_per_pass[0], || {
            "callback counts differ between repetitions".into()
        });
        checks.check(Counts::of(rep.iter().map(|(p, _)| p)) == counts, || {
            "deterministic counts differ between repetitions".into()
        });
    }

    // Per-pass layer sums; the ledger is the pass with the median wall.
    let mut sums: Vec<LayerTimes> = passes
        .iter()
        .map(|rep| rep.iter().fold(LayerTimes::default(), |a, (_, t)| a.add(*t)))
        .collect();
    sums.sort_by(|a, b| a.wall.total_cmp(&b.wall));
    let mid = sums[sums.len() / 2];
    let ms = |f: fn(&LayerTimes) -> f64| f(&mid) * 1e3;
    let export_ms = export_s * 1e3;
    let harvest_ms = (ms(|t| t.harvest) - export_ms).max(0.0);
    let net_ms = ms(|t| t.net);
    let calls = calls_per_pass[0];
    let sim_s: f64 = scs.iter().map(|(_, s)| s.duration.as_secs_f64()).sum();
    let traced_rate = sim_s / (ms(|t| t.wall) / 1e3);
    let untraced_rate = sim_s / untraced_wall;

    let l = &mut o.layers;
    l.set("sim.client.calls", calls[0] as f64);
    l.set("sim.client.self_ms", ms(|t| t.client));
    l.set("sim.access.calls", calls[1] as f64);
    l.set("sim.access.self_ms", ms(|t| t.access));
    l.set("sim.conference.calls", calls[2] as f64);
    l.set("sim.conference.self_ms", ms(|t| t.conference));
    l.set("sim.build_ms", ms(|t| t.build));
    l.set("sim.harvest_ms", harvest_ms);
    l.set("net.events", counts.events as f64);
    l.set("net.self_ms", net_ms);
    l.set("net.ns_per_event", net_ms * 1e6 / counts.events.max(1) as f64);
    l.set("net.pkts", counts.pkts as f64);
    l.set("net.drop_queue", counts.drop_queue as f64);
    l.set("net.drop_loss", counts.drop_loss as f64);
    l.set("net.peak_queue_bytes", counts.peak_queue_bytes as f64);
    l.set("telemetry.export_ms", export_ms);
    l.set("control.rounds", counts.rounds as f64);
    l.set("control.fallback_rounds", counts.fallback_rounds as f64);
    l.set("control.gtmb_configs", counts.gtmb_configs as f64);
    crate::set_engine_layers(l, &counts.engine);
    l.set("ledger.capture_ms", ms(|t| t.capture));
    let layer_sum = ms(|t| t.build)
        + ms(|t| t.client)
        + ms(|t| t.access)
        + ms(|t| t.conference)
        + net_ms
        + harvest_ms
        + export_ms;
    crate::set_ledger(l, ms(|t| t.wall), layer_sum, traced_rate / untraced_rate);
    o.detail
        .int("passes", passes.len() as u64)
        .raw("counts", &counts.json())
        .num("traced_sim_rate", traced_rate)
        .num("untraced_sim_rate", untraced_rate)
        .int("corpus_packets", corpus.len() as u64);
    o
}
