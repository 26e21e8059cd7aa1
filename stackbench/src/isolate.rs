//! Layers in isolation: each crate's per-packet (or per-frame) entry point
//! replayed over a packet corpus captured by a traced simulator run. These
//! costs are part of `sim.*.self_ms`; here they are timed one by one.

use crate::stats;
use crate::{Checks, Layers};
use bytes::Bytes;
use gso_algo::ladders;
use gso_bwe::{BweConfig, SendHistory, SenderBwe, TwccGenerator};
use gso_media::{EncoderConfig, FragmentHeader, LayerConfig, SimulcastEncoder, StreamReceiver};
use gso_net::{Link, LinkConfig, Pacer, PacerConfig, Packet};
use gso_rtp::{decode_ssrc, ssrc_for, RtcpPacket, RtpPacket};
use gso_sfu::LayerSwitcher;
use gso_telemetry::{keys, Telemetry};
use gso_util::{Bitrate, ClientId, DetRng, SimDuration, SimTime, StreamKind};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Packets kept per corpus list, shared out evenly over the workload's
/// scenarios; enough for stable per-packet costs.
const CAP: usize = 40_000;
/// Capture starts this far into each scenario, past the call's start-up.
const CAPTURE_FROM: SimTime = SimTime::from_secs(10);

/// A packet seen by one node at one simulated time.
pub struct Seen {
    pub at: SimTime,
    /// The node that saw it, made unique across scenarios (scenario index
    /// in the high bits), so per-node state is never shared between them.
    pub node: u32,
    pub data: Bytes,
}

/// Which corpus list a packet belongs to.
#[derive(Debug, Clone, Copy)]
pub enum List {
    /// Delivered to clients (downlink media and RTCP).
    ClientIn = 0,
    /// Sent by clients (uplink media and RTCP), at send time.
    ClientOut = 1,
    /// Delivered to accessing nodes.
    AccessIn = 2,
}

/// Packets captured from a traced run: from each scenario, the first
/// `CAP / scenarios` packets per list seen after [`CAPTURE_FROM`], so that
/// every scenario's traffic (clean, lossy, delayed, rate-limited) is in it.
#[derive(Default)]
pub struct Corpus {
    pub client_in: Vec<Seen>,
    pub client_out: Vec<Seen>,
    pub access_in: Vec<Seen>,
    case: u32,
    per_case: usize,
    /// List lengths when the current scenario started.
    case_start: [usize; 3],
}

impl Corpus {
    pub fn len(&self) -> usize {
        self.client_in.len() + self.client_out.len() + self.access_in.len()
    }

    /// Start capturing scenario `case` of `cases`.
    pub fn start_case(&mut self, case: u32, cases: usize) {
        self.case = case;
        self.per_case = CAP / cases.max(1);
        self.case_start = [self.client_in.len(), self.client_out.len(), self.access_in.len()];
    }

    pub fn push(&mut self, list: List, at: SimTime, node: u32, p: &Packet) {
        let start = self.case_start[list as usize];
        let v = match list {
            List::ClientIn => &mut self.client_in,
            List::ClientOut => &mut self.client_out,
            List::AccessIn => &mut self.access_in,
        };
        if at >= CAPTURE_FROM && v.len() - start < self.per_case {
            v.push(Seen { at, node: self.case << 16 | node, data: p.data.clone() });
        }
    }
}

/// RTCP packet types occupy 200..=206 in the second byte (RFC 5761 demux).
fn is_rtcp(data: &[u8]) -> bool {
    data.len() >= 2 && (200..=206).contains(&data[1])
}

/// Nanoseconds per operation of `f` over `n` operations: the median of
/// five timed replays, after one untimed warm-up replay.
fn ns_per_op(n: usize, mut f: impl FnMut()) -> f64 {
    if n == 0 {
        return 0.0;
    }
    f();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    stats::median(&samples)
}

/// Time every isolated layer over `corpus`, pushing one metric each.
pub fn measure(corpus: &Corpus, out: &mut Layers, checks: &mut Checks) {
    let rtp_in: Vec<(&Seen, RtpPacket)> = corpus
        .client_in
        .iter()
        .filter(|s| !is_rtcp(&s.data))
        .filter_map(|s| RtpPacket::parse(s.data.clone()).ok().map(|p| (s, p)))
        .collect();
    let rtcp: Vec<&Bytes> = corpus
        .client_in
        .iter()
        .chain(&corpus.access_in)
        .filter(|s| is_rtcp(&s.data))
        .map(|s| &s.data)
        .collect();
    checks.check(!rtp_in.is_empty() && !rtcp.is_empty(), || "empty isolation corpus".into());

    // rtp: parse and serialize the downlink media, parse every RTCP.
    let raw: Vec<&Bytes> = rtp_in.iter().map(|(s, _)| &s.data).collect();
    let parse = ns_per_op(raw.len(), || {
        for b in &raw {
            black_box(RtpPacket::parse((*b).clone()).ok());
        }
    });
    let serialize = ns_per_op(rtp_in.len(), || {
        for (_, p) in &rtp_in {
            black_box(p.serialize());
        }
    });
    let round_trip = rtp_in.iter().all(|(s, p)| p.serialize() == s.data);
    checks.check(round_trip, || "RTP serialize does not reproduce the wire bytes".into());
    let rtcp_parse = ns_per_op(rtcp.len(), || {
        for b in &rtcp {
            black_box(RtcpPacket::parse_compound((*b).clone()).ok());
        }
    });
    out.set("rtp.parse_ns", parse);
    out.set("rtp.serialize_ns", serialize);
    out.set("rtp.rtcp_parse_ns", rtcp_parse);

    // net: each scenario's uplink stream offered to a 3 Mbps link and
    // through a pacer, a fresh one per scenario.
    let sends: Vec<(u32, SimTime, Packet)> = corpus
        .client_out
        .iter()
        .map(|s| (s.node >> 16, s.at, Packet::new(s.data.clone())))
        .collect();
    let offer = ns_per_op(sends.len(), || {
        let mut cur: Option<(u32, Link)> = None;
        for (case, at, p) in &sends {
            if cur.as_ref().map(|(c, _)| c) != Some(case) {
                let cfg =
                    LinkConfig::clean(Bitrate::from_kbps(3_000), SimDuration::from_millis(20));
                cur = Some((*case, Link::new(cfg, DetRng::from_seed(1))));
            }
            let Some((_, link)) = cur.as_mut() else { continue };
            black_box(link.offer(*at, p));
        }
    });
    let pacer = ns_per_op(sends.len(), || {
        let mut cur: Option<(u32, Pacer)> = None;
        for (case, at, p) in &sends {
            if cur.as_ref().map(|(c, _)| c) != Some(case) {
                let cfg = PacerConfig::at_rate(Bitrate::from_kbps(3_000));
                cur = Some((*case, Pacer::new(cfg)));
            }
            let Some((_, pacer)) = cur.as_mut() else { continue };
            pacer.enqueue(p.clone());
            black_box(pacer.poll(*at));
        }
    });
    out.set("net.link_offer_ns", offer);
    out.set("net.pacer_ns", pacer);

    // bwe: TWCC generation per received packet, and the sender estimator
    // per transport-feedback message, replayed in capture order.
    let twcc = ns_per_op(rtp_in.len(), || {
        let mut gens: BTreeMap<u32, (TwccGenerator, SimTime)> = BTreeMap::new();
        for (s, p) in &rtp_in {
            let (g, next_poll) = gens.entry(s.node).or_insert((TwccGenerator::default(), s.at));
            g.on_packet(s.at, p.ssrc, p.sequence);
            if s.at >= *next_poll {
                *next_poll = s.at + SimDuration::from_millis(50);
                black_box(g.poll());
            }
        }
    });
    out.set("bwe.twcc_ns", twcc);
    out.set("bwe.on_feedback_ns", feedback_ns(corpus, checks));

    // sfu: the GSO forwarding decision per uplink video packet.
    let uplink_video: Vec<(u32, SimTime, RtpPacket)> = corpus
        .access_in
        .iter()
        .filter(|s| !is_rtcp(&s.data))
        .filter_map(|s| RtpPacket::parse(s.data.clone()).ok().map(|p| (s.node >> 16, s.at, p)))
        .filter(|(_, _, p)| matches!(decode_ssrc(p.ssrc), Some((_, StreamKind::Video, _))))
        .collect();
    let forward = ns_per_op(uplink_video.len(), || {
        let mut switchers: BTreeMap<(u32, ClientId), LayerSwitcher> = BTreeMap::new();
        for (case, at, p) in &uplink_video {
            let Some((publisher, _, _)) = decode_ssrc(p.ssrc) else { continue };
            let sw = switchers.entry((*case, publisher)).or_insert_with(|| {
                let mut sw = LayerSwitcher::new();
                sw.request_at(Some(p.ssrc), *at);
                sw
            });
            let key =
                FragmentHeader::parse(&p.payload).is_some_and(|h| h.keyframe && h.frag_index == 0);
            black_box(sw.should_forward_at(p.ssrc, key, *at));
        }
    });
    out.set("sfu.forward_ns", forward);

    // media: one simulcast encoder tick per frame, and the receiver per
    // downlink video packet.
    let frames = 900;
    let encode = ns_per_op(frames, || {
        let layers: Vec<LayerConfig> = ladders::fine15()
            .resolutions()
            .iter()
            .rev()
            .take(3)
            .zip([1_500, 800, 300])
            .map(|(r, kbps)| LayerConfig {
                ssrc: ssrc_for(ClientId(1), StreamKind::Video, r.0),
                resolution_lines: r.0,
                target: Bitrate::from_kbps(kbps),
            })
            .collect();
        let mut enc = SimulcastEncoder::new(EncoderConfig::default(), layers, DetRng::from_seed(1));
        let step = enc.frame_interval();
        let mut now = SimTime::ZERO;
        for _ in 0..frames {
            black_box(enc.tick(now));
            now += step;
        }
    });
    out.set("media.encode_us", encode / 1e3);
    let video_in: Vec<&(&Seen, RtpPacket)> = rtp_in
        .iter()
        .filter(|(_, p)| matches!(decode_ssrc(p.ssrc), Some((_, StreamKind::Video, _))))
        .collect();
    let receive = ns_per_op(video_in.len(), || {
        let mut receivers: BTreeMap<(u32, u32), StreamReceiver> = BTreeMap::new();
        for (s, p) in &video_in {
            let r =
                receivers.entry((s.node, p.ssrc.0)).or_insert_with(|| StreamReceiver::new(p.ssrc));
            black_box(r.on_packet(s.at, p));
        }
    });
    out.set("media.receive_ns", receive);

    // telemetry: one labelled counter increment.
    let labels: Vec<String> = (0..20).map(|i| format!("client{i}")).collect();
    let adds = 100_000;
    let add = ns_per_op(adds, || {
        let t = Telemetry::new("stackbench");
        for i in 0..adds {
            t.add(keys::NET_ENQUEUED, &labels[i % labels.len()], 1);
        }
        black_box(t.counter_total(keys::NET_ENQUEUED));
    });
    out.set("telemetry.add_ns", add);
}

/// `SenderBwe::on_feedback` per transport-feedback message: every client's
/// sends are recorded in a send history, every feedback message it
/// received is resolved against it, and only the estimator call is timed.
fn feedback_ns(corpus: &Corpus, checks: &mut Checks) -> f64 {
    // Merge sends and feedback arrivals into one capture-time order.
    enum Ev<'a> {
        Sent(&'a Seen, RtpPacket),
        Feedback(&'a Seen),
    }
    let mut evs: Vec<(SimTime, usize, Ev)> = Vec::new();
    for (i, s) in corpus.client_out.iter().enumerate() {
        if !is_rtcp(&s.data) {
            if let Ok(p) = RtpPacket::parse(s.data.clone()) {
                evs.push((s.at, i, Ev::Sent(s, p)));
            }
        }
    }
    for (i, s) in corpus.client_in.iter().enumerate() {
        if is_rtcp(&s.data) {
            evs.push((s.at, corpus.client_out.len() + i, Ev::Feedback(s)));
        }
    }
    evs.sort_by_key(|(at, i, _)| (*at, *i));
    let mut samples = Vec::new();
    for _ in 0..5 {
        let mut history: BTreeMap<u32, SendHistory> = BTreeMap::new();
        let mut bwe: BTreeMap<u32, SenderBwe> = BTreeMap::new();
        let mut calls = 0u64;
        let mut nanos = 0u128;
        for (_, _, ev) in &evs {
            match ev {
                Ev::Sent(s, p) => history.entry(s.node).or_default().record(
                    p.ssrc,
                    p.sequence,
                    s.at,
                    p.wire_len() + 28,
                    false,
                ),
                Ev::Feedback(s) => {
                    let Ok(packets) = RtcpPacket::parse_compound(s.data.clone()) else { continue };
                    let h = history.entry(s.node).or_default();
                    let mut results = Vec::new();
                    for p in packets {
                        if let RtcpPacket::TransportFeedback(fb) = p {
                            results.extend(h.resolve(fb.sender_ssrc, &fb));
                        }
                    }
                    if results.is_empty() {
                        continue;
                    }
                    results.sort_by_key(|r| r.sent_at);
                    let b =
                        bwe.entry(s.node).or_insert_with(|| SenderBwe::new(BweConfig::default()));
                    let t = Instant::now();
                    b.on_feedback(s.at, &results);
                    nanos += t.elapsed().as_nanos();
                    calls += 1;
                }
            }
        }
        if calls > 0 {
            samples.push(nanos as f64 / calls as f64);
        }
    }
    checks.check(!samples.is_empty(), || "no transport feedback resolved in the corpus".into());
    if samples.is_empty() {
        0.0
    } else {
        stats::median(&samples)
    }
}
