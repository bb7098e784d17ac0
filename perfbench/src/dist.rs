//! `dist-t2`: the distributed engine over loopback TCP — the hub on the
//! calling thread (`run_hub_on`) and one benchmark-spawned thread per
//! entity (`serve_entity`), each reading its own CPU time from `/proc`.

use crate::common::{self, check_run, mix, us, Expect};
use crate::hostspeed::Speed;
use crate::local::{self, Local};
use crate::procfs;
use crate::report::Outcome;
use crate::stats::{self, median};
use crate::tap;
use protogen::pipeline::Derived;
use runtime::{
    run_hub_on, serve_entity, DistributedConfig, RuntimeConfig, RuntimeReport, ServeConfig,
};
use std::hint::black_box;
use std::time::{Duration, Instant};
use transport::{Addr, WireMsg};

/// Sessions replayed through the monitor, and sessions of the run whose
/// wire traffic is captured for the codec timing (traced runs).
const LAYER_SESSIONS: usize = 2_000;
/// Timed passes over the captured frames; the median is reported.
const CODEC_PASSES: usize = 5;

/// What one hub run measured beyond its report.
struct Round {
    wall: Duration,
    process_ticks: u64,
    hub_ticks: u64,
    entity_ticks: u64,
    /// Link counters of each entity, from `serve_entity`.
    entity_links: Vec<runtime::LinkReport>,
    /// Every byte each entity connection carried, when relayed.
    captured: Option<Vec<tap::Capture>>,
}

/// One hub run of `cfg.sessions` sessions against freshly started
/// entities, connected through a recording relay when `capture` is set.
/// A failed hub or entity counts every session as failed.
fn round(
    d: &Derived,
    cfg: &RuntimeConfig,
    capture: bool,
    out: &mut Outcome,
) -> Option<(RuntimeReport, Round)> {
    let dcfg = DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()));
    let listener = dcfg.listen.listen().expect("bind a loopback listener");
    let mut hub = listener.local_addr().expect("listener address");
    let relay = capture.then(|| {
        let Addr::Tcp(target) = &hub else {
            unreachable!("a TCP listener")
        };
        let relay = tap::Tap::start(target.parse().expect("socket address")).expect("start relay");
        hub = Addr::Tcp(relay.addr().to_string());
        relay
    });
    let p0 = procfs::process_ticks();
    let (report, wall, hub_ticks, entities) = std::thread::scope(|s| {
        let handles: Vec<_> = d
            .derivation()
            .entities
            .iter()
            .map(|(place, spec)| {
                let mut scfg = ServeConfig::new(hub.clone(), *place);
                scfg.backend = cfg.backend;
                scfg.seed = cfg.seed;
                scfg.refuse = cfg.refuse.clone();
                scfg.backoff_base = Duration::from_millis(15);
                scfg.backoff_cap = Duration::from_millis(300);
                scfg.retry_budget = 10;
                s.spawn(move || {
                    let t0 = procfs::thread_ticks();
                    let outcome = serve_entity(spec, &scfg);
                    (outcome, procfs::thread_ticks() - t0)
                })
            })
            .collect();
        let h0 = procfs::thread_ticks();
        let t = Instant::now();
        let report = run_hub_on(d.derivation(), cfg, &dcfg, listener);
        let wall = t.elapsed();
        let hub_ticks = procfs::thread_ticks() - h0;
        let entities: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("entity thread panicked"))
            .collect();
        (report, wall, hub_ticks, entities)
    });
    let process_ticks = procfs::process_ticks() - p0;
    let captured = relay.map(tap::Tap::finish);
    let mut entity_ticks = 0;
    let mut entity_links = Vec::new();
    let mut entities_ok = true;
    for (outcome, ticks) in entities {
        entity_ticks += ticks;
        match outcome {
            Ok(o) => entity_links.push(o.link),
            Err(e) => {
                out.note(format!("entity failed: {e}"));
                entities_ok = false;
            }
        }
    }
    match report {
        Ok(report) if entities_ok => {
            check_run(out, &report, cfg.sessions);
            Some((
                report,
                Round {
                    wall,
                    process_ticks,
                    hub_ticks,
                    entity_ticks,
                    entity_links,
                    captured,
                },
            ))
        }
        Ok(_) | Err(_) => {
            if let Err(e) = report {
                out.note(format!("hub failed: {e}"));
            }
            out.check(cfg.sessions as u64, cfg.sessions as u64);
            None
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let w = Local {
        spec: "transport2.lotos",
        faults: runtime::FaultProfile::None,
        refuse: &[],
        expect: Expect::EQUAL,
        round: 10_000,
        warmup: 1_000,
        scaled: &[
            ("setup_s", 0.35),
            ("sessions_per_s", 0.95),
            ("session_p50_us", 1.05),
            ("cpu_us_per_session", 1.05),
            ("verify_total_ms", 0.9),
            ("verify_geomean_ms", 0.9),
        ],
    };
    let mut out = Outcome::default();
    let mut speed = Speed::default();
    speed.probe();
    let d = local::setup(w.spec, &mut out, |d, k, out| {
        round(
            d,
            &local::config(&w, mix(seed, 1_000 + k)).sessions(w.warmup),
            false,
            out,
        );
    });
    let case = local::own_case(w.spec, w.expect);
    let mut passes = Vec::new();

    // Measured rounds, each a hub run and one derive + verify pass over
    // the workload's spec. The per-thread CPU reads are one `/proc` read per
    // thread per hub run, so traced and untraced rounds differ only in
    // which tally they feed. A traced run alternates the two.
    let mut plain = common::SessionTally::default();
    let mut traced = common::SessionTally::default();
    let (mut hub_ticks, mut entity_ticks) = (0u64, 0u64);
    let mut links = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0u64;
    while k < 2 || Instant::now() < deadline {
        let cfg = local::config(&w, mix(seed, k)).sessions(w.round);
        let Some((report, r)) = round(&d, &cfg, false, &mut out) else {
            return out;
        };
        if trace && k % 2 == 1 {
            traced.absorb(std::slice::from_ref(&report), r.wall, r.process_ticks);
            hub_ticks += r.hub_ticks;
            entity_ticks += r.entity_ticks;
            links.extend(report.per_link.values().copied());
        } else {
            plain.absorb(std::slice::from_ref(&report), r.wall, r.process_ticks);
        }
        if k == 0 {
            out.note(format!("backend {}", report.backend));
        }
        passes.push(common::verify_pass(std::slice::from_ref(&case), &mut out).0);
        speed.probe();
        k += 1;
    }
    out.set("peak_rss_mb", procfs::peak_rss_mb());
    out.set_speed(&speed, w.scaled);
    common::record_verify(&passes, &mut out);
    plain.record(&mut out);
    if !trace {
        return out;
    }

    let sessions = traced.sessions();
    let cpu_us = |ticks| us(procfs::ticks_to_duration(ticks));
    out.set(
        "hub.cpu_us_per_session",
        stats::per(cpu_us(hub_ticks), sessions),
    );
    out.set(
        "entity.cpu_us_per_session",
        stats::per(cpu_us(entity_ticks), sessions),
    );
    out.set("hub.queue_wait_us", traced.stage_mean_us(0));
    out.set("hub.wire_us", traced.stage_mean_us(3));
    traced.record_medium(&mut out);
    let batches: usize = links.iter().map(|l| l.batches).sum();
    let bytes: usize = links.iter().map(|l| l.bytes_sent).sum();
    let acks: usize = links.iter().map(|l| l.piggybacked_acks).sum();
    out.set(
        "transport.batches_per_session",
        stats::per(batches as f64, sessions),
    );
    out.set(
        "transport.bytes_per_session",
        stats::per(bytes as f64, sessions),
    );
    out.set(
        "transport.piggybacked_acks_per_batch",
        stats::per(acks as f64, batches as u64),
    );
    let p50s: Vec<f64> = links
        .iter()
        .map(|l| l.frames_per_batch_p50 as f64)
        .collect();
    out.set("transport.frames_per_batch_p50", median(&p50s));
    out.set("trace.overhead_ratio", plain.rate() / traced.rate() - 1.0);

    let sims = common::simulated_sessions(&d, &local::config(&w, seed), LAYER_SESSIONS);
    let traces: Vec<_> = sims.iter().map(|s| s.trace.clone()).collect();
    common::time_monitor(&d, &traces, &mut out);

    let cfg = local::config(&w, mix(seed, 2_000)).sessions(LAYER_SESSIONS);
    if let Some((report, r)) = round(&d, &cfg, true, &mut out) {
        let places = d.derivation().entities.len();
        let captured = r.captured.expect("relayed round");
        time_codec(&report, &r.entity_links, places, &captured, &mut out);
    }
    out
}

/// The frames of one captured byte stream, in order.
fn decode_stream(bytes: &[u8]) -> Result<Vec<(u64, WireMsg, u64)>, String> {
    let mut dec = medium::codec::FrameDecoder::new();
    dec.feed(bytes);
    let mut frames = Vec::new();
    while let Some(frame) = dec.next().map_err(|e| format!("{e:?}"))? {
        frames.push(WireMsg::decode_full(&frame).map_err(|e| format!("{e:?}"))?);
    }
    if dec.pending() > 0 {
        return Err(format!("{} bytes of a partial frame", dec.pending()));
    }
    Ok(frames)
}

fn kind(m: &WireMsg) -> &'static str {
    match m {
        WireMsg::Hello { .. } => "Hello",
        WireMsg::Welcome { .. } => "Welcome",
        WireMsg::Ack { .. } => "Ack",
        WireMsg::Heartbeat { .. } => "Heartbeat",
        WireMsg::HeartbeatAck { .. } => "HeartbeatAck",
        WireMsg::Open { .. } => "Open",
        WireMsg::Data { .. } => "Data",
        WireMsg::Prim { .. } => "Prim",
        WireMsg::Status { .. } => "Status",
        WireMsg::Close { .. } => "Close",
        WireMsg::Shutdown => "Shutdown",
        WireMsg::Trace { .. } => "Trace",
    }
}

/// `codec.ns_per_frame`: the frames a relayed hub run really sent, both
/// directions of every entity link, encoded again with
/// `WireMsg::encode_into`, then split with `FrameDecoder` and decoded
/// with `WireMsg::decode_full`. The capture is checked against the run's
/// own counters first — Prim frames against the primitives, Data frames
/// (entity → hub and forwarded hub → entity) against the messages, Open
/// and Close frames against sessions × places, bytes against each side's
/// `bytes_sent` — and the timed frames must encode to the captured bytes
/// and decode back to themselves.
fn time_codec(
    report: &RuntimeReport,
    entity_links: &[runtime::LinkReport],
    places: usize,
    captured: &[tap::Capture],
    out: &mut Outcome,
) {
    // Every frame in stream order, and per direction.
    let (mut frames, mut up, mut down) = (Vec::new(), Vec::new(), Vec::new());
    let mut wire = Vec::new();
    for c in captured {
        for (bytes, dir) in [(&c.up, &mut up), (&c.down, &mut down)] {
            match decode_stream(bytes) {
                Ok(f) => {
                    dir.extend(f.iter().map(|(_, m, _)| kind(m)));
                    frames.extend(f);
                }
                Err(e) => {
                    out.note(format!("captured stream does not decode: {e}"));
                    out.check(1, 1);
                    return;
                }
            }
            wire.extend_from_slice(bytes);
        }
    }
    let count = |dir: &[&str], k: &str| dir.iter().filter(|&&d| d == k).count();
    // Handshake frames are written outside the batches `bytes_sent`
    // counts.
    let handshake = |k: &str| {
        frames
            .iter()
            .filter(|(_, m, _)| kind(m) == k)
            .map(|(seq, m, ack)| {
                let mut one = Vec::new();
                m.encode_into(*seq, *ack, &mut Vec::new(), &mut one);
                one.len()
            })
            .sum::<usize>()
    };
    let sessions = report.sessions;
    let up_bytes = captured.iter().map(|c| c.up.len()).sum::<usize>() - handshake("Hello");
    let down_bytes = captured.iter().map(|c| c.down.len()).sum::<usize>() - handshake("Welcome");
    let checks = [
        ("entity links", captured.len(), places),
        ("Prim frames", count(&up, "Prim"), report.primitives),
        ("entity Data frames", count(&up, "Data"), report.messages),
        (
            "forwarded Data frames",
            count(&down, "Data"),
            report.messages,
        ),
        ("Open frames", count(&down, "Open"), sessions * places),
        ("Close frames", count(&down, "Close"), sessions * places),
        (
            "hub bytes",
            down_bytes,
            report.per_link.values().map(|l| l.bytes_sent).sum(),
        ),
        (
            "entity bytes",
            up_bytes,
            entity_links.iter().map(|l| l.bytes_sent).sum(),
        ),
    ];
    for (what, got, want) in checks {
        if got != want {
            out.note(format!(
                "codec capture: {what} {got}, the run reports {want}"
            ));
        }
        out.check(1, u64::from(got != want));
    }
    let mut mix = std::collections::BTreeMap::new();
    for (_, m, _) in &frames {
        *mix.entry(kind(m)).or_insert(0usize) += 1;
    }
    out.note(format!(
        "codec frames per session: {}",
        mix.iter()
            .map(|(k, n)| format!("{k} {:.2}", *n as f64 / sessions as f64))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    let (mut scratch, mut encoded) = (Vec::new(), Vec::with_capacity(wire.len()));
    let mut decoded = Vec::with_capacity(frames.len());
    let mut times = Vec::new();
    for _ in 0..CODEC_PASSES {
        encoded.clear();
        decoded.clear();
        let t = Instant::now();
        for (seq, m, ack) in &frames {
            m.encode_into(*seq, *ack, &mut scratch, &mut encoded);
        }
        let mut dec = medium::codec::FrameDecoder::new();
        for chunk in encoded.chunks(16 * 1024) {
            dec.feed(chunk);
            while let Some(frame) = dec.next().expect("well-formed stream") {
                decoded.push(WireMsg::decode_full(&frame).expect("well-formed frame"));
            }
        }
        times.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
        black_box(&decoded);
    }
    let bad = usize::from(encoded != wire)
        + frames
            .iter()
            .zip(decoded.iter().map(Some).chain(std::iter::repeat(None)))
            .filter(|(f, d)| Some(*f) != *d)
            .count();
    if bad > 0 {
        out.note(format!("codec: {bad} frames or streams do not round-trip"));
    }
    out.check(frames.len() as u64 + 1, bad as u64);
    out.set("codec.ns_per_frame", median(&times));
}
