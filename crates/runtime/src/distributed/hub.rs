//! The hub's protocol logic with no sockets: the paper's medium and
//! monitor for every open session. [`HubCore`] takes accepted frames in
//! and puts the frames they cause into an [`Outbox`]; the socket loop
//! in the parent module owns every connection and timer.

use crate::config::RuntimeConfig;
use crate::entity::pack_msg_event;
use crate::exec::{ReplayCache, Tally};
use crate::metrics::{
    GaugeSnapshot, LinkReport, Metrics, RuntimeReport, SessionReport, StageBreakdown, StallRecord,
};
use crate::session::SessionEnd;
use crate::stall::{StallTracker, MAX_STALLS};
use lotos::ast::Spec;
use lotos::place::PlaceId;
use obs::{EventKind, Recorder, Registry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::WireMsg;

/// Where the hub's outgoing frames go, by dense entity index.
pub(crate) trait Outbox {
    /// Queue a frame for entity `idx`. A sequenced frame reaches the
    /// entity exactly once, across reconnects; control traffic is dropped
    /// while the entity is disconnected. Transport trouble is noted in
    /// `events`.
    fn send(&mut self, idx: usize, msg: WireMsg, events: &mut Vec<String>);
}

/// Frames recorded in order — an outbox for driving [`HubCore`] without
/// sockets.
impl Outbox for Vec<(usize, WireMsg)> {
    fn send(&mut self, idx: usize, msg: WireMsg, _events: &mut Vec<String>) {
        self.push((idx, msg));
    }
}

/// Latest scheduling status an entity reported for one session.
#[derive(Clone, Copy, Debug)]
struct StatusRec {
    seen: u64,
    vote: bool,
    inbox_empty: bool,
    steps: u64,
}

/// What the hub just observed for a session — drives which stage the
/// interval since the previous observation is attributed to.
#[derive(Clone, Copy)]
enum Mark {
    /// Work arrived (a `Prim` or a `Data` frame): the entities were
    /// stepping.
    Step,
    /// A scheduling report arrived (`Status`) or the session closed:
    /// the entities were parked or parking.
    Notify,
}

struct HubSession {
    id: u64,
    seed: u64,
    trace: Vec<(String, PlaceId)>,
    /// Data frames forwarded to each entity (by dense index).
    forwarded: Vec<u64>,
    /// Data frames each entity has *reported seeing* (its latest
    /// `Status.seen`) — `Σforwarded − Σacked` is the hub's estimate of
    /// frames still on the wire.
    acked: Vec<u64>,
    status: Vec<Option<StatusRec>>,
    messages: usize,
    started: Instant,
    last_prim: Option<Instant>,
    /// Stage attribution: the hub cannot see inside the entity
    /// processes, so it classifies each interval between consecutive
    /// observations by what the observation implies (see [`Mark`]).
    last_mark: Instant,
    observed: bool,
    queue_ns: u64,
    step_ns: u64,
    wire_ns: u64,
    notify_ns: u64,
    /// Hub-side Lamport clock for the session: merged with every wire
    /// clock that arrives, so the hub's recorded observations order
    /// consistently with the entities' own events.
    lc: u64,
}

impl HubSession {
    fn new(id: u64, seed: u64, n: usize) -> HubSession {
        let now = Instant::now();
        HubSession {
            id,
            seed,
            trace: Vec::new(),
            forwarded: vec![0; n],
            acked: vec![0; n],
            status: vec![None; n],
            messages: 0,
            started: now,
            last_prim: None,
            last_mark: now,
            observed: false,
            queue_ns: 0,
            step_ns: 0,
            wire_ns: 0,
            notify_ns: 0,
            lc: 0,
        }
    }

    /// Attribute the interval since the previous observation: before
    /// anything is observed the session is queued (Opens still in
    /// flight, entities not yet stepping it); while forwarded data is
    /// unaccounted for the wire owns the interval; otherwise the kind
    /// of the observation decides (stepping vs parked).
    fn mark(&mut self, now: Instant, kind: Mark) {
        let dt = now.saturating_duration_since(self.last_mark).as_nanos() as u64;
        self.last_mark = now;
        let in_flight = self
            .forwarded
            .iter()
            .sum::<u64>()
            .saturating_sub(self.acked.iter().sum::<u64>());
        if !self.observed {
            self.observed = true;
            self.queue_ns += dt;
        } else if in_flight > 0 {
            self.wire_ns += dt;
        } else {
            match kind {
                Mark::Step => self.step_ns += dt,
                Mark::Notify => self.notify_ns += dt,
            }
        }
    }

    /// The committed outcome once every entity has a *current* parked
    /// status, or `None` while something can still move.
    fn decide(&self, max_steps: u64) -> Option<SessionEnd> {
        let mut all_vote = true;
        let mut all_empty = true;
        let mut step_limited = false;
        for (i, st) in self.status.iter().enumerate() {
            let Some(st) = st else { return None };
            if st.seen != self.forwarded[i] {
                return None; // stale: data still in flight to this entity
            }
            all_vote &= st.vote;
            all_empty &= st.inbox_empty;
            step_limited |= st.steps >= max_steps;
        }
        Some(if step_limited {
            SessionEnd::StepLimit
        } else if all_vote && all_empty {
            SessionEnd::Terminated
        } else {
            SessionEnd::Deadlock
        })
    }

    /// The stage split of the session's age so far.
    fn stages(&self, age_us: u64) -> StageBreakdown {
        StageBreakdown::attribute(
            age_us,
            self.queue_ns / 1000,
            self.step_ns / 1000,
            self.wire_ns / 1000,
            Some(self.notify_ns / 1000),
        )
    }
}

/// How often [`HubCore::sweep_stalls`] looks at the open sessions.
const STALL_CHECK: Duration = Duration::from_millis(5);

/// The hub as a state machine: the open sessions and their window,
/// stage marks, the quiescence decision, conformance verdicts, stall
/// records and message counts.
pub(crate) struct HubCore<'a> {
    service: &'a Spec,
    cfg: &'a RuntimeConfig,
    /// Entity places, by dense index.
    places: Vec<PlaceId>,
    window: usize,
    pub(super) metrics: Arc<Metrics>,
    registry: Option<Arc<Registry>>,
    /// The hub's recorder, at place 0; entity processes record at their
    /// own places and ship their chunks back at shutdown.
    pub(super) rec: Option<Recorder>,
    sessions: BTreeMap<u64, HubSession>,
    /// Sessions opened so far (the next session's id).
    next: usize,
    /// Sessions decided since the last [`HubCore::close_decided`].
    decided: Vec<(u64, SessionEnd)>,
    tally: Tally,
    replay: ReplayCache,
    stall_flagged: BTreeSet<u64>,
    stalls: Vec<StallRecord>,
    last_stall_check: Instant,
    /// Transport diagnostics, in occurrence order.
    pub(super) events: Vec<String>,
}

impl<'a> HubCore<'a> {
    pub(crate) fn new(
        service: &'a Spec,
        cfg: &'a RuntimeConfig,
        places: Vec<PlaceId>,
        window: usize,
        metrics: Arc<Metrics>,
        registry: Option<Arc<Registry>>,
    ) -> HubCore<'a> {
        metrics.window_size.store(window, Ordering::Relaxed);
        HubCore {
            service,
            cfg,
            places,
            window,
            metrics,
            rec: registry.as_ref().map(|r| r.recorder(0)),
            registry,
            sessions: BTreeMap::new(),
            next: 0,
            decided: Vec::new(),
            tally: Tally::default(),
            replay: ReplayCache::default(),
            stall_flagged: BTreeSet::new(),
            stalls: Vec::new(),
            last_stall_check: Instant::now(),
            events: Vec::new(),
        }
    }

    /// Has every configured session been opened and closed?
    pub(crate) fn done(&self) -> bool {
        self.next >= self.cfg.sessions && self.sessions.is_empty()
    }

    /// Sessions open right now.
    pub(crate) fn live(&self) -> usize {
        self.sessions.len()
    }

    /// Entity places, by dense index.
    pub(crate) fn places(&self) -> &[PlaceId] {
        &self.places
    }

    /// Open sessions until the window is full: an `Open` to every
    /// entity for each. Returns whether any opened.
    pub(crate) fn open_due<O: Outbox + ?Sized>(&mut self, out: &mut O) -> bool {
        let trace = self.registry.as_ref().map(|r| r.trace_id).unwrap_or(0);
        let opened = self.next;
        while self.next < self.cfg.sessions && self.sessions.len() < self.window {
            let id = self.next as u64;
            let seed = self.cfg.session_seed(self.next);
            if let Some(rec) = &self.rec {
                rec.record(EventKind::SessionOpen, id, 0, seed, 0);
            }
            self.sessions
                .insert(id, HubSession::new(id, seed, self.places.len()));
            for idx in 0..self.places.len() {
                let open = WireMsg::Open {
                    session: id,
                    seed,
                    max_steps: self.cfg.max_steps as u64,
                    trace,
                };
                out.send(idx, open, &mut self.events);
            }
            self.next += 1;
        }
        self.next > opened
    }

    /// Handle one accepted frame from entity `idx`. A session it
    /// decides is closed by the next [`HubCore::close_decided`].
    pub(crate) fn handle<O: Outbox + ?Sized>(&mut self, idx: usize, msg: WireMsg, out: &mut O) {
        match msg {
            WireMsg::Prim {
                session,
                name,
                place,
                lc,
            } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    let now = Instant::now();
                    let since = s.last_prim.unwrap_or(s.started);
                    self.metrics
                        .record_prim(&name, now.duration_since(since).as_micros() as u64);
                    s.mark(now, Mark::Step);
                    s.last_prim = Some(now);
                    s.lc = s.lc.max(lc) + 1;
                    if let Some(rec) = &self.rec {
                        rec.record_named(EventKind::Prim, session, s.lc, &name, place as u64);
                    }
                    s.trace.push((name, place));
                }
            }
            WireMsg::Data {
                session,
                msg,
                path,
                lc,
            } => {
                let Some(s) = self.sessions.get_mut(&session) else {
                    return; // late traffic of a closed session
                };
                let Some(dest) = self.places.iter().position(|p| *p == msg.to) else {
                    self.events
                        .push(format!("data for unknown place {}", msg.to));
                    return;
                };
                // Mark before the forward counts: the elapsed interval is
                // classified by what was in flight *during* it.
                s.mark(Instant::now(), Mark::Step);
                s.forwarded[dest] += 1;
                s.messages += 1;
                self.metrics.messages_sent.fetch_add(1, Ordering::Relaxed);
                s.lc = s.lc.max(lc) + 1;
                if let Some(rec) = &self.rec {
                    let (a, b) = pack_msg_event(rec, &msg.id, msg.occ, msg.from, msg.to);
                    rec.record(EventKind::Forward, session, s.lc, a, b);
                }
                let fwd = WireMsg::Data {
                    session,
                    msg,
                    path,
                    lc,
                };
                out.send(dest, fwd, &mut self.events);
            }
            WireMsg::Trace { chunk } => {
                if let Some(reg) = &self.registry {
                    reg.absorb(&chunk);
                }
            }
            WireMsg::Status {
                session,
                seen,
                inbox_empty,
                vote,
                steps,
                ..
            } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    s.mark(Instant::now(), Mark::Notify);
                    let newly_acked = seen.saturating_sub(s.acked[idx]);
                    self.metrics
                        .messages_delivered
                        .fetch_add(newly_acked as usize, Ordering::Relaxed);
                    s.acked[idx] = s.acked[idx].max(seen);
                    s.status[idx] = Some(StatusRec {
                        seen,
                        vote,
                        inbox_empty,
                        steps,
                    });
                    if let Some(end) = s.decide(self.cfg.max_steps as u64) {
                        self.decided.push((session, end));
                    }
                }
            }
            WireMsg::Heartbeat { nonce } => {
                out.send(idx, WireMsg::HeartbeatAck { nonce }, &mut self.events);
            }
            WireMsg::HeartbeatAck { .. } => {}
            other => {
                self.events.push(format!(
                    "unexpected {other:?} from place {}",
                    self.places[idx]
                ));
            }
        }
    }

    /// Close the sessions decided since the last call: a `Close` to every
    /// entity, then the verdict.
    pub(crate) fn close_decided<O: Outbox + ?Sized>(&mut self, out: &mut O) {
        for (id, end) in std::mem::take(&mut self.decided) {
            if let Some(s) = self.sessions.remove(&id) {
                self.close(s, end, out);
            }
        }
    }

    /// Abort every live session — and, when the run is cut short, the
    /// sessions the window had not opened yet, so every configured
    /// session gets a verdict. `dead` names the entity that killed the
    /// run; `None` with live sessions means the run stalled.
    pub(crate) fn abort_live<O: Outbox + ?Sized>(&mut self, dead: Option<PlaceId>, out: &mut O) {
        if dead.is_some() || !self.sessions.is_empty() {
            while self.next < self.cfg.sessions {
                let id = self.next as u64;
                let seed = self.cfg.session_seed(self.next);
                self.sessions
                    .insert(id, HubSession::new(id, seed, self.places.len()));
                self.next += 1;
            }
        }
        for (id, s) in std::mem::take(&mut self.sessions) {
            self.events.push(match dead {
                Some(p) => format!("session {id}: aborted (entity at place {p} is dead)"),
                None => format!("session {id}: aborted (run stalled)"),
            });
            self.close(s, SessionEnd::Aborted, out);
        }
    }

    /// Notify every entity that session `s` ended, replay its trace for
    /// conformance, and tally the verdict.
    fn close<O: Outbox + ?Sized>(&mut self, mut s: HubSession, end: SessionEnd, out: &mut O) {
        for idx in 0..self.places.len() {
            let close = WireMsg::Close {
                session: s.id,
                end: end.code(),
            };
            out.send(idx, close, &mut self.events);
        }
        s.mark(Instant::now(), Mark::Notify);
        let latency_us = s.started.elapsed().as_micros() as u64;
        self.metrics.session_latency.record(latency_us);
        self.metrics
            .sessions_completed
            .fetch_add(1, Ordering::Relaxed);
        let stages = s.stages(latency_us);
        self.metrics.stages.record(&stages);
        let (violation, may_terminate) = self.replay.replay(self.service, &s.trace);
        let conforms = violation.is_none() && end == SessionEnd::Terminated && may_terminate;
        if let Some(rec) = &self.rec {
            if let Some((name, place, _)) = &violation {
                rec.record_named(EventKind::Violation, s.id, s.lc, name, *place as u64);
            }
            if end == SessionEnd::Aborted {
                rec.record(EventKind::Abort, s.id, s.lc, 0, 0);
            }
            rec.record(EventKind::SessionClose, s.id, s.lc, end.code().into(), 0);
        }
        if let Some((name, place, at)) = &violation {
            self.tally
                .violation(s.id, s.seed, (name, *place, *at), &s.trace);
        }
        let keep_trace =
            violation.is_some() || self.cfg.sessions == 1 || end == SessionEnd::Aborted;
        self.tally.absorb(SessionReport {
            id: s.id,
            seed: s.seed,
            end,
            conforms,
            violation: violation.as_ref().map(|(n, p, _)| (n.clone(), *p)),
            primitives: s.trace.len(),
            messages: s.messages,
            // Exact at close: `decide` only closes once every entity's last
            // status is current, and a parked entity steps again only after
            // new data — which would have made that status stale.
            steps: s.status.iter().flatten().map(|st| st.steps as usize).sum(),
            latency_us,
            stages,
            trace: if keep_trace { s.trace } else { Vec::new() },
        });
    }

    /// Stall forensics: flag sessions past the configured or p99-derived
    /// deadline, once each, with the stage split and backlog gauges
    /// captured at flag time. Looks at most every few milliseconds.
    pub(crate) fn sweep_stalls(&mut self, now: Instant) {
        if now.duration_since(self.last_stall_check) < STALL_CHECK {
            return;
        }
        self.last_stall_check = now;
        let Some(deadline) = StallTracker::deadline(self.cfg, &self.metrics) else {
            return;
        };
        for s in self.sessions.values() {
            if self.stalls.len() >= MAX_STALLS {
                break;
            }
            let age = now.saturating_duration_since(s.started);
            if age < deadline || !self.stall_flagged.insert(s.id) {
                continue;
            }
            let age_us = age.as_micros() as u64;
            self.stalls.push(StallRecord {
                session: s.id,
                age_us,
                deadline_us: deadline.as_micros() as u64,
                stages: s.stages(age_us),
                // The hub cannot see backend states; each entity's last
                // reported step count is the closest forensic analogue.
                entity_state: s
                    .status
                    .iter()
                    .enumerate()
                    .map(|(i, st)| (i as u32, st.map(|r| r.steps).unwrap_or(0)))
                    .collect(),
                gauges: GaugeSnapshot::capture(&self.metrics),
                tail: self
                    .registry
                    .as_ref()
                    .map(|r| r.snapshot().tail(s.id, 16))
                    .unwrap_or_default(),
            });
        }
    }

    /// The run's report. Every message the hub forwarded counts as
    /// delivered: the links are reliable.
    pub(crate) fn report(
        self,
        backend: &'static str,
        per_link: BTreeMap<String, LinkReport>,
        started: Instant,
    ) -> RuntimeReport {
        let mut report = RuntimeReport {
            delivered: self.metrics.messages_sent.load(Ordering::Relaxed),
            retransmissions: per_link.values().map(|l| l.retransmissions).sum(),
            per_link,
            transport_events: self.events,
            stalls: self.stalls,
            ..self
                .tally
                .into_report("distributed", backend, self.cfg, &self.metrics, started)
        };
        if let Some(reg) = &self.registry {
            crate::exec::attach_recorder_artifacts(&mut report, reg);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotos::event::{MsgId, SyncKind};
    use medium::Msg;
    use protogen::Pipeline;

    /// A hub over two entities (places 1 and 2) with session 0 open.
    fn open_hub<'a>(
        cfg: &'a RuntimeConfig,
        service: &'a Spec,
    ) -> (HubCore<'a>, Vec<(usize, WireMsg)>) {
        let metrics = Arc::new(Metrics::for_service(service));
        let mut core = HubCore::new(service, cfg, vec![1, 2], 4, metrics, None);
        let mut out = Vec::new();
        assert!(core.open_due(&mut out));
        assert_eq!(out.len(), 2, "one Open per entity: {out:?}");
        out.clear();
        (core, out)
    }

    fn service() -> Spec {
        Pipeline::load("SPEC a1; b2; c1; exit ENDSPEC")
            .unwrap()
            .check()
            .unwrap()
            .derive()
            .unwrap()
            .derivation()
            .service
            .clone()
    }

    fn status(seen: u64, vote: bool, steps: u64) -> WireMsg {
        WireMsg::Status {
            session: 0,
            seen,
            consumed: seen,
            inbox_empty: true,
            vote,
            blocked: !vote,
            steps,
        }
    }

    fn data(session: u64, to: PlaceId) -> WireMsg {
        WireMsg::Data {
            session,
            msg: Msg {
                from: 1,
                to,
                id: MsgId::Node(0),
                occ: 0,
                kind: SyncKind::Seq,
            },
            path: Vec::new(),
            lc: 1,
        }
    }

    fn closes(out: &[(usize, WireMsg)]) -> Vec<(usize, SessionEnd)> {
        out.iter()
            .filter_map(|(idx, m)| match m {
                WireMsg::Close { end, .. } => Some((*idx, SessionEnd::from_code(*end))),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn stale_status_never_closes() {
        let cfg = RuntimeConfig::new().sessions(1);
        let service = service();
        let (mut core, mut out) = open_hub(&cfg, &service);
        core.handle(0, data(0, 2), &mut out);
        assert!(matches!(out[..], [(1, WireMsg::Data { .. })]), "{out:?}");
        // Entity 1 (place 2) has not seen the forwarded frame yet.
        core.handle(0, status(0, true, 1), &mut out);
        core.handle(1, status(0, true, 1), &mut out);
        core.close_decided(&mut out);
        assert!(closes(&out).is_empty(), "{out:?}");
        assert_eq!(core.live(), 1);
        // Once it has, the session closes.
        core.handle(1, status(1, true, 2), &mut out);
        core.close_decided(&mut out);
        assert_eq!(closes(&out).len(), 2);
        assert!(core.done());
    }

    #[test]
    fn all_votes_with_empty_inboxes_terminate() {
        let cfg = RuntimeConfig::new().sessions(1);
        let service = service();
        let (mut core, mut out) = open_hub(&cfg, &service);
        core.handle(0, status(0, true, 3), &mut out);
        core.handle(1, status(0, true, 4), &mut out);
        core.close_decided(&mut out);
        assert_eq!(
            closes(&out),
            vec![(0, SessionEnd::Terminated), (1, SessionEnd::Terminated)]
        );
        let report = core.report("interpreted", BTreeMap::new(), Instant::now());
        assert_eq!(report.terminated, 1);
        assert_eq!(report.reports[0].steps, 7);
    }

    #[test]
    fn any_entity_at_max_steps_is_a_step_limit() {
        let cfg = RuntimeConfig::new().sessions(1).max_steps(10);
        let service = service();
        let (mut core, mut out) = open_hub(&cfg, &service);
        core.handle(0, status(0, false, 10), &mut out);
        core.handle(1, status(0, true, 2), &mut out);
        core.close_decided(&mut out);
        assert_eq!(
            closes(&out),
            vec![(0, SessionEnd::StepLimit), (1, SessionEnd::StepLimit)]
        );
    }

    #[test]
    fn frames_for_closed_or_unknown_sessions_are_ignored() {
        let cfg = RuntimeConfig::new().sessions(1);
        let service = service();
        let (mut core, mut out) = open_hub(&cfg, &service);
        core.handle(0, status(0, true, 1), &mut out);
        core.handle(1, status(0, true, 1), &mut out);
        core.close_decided(&mut out);
        out.clear();
        let prim = |session| WireMsg::Prim {
            session,
            name: "a".to_string(),
            place: 1,
            lc: 1,
        };
        for session in [0, 99] {
            core.handle(0, prim(session), &mut out);
            core.handle(0, data(session, 2), &mut out);
            core.handle(1, status(5, true, 9), &mut out);
        }
        core.close_decided(&mut out);
        assert!(out.is_empty(), "{out:?}");
        let report = core.report("interpreted", BTreeMap::new(), Instant::now());
        assert!(report.transport_events.is_empty());
        assert_eq!(report.sessions, 1);
        assert_eq!(report.primitives, 0);
    }

    #[test]
    fn data_for_an_unknown_place_is_a_transport_event() {
        let cfg = RuntimeConfig::new().sessions(1);
        let service = service();
        let (mut core, mut out) = open_hub(&cfg, &service);
        core.handle(0, data(0, 9), &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(core.events, vec!["data for unknown place 9".to_string()]);
    }
}
