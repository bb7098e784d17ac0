//! One protocol entity's logic with no sockets: [`EntityProc`] takes the
//! hub's accepted frames in, steps its runnable sessions, and collects
//! the frames they emit in its outbox; `serve_entity` in the parent
//! module carries them over the link.

use super::{ServeConfig, ServeOutcome};
use crate::compiled::lower_for;
use crate::entity::pack_msg_event;
use lotos::ast::Spec;
use lotos::place::PlaceId;
use medium::Msg;
use obs::{EventKind, Recorder, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semantics::backend::{make_backend, BState, Backend, EntityBackend, OfferView};
use semantics::engine::TermArena;
use semantics::hash::fx_hash;
use semantics::term::{Label, OccTable};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};
use transport::{Link, WireMsg};

/// Moves executed per session per scheduling slice.
const SLICE: usize = 128;

/// One session as stepped by an entity process.
struct EntSession {
    state: BState,
    rng: StdRng,
    inbox: BTreeMap<PlaceId, VecDeque<Msg>>,
    seen: u64,
    consumed: u64,
    steps: u64,
    max_steps: u64,
    /// Per-session Lamport clock: merged with the wire clock of every
    /// arriving `Data` frame, +1 per executed move, and stamped on every
    /// outgoing `Prim`/`Data` frame and recorded event.
    lc: u64,
}

impl EntSession {
    /// Park the session: report a [`WireMsg::Status`] so the hub can
    /// count quiescence.
    fn park(&self, id: u64, vote: bool, outbox: &mut Vec<WireMsg>) {
        outbox.push(WireMsg::Status {
            session: id,
            seen: self.seen,
            consumed: self.consumed,
            inbox_empty: self.inbox.values().all(|q| q.is_empty()),
            vote,
            blocked: !vote,
            steps: self.steps,
        });
    }
}

/// A protocol entity as a state machine: its backend and occurrence
/// table, the open sessions and which of them can move, and the frames
/// waiting to go to the hub.
pub(super) struct EntityProc<'a> {
    cfg: &'a ServeConfig,
    backend: Backend,
    occ: Arc<Mutex<OccTable>>,
    sessions: BTreeMap<u64, EntSession>,
    runnable: BTreeSet<u64>,
    pub(super) outcome: ServeOutcome,
    /// Flight recorder, created when the first `Open` carries a nonzero
    /// trace id (the hub is recording): an untraced hub costs the entity
    /// nothing.
    pub(super) registry: Option<Arc<Registry>>,
    pub(super) rec: Option<Recorder>,
    /// Frames for the hub, in emission order.
    pub(super) outbox: Vec<WireMsg>,
    shutdown: bool,
}

impl<'a> EntityProc<'a> {
    pub(super) fn new(entity: &Spec, cfg: &'a ServeConfig) -> Result<EntityProc<'a>, String> {
        let occ = Arc::new(Mutex::new(OccTable::new()));
        let lowered = lower_for(&[(cfg.place, entity.clone())], cfg.backend)?;
        let backend = make_backend(
            entity,
            lowered.into_iter().next().flatten(),
            &Arc::new(TermArena::new()),
            &occ,
        );
        Ok(EntityProc {
            cfg,
            backend,
            occ,
            sessions: BTreeMap::new(),
            runnable: BTreeSet::new(),
            outcome: ServeOutcome::default(),
            registry: None,
            rec: None,
            outbox: Vec::new(),
            shutdown: false,
        })
    }

    /// Is any session able to move?
    pub(super) fn runnable(&self) -> bool {
        !self.runnable.is_empty()
    }

    /// Has the hub shut the entity down, with no session left open?
    pub(super) fn finished(&self) -> bool {
        self.shutdown && self.sessions.is_empty()
    }

    /// Pass frames read off the hub link through its exactly-once filter
    /// and handle the ones it delivers.
    pub(super) fn accept(
        &mut self,
        link: &mut Link,
        frames: impl IntoIterator<Item = (u64, WireMsg)>,
    ) {
        for (seq, m) in frames {
            if let Some(m) = link.accept(seq, m) {
                self.handle(m);
            }
        }
    }

    /// Dispatch one accepted hub message.
    fn handle(&mut self, msg: WireMsg) {
        match msg {
            WireMsg::Open {
                session,
                seed,
                max_steps,
                trace,
            } => {
                if trace != 0 && self.registry.is_none() {
                    let reg = Registry::new(trace, obs::DEFAULT_CAPACITY);
                    self.rec = Some(reg.recorder(self.cfg.place));
                    self.registry = Some(reg);
                }
                if let Some(rec) = &self.rec {
                    rec.record(EventKind::SessionOpen, session, 0, seed, 0);
                }
                let rng = StdRng::seed_from_u64(fx_hash(&(seed, session, self.cfg.place)));
                let s = EntSession {
                    state: self.backend.init(),
                    rng,
                    inbox: BTreeMap::new(),
                    seen: 0,
                    consumed: 0,
                    steps: 0,
                    max_steps,
                    lc: 0,
                };
                self.sessions.insert(session, s);
                self.runnable.insert(session);
                self.outcome.sessions_opened += 1;
            }
            WireMsg::Data {
                session,
                mut msg,
                path,
                lc,
            } => {
                let Some(s) = self.sessions.get_mut(&session) else {
                    return;
                };
                // Resolve the canonical site path to this process's local
                // occurrence number; the sender's raw number is
                // meaningless here.
                msg.occ = self
                    .occ
                    .lock()
                    .expect("occ table poisoned")
                    .resolve_path(&path);
                s.seen += 1;
                // Lamport merge: everything this session does next is
                // causally after the sender's clock at send time.
                s.lc = s.lc.max(lc);
                s.inbox.entry(msg.from).or_default().push_back(msg);
                self.runnable.insert(session);
            }
            WireMsg::Close { session, .. } => {
                self.sessions.remove(&session);
                self.runnable.remove(&session);
                self.outcome.sessions_closed += 1;
            }
            WireMsg::Shutdown => self.shutdown = true,
            WireMsg::Heartbeat { nonce } => self.outbox.push(WireMsg::HeartbeatAck { nonce }),
            WireMsg::HeartbeatAck { .. } => {}
            other => debug_assert!(false, "unexpected hub message {other:?}"),
        }
    }

    /// Step every runnable session by one slice; those with work left
    /// stay runnable.
    pub(super) fn step_runnable(&mut self) {
        for id in std::mem::take(&mut self.runnable) {
            if self.step_session(id) {
                self.runnable.insert(id);
            }
        }
    }

    /// Step up to [`SLICE`] moves of one session. Returns `true` when
    /// the session still has work (reschedule), `false` when it parked
    /// (a `Status` was queued) or is gone.
    fn step_session(&mut self, id: u64) -> bool {
        let Some(s) = self.sessions.get_mut(&id) else {
            return false;
        };
        let backend = &mut self.backend;
        let rec = self.rec.as_ref();
        let place = self.cfg.place;
        for _ in 0..SLICE {
            let n_offers = backend.offers(&s.state);
            let row = backend.classify(n_offers, &self.cfg.refuse, |offer| match *offer {
                OfferView::Recv { from, msg, occ, .. } => {
                    let head = s.inbox.get(&from).and_then(|q| q.front());
                    head.is_some_and(|m| m.id == *msg && m.occ == occ)
                }
                _ => true,
            });
            let enabled = row.enabled;
            if enabled.is_empty() || s.steps >= s.max_steps {
                s.park(id, row.delta && s.steps < s.max_steps, &mut self.outbox);
                return false;
            }
            let k = if enabled.len() == 1 {
                0
            } else {
                s.rng.gen_range(0..enabled.len())
            };
            let label = backend.label(enabled[k]);
            s.steps += 1;
            s.lc += 1;
            match label {
                Label::I | Label::Delta => {}
                Label::Prim { name, place } => {
                    self.outcome.primitives += 1;
                    if let Some(rec) = rec {
                        rec.record_named(EventKind::Prim, id, s.lc, &name, place as u64);
                    }
                    self.outbox.push(WireMsg::Prim {
                        session: id,
                        name,
                        place,
                        lc: s.lc,
                    });
                }
                Label::Send { to, msg, occ, kind } => {
                    let path = self
                        .occ
                        .lock()
                        .expect("occ table poisoned")
                        .path_of(occ)
                        .unwrap_or_default();
                    let m = Msg {
                        from: place,
                        to,
                        id: msg,
                        occ,
                        kind,
                    };
                    if let Some(rec) = rec {
                        let (a, b) = pack_msg_event(rec, &m.id, m.occ, m.from, m.to);
                        rec.record(EventKind::MediumSend, id, s.lc, a, b);
                    }
                    self.outbox.push(WireMsg::Data {
                        session: id,
                        msg: m,
                        path,
                        lc: s.lc,
                    });
                }
                Label::Recv { from, .. } => {
                    let q = s.inbox.get_mut(&from).expect("classified enabled");
                    let m = q.pop_front().expect("classified enabled");
                    if let Some(rec) = rec {
                        let (a, b) = pack_msg_event(rec, &m.id, m.occ, m.from, place);
                        rec.record(EventKind::MediumRecv, id, s.lc, a, b);
                    }
                    s.consumed += 1;
                }
            }
            backend.step(&mut s.state, enabled[k]);
        }
        true
    }
}
