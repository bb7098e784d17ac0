//! Per-session shared state: the medium (reliable or fault-injected),
//! the primitive trace, and the distributed-termination bookkeeping.
//!
//! One service session is one independent run of the derived protocol:
//! every entity thread holds its own behaviour term for the session,
//! while the session's channels, clock, and trace live here behind a
//! single mutex. The mutex serializes the *moves* of one session (which
//! keeps the interleaving semantics of one run sequentially consistent —
//! the same property the DES enforces by construction) while different
//! sessions proceed in parallel on the same entity threads.

use crate::config::RuntimeConfig;
use crate::faults::FaultLink;
use lotos::event::MsgId;
use lotos::place::PlaceId;
use medium::{Capacity, MediumConfig, MediumStats, Msg, Network, Order};
use semantics::hash::fx_hash;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// How a session ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// Every entity offered δ and all channels drained — global
    /// successful termination.
    Terminated,
    /// No entity can move and no link activity is pending.
    Deadlock,
    /// The per-session step limit was reached while still live.
    StepLimit,
    /// The session was killed by the runtime — in distributed mode, a
    /// transport link died and did not recover within its deadline. The
    /// session's entities may hold inconsistent state; it is reported,
    /// never silently dropped.
    Aborted,
}

impl SessionEnd {
    /// The outcome's one-byte code: the `end` field of a wire `Close`
    /// and the end code of a recorded `SessionClose` event.
    pub fn code(self) -> u8 {
        match self {
            SessionEnd::Terminated => 0,
            SessionEnd::Deadlock => 1,
            SessionEnd::StepLimit => 2,
            SessionEnd::Aborted => 3,
        }
    }

    /// Decode [`SessionEnd::code`]. Unknown codes read as `Aborted` —
    /// the conservative outcome.
    pub fn from_code(code: u8) -> SessionEnd {
        match code {
            0 => SessionEnd::Terminated,
            1 => SessionEnd::Deadlock,
            2 => SessionEnd::StepLimit,
            _ => SessionEnd::Aborted,
        }
    }
}

/// The session's channels: the paper's reliable medium, or one ARQ fault
/// link per directed channel.
#[derive(Debug)]
pub enum SessionMedium {
    Reliable(Network),
    Faulty(BTreeMap<(PlaceId, PlaceId), FaultLink>),
}

/// Mutable state of one session, shared by all entity threads.
#[derive(Debug)]
pub struct SessionCore {
    pub id: u64,
    /// This session's derived seed (see `RuntimeConfig::session_seed`).
    pub seed: u64,
    medium_cfg: MediumConfig,
    pub medium: SessionMedium,
    /// Counters in the shape of the DES medium statistics.
    pub stats: MediumStats,
    /// Logical clock: one unit per executed action. Drives fault-link
    /// delays and retransmission timers.
    pub clock: f64,
    /// Executed actions (all kinds).
    pub steps: usize,
    /// The global service-primitive trace, in execution order.
    pub trace: Vec<(String, PlaceId)>,
    /// Termination votes: bit `k` set when entity `k` currently offers δ.
    votes: u64,
    /// Bit `k` set when entity `k` found no enabled move for this session.
    blocked: u64,
    pub completed: Option<SessionEnd>,
    pub started: Instant,
    pub ended: Option<Instant>,
    /// Wall-clock moment of the first *executed* entity move — open to
    /// here is the session's `queue_wait` stage.
    pub first_step: Option<Instant>,
    /// Nanoseconds spent executing entity moves under this lock — the
    /// session's `step` stage (pure classification passes not counted).
    pub step_ns: u64,
    /// Backend state of each entity's most recent move, indexed by
    /// entity; captured for stall forensics.
    pub entity_states: Vec<u64>,
    /// Wall-clock moment of the most recent primitive (per-primitive
    /// inter-arrival latency).
    pub last_prim: Option<Instant>,
    /// Last primitive an entity *would* have executed but for the
    /// `--refuse` table, noted when the entity had no other move. A
    /// deadlock with this set is a refusal-induced conformance failure
    /// and is reported as a violation naming this primitive.
    pub refused_offer: Option<(String, PlaceId)>,
}

impl SessionCore {
    pub fn new(id: u64, seed: u64, cfg: &RuntimeConfig, channels: &[(PlaceId, PlaceId)]) -> Self {
        let medium = if cfg.faults.is_none() {
            SessionMedium::Reliable(Network::new())
        } else {
            SessionMedium::Faulty(
                channels
                    .iter()
                    .map(|&(from, to)| {
                        let link_seed = fx_hash(&(seed, from, to));
                        ((from, to), FaultLink::new(cfg.faults, link_seed))
                    })
                    .collect(),
            )
        };
        SessionCore {
            id,
            seed,
            medium_cfg: MediumConfig {
                capacity: if cfg.capacity == 0 {
                    Capacity::Unbounded
                } else {
                    Capacity::Bounded(cfg.capacity)
                },
                order: Order::Fifo,
            },
            medium,
            stats: MediumStats::default(),
            clock: 0.0,
            steps: 0,
            trace: Vec::new(),
            votes: 0,
            blocked: 0,
            completed: None,
            started: Instant::now(),
            ended: None,
            first_step: None,
            step_ns: 0,
            entity_states: Vec::new(),
            last_prim: None,
            refused_offer: None,
        }
    }

    /// Note entity `idx`'s current backend state (stall forensics).
    pub fn note_state(&mut self, idx: usize, state: u64) {
        if self.entity_states.len() <= idx {
            self.entity_states.resize(idx + 1, 0);
        }
        self.entity_states[idx] = state;
    }

    /// Credit `t0 → now` to the step stage, stamping the first executed
    /// move on the way (both called with the session lock held).
    pub fn credit_step(&mut self, t0: Instant) {
        if self.first_step.is_none() {
            self.first_step = Some(t0);
        }
        self.step_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Is a send on `from → to` enabled (capacity backpressure)? A send
    /// on a full channel is *not enabled* — the entity simply offers its
    /// other moves, exactly the `Capacity::Bounded` semantics.
    pub fn can_send(&self, from: PlaceId, to: PlaceId) -> bool {
        let cap = match self.medium_cfg.capacity {
            Capacity::Unbounded => return true,
            Capacity::Bounded(n) => n,
        };
        match &self.medium {
            SessionMedium::Reliable(net) => net.depth(from, to) < cap,
            SessionMedium::Faulty(links) => links.get(&(from, to)).is_none_or(|l| l.queued() < cap),
        }
    }

    /// Enqueue a message (the caller checked [`Self::can_send`]).
    pub fn send(&mut self, msg: Msg) {
        let now = self.clock;
        match &mut self.medium {
            SessionMedium::Reliable(net) => {
                let ok = net.send(&self.medium_cfg, msg.clone());
                debug_assert!(ok, "send on full channel: caller skipped can_send");
                self.stats.on_send(net, &msg);
            }
            SessionMedium::Faulty(links) => {
                let link = links
                    .get_mut(&(msg.from, msg.to))
                    .expect("send on unknown channel");
                link.submit(msg.clone(), now);
                self.stats.sent += 1;
                *self.stats.sent_per_kind.entry(msg.kind).or_default() += 1;
                let d = link.queued();
                let e = self.stats.max_depth.entry((msg.from, msg.to)).or_default();
                *e = (*e).max(d);
            }
        }
    }

    /// Can `(id, occ)` be consumed from `from → to` right now? Pumps the
    /// fault link first so frames that became due surface.
    pub fn can_receive(&mut self, from: PlaceId, to: PlaceId, id: &MsgId, occ: u32) -> bool {
        match &mut self.medium {
            SessionMedium::Reliable(net) => net.can_receive(&self.medium_cfg, from, to, id, occ),
            SessionMedium::Faulty(links) => match links.get_mut(&(from, to)) {
                None => false,
                Some(l) => {
                    l.pump(self.clock);
                    l.peek().is_some_and(|m| m.id == *id && m.occ == occ)
                }
            },
        }
    }

    /// Consume `(id, occ)` from `from → to` (head-of-line under FIFO).
    pub fn receive(&mut self, from: PlaceId, to: PlaceId, id: &MsgId, occ: u32) -> Option<Msg> {
        let msg = match &mut self.medium {
            SessionMedium::Reliable(net) => net.receive(&self.medium_cfg, from, to, id, occ)?,
            SessionMedium::Faulty(links) => {
                let l = links.get_mut(&(from, to))?;
                l.pump(self.clock);
                let head = l.peek()?;
                if head.id != *id || head.occ != occ {
                    return None;
                }
                l.take()?
            }
        };
        self.stats.on_receive(&msg);
        Some(msg)
    }

    /// Record one executed action.
    pub fn tick(&mut self) {
        self.steps += 1;
        self.clock += 1.0;
    }

    // ---- distributed termination & quiescence ---------------------------

    pub fn vote(&mut self, entity: usize) {
        self.votes |= 1 << entity;
    }

    pub fn clear_vote(&mut self, entity: usize) {
        self.votes &= !(1 << entity);
    }

    pub fn has_vote(&self, entity: usize) -> bool {
        self.votes & (1 << entity) != 0
    }

    pub fn all_voted(&self, n: usize) -> bool {
        self.votes == full_mask(n)
    }

    pub fn set_blocked(&mut self, entity: usize) {
        self.blocked |= 1 << entity;
    }

    pub fn clear_blocked(&mut self, entity: usize) {
        self.blocked &= !(1 << entity);
    }

    pub fn clear_all_blocked(&mut self) {
        self.blocked = 0;
    }

    /// Every entity is blocked — because every state change of a session
    /// happens under its lock, this is a true global quiescent state.
    pub fn all_blocked(&self, n: usize) -> bool {
        self.blocked == full_mask(n)
    }

    /// All channels drained and no link activity in flight?
    pub fn quiet(&self) -> bool {
        match &self.medium {
            SessionMedium::Reliable(net) => net.is_empty(),
            SessionMedium::Faulty(links) => links.values().all(|l| l.is_idle()),
        }
    }

    /// Earliest pending link deadline (retransmission or wire delivery),
    /// if fault links still have work.
    pub fn next_link_deadline(&self) -> Option<f64> {
        match &self.medium {
            SessionMedium::Reliable(_) => None,
            SessionMedium::Faulty(links) => links
                .values()
                .filter_map(|l| l.next_deadline())
                .min_by(f64::total_cmp),
        }
    }

    /// Pump every fault link at the current clock.
    pub fn pump_all(&mut self) {
        if let SessionMedium::Faulty(links) = &mut self.medium {
            for l in links.values_mut() {
                l.pump(self.clock);
            }
        }
    }

    /// Total (frames lost, retransmissions) over all links.
    pub fn link_totals(&self) -> (usize, usize) {
        match &self.medium {
            SessionMedium::Reliable(_) => (0, 0),
            SessionMedium::Faulty(links) => links.values().fold((0, 0), |(fl, rt), l| {
                (fl + l.frames_lost, rt + l.retransmissions())
            }),
        }
    }

    /// Per-channel `(frames lost, retransmissions)` — the per-link
    /// breakdown behind [`Self::link_totals`].
    pub fn link_breakdown(&self) -> Vec<((PlaceId, PlaceId), (usize, usize))> {
        match &self.medium {
            SessionMedium::Reliable(_) => Vec::new(),
            SessionMedium::Faulty(links) => links
                .iter()
                .map(|(&k, l)| (k, (l.frames_lost, l.retransmissions())))
                .collect(),
        }
    }

    /// Latch the session outcome (first writer wins).
    pub fn complete(&mut self, end: SessionEnd) {
        if self.completed.is_none() {
            self.completed = Some(end);
            self.ended = Some(Instant::now());
        }
    }
}

fn full_mask(n: usize) -> u64 {
    debug_assert!(n <= 64, "PlaceSet is a u64 — at most 64 entities");
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// A session as shared between the multiplexer and the entity threads.
#[derive(Debug)]
pub struct SessionSlot {
    pub core: Mutex<SessionCore>,
}

impl SessionSlot {
    pub fn new(core: SessionCore) -> SessionSlot {
        SessionSlot {
            core: Mutex::new(core),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultProfile;
    use lotos::event::SyncKind;

    fn cfg() -> RuntimeConfig {
        RuntimeConfig::new().capacity(2)
    }

    fn msg(from: PlaceId, to: PlaceId, n: u32) -> Msg {
        Msg {
            from,
            to,
            id: MsgId::Node(n),
            occ: 0,
            kind: SyncKind::Seq,
        }
    }

    #[test]
    fn bounded_capacity_backpressure() {
        let chans = [(1, 2), (2, 1)];
        let mut core = SessionCore::new(0, 1, &cfg(), &chans);
        assert!(core.can_send(1, 2));
        core.send(msg(1, 2, 10));
        core.send(msg(1, 2, 11));
        assert!(!core.can_send(1, 2), "channel at capacity still enabled");
        assert!(core.can_send(2, 1), "other channel affected");
        assert!(core.can_receive(1, 2, &MsgId::Node(10), 0));
        assert!(!core.can_receive(1, 2, &MsgId::Node(11), 0), "FIFO broken");
        core.receive(1, 2, &MsgId::Node(10), 0).unwrap();
        assert!(core.can_send(1, 2));
        assert_eq!(core.stats.sent, 2);
        assert_eq!(core.stats.delivered, 1);
    }

    #[test]
    fn faulty_medium_preserves_fifo_and_counts_recovery() {
        let chans = [(1, 2), (2, 1)];
        let rc = RuntimeConfig::new().faults(FaultProfile::Lossy { loss: 0.5 });
        let mut core = SessionCore::new(0, 42, &rc, &chans);
        for n in 0..6 {
            core.send(msg(1, 2, n));
            core.tick();
        }
        let mut got = Vec::new();
        for _ in 0..10_000 {
            core.pump_all();
            loop {
                let head = head_id(&mut core);
                let Some(m) = core.receive(1, 2, &head, 0) else {
                    break;
                };
                got.push(m.id.clone());
                if got.len() == 6 {
                    break;
                }
            }
            if got.len() == 6 {
                break;
            }
            match core.next_link_deadline() {
                Some(t) => core.clock = core.clock.max(t) + 1e-9,
                None => break,
            }
        }
        assert_eq!(got, (0..6).map(MsgId::Node).collect::<Vec<_>>());
        // Drain the trailing ack exchange (the runtime does the same via
        // quiescence deadline jumps before committing termination).
        while let Some(t) = core.next_link_deadline() {
            core.clock = core.clock.max(t) + 1e-9;
            core.pump_all();
        }
        assert!(core.quiet());
        let (lost, retx) = core.link_totals();
        assert!(lost > 0 && retx > 0, "loss 0.5 never dropped a frame");
    }

    fn head_id(core: &mut SessionCore) -> MsgId {
        if let SessionMedium::Faulty(links) = &mut core.medium {
            let l = links.get_mut(&(1, 2)).unwrap();
            l.pump(0.0);
            if let Some(m) = l.peek() {
                return m.id.clone();
            }
        }
        MsgId::Node(u32::MAX)
    }

    #[test]
    fn vote_and_block_masks() {
        let mut core = SessionCore::new(0, 1, &cfg(), &[]);
        core.vote(0);
        core.vote(2);
        assert!(!core.all_voted(3));
        core.vote(1);
        assert!(core.all_voted(3));
        core.clear_vote(1);
        assert!(!core.all_voted(3));
        core.set_blocked(0);
        core.set_blocked(1);
        core.set_blocked(2);
        assert!(core.all_blocked(3));
        core.clear_blocked(1);
        assert!(!core.all_blocked(3));
    }

    #[test]
    fn completion_latches_first_outcome() {
        let mut core = SessionCore::new(0, 1, &cfg(), &[]);
        core.complete(SessionEnd::Terminated);
        core.complete(SessionEnd::Deadlock);
        assert_eq!(core.completed, Some(SessionEnd::Terminated));
    }
}
