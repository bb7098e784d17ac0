//! Discrete-event simulation of the derived protocol entities.
//!
//! Each entity interprets its derived behaviour term; the medium delivers
//! messages over per-channel FIFO queues after seeded random delays
//! (paper Section 1: "each of the messages is delivered after an
//! arbitrary delay"). Local actions execute instantaneously at the
//! current clock; the clock advances only when every entity is blocked on
//! in-flight messages. Nondeterminism — choice resolution by the users
//! and interleaving between entities — is resolved uniformly at random
//! from the seed, so runs are reproducible.
//!
//! The simulator drives every run through a [`ServiceMonitor`] so that
//! each executed primitive is checked against the service on the fly, and
//! collects the message metrics of Section 4.3.

use crate::lossy::{ArqChannel, Frame, LossyLink};
use crate::monitor::ServiceMonitor;
use lotos::event::SyncKind;
use lotos::place::PlaceId;
use medium::{Msg, Order};
use protogen::derive::Derivation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semantics::hash::FxHashMap;
use semantics::lower::{CompiledEntity, OccBase, OccSrc};
use semantics::sos::transitions;
use semantics::term::{Env, Label, OccTable, RTerm};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
    /// Message delay bounds (uniform).
    pub delay_min: f64,
    pub delay_max: f64,
    /// Abort after this many executed actions.
    pub max_steps: usize,
    /// Delivery order: FIFO (paper) or arbitrary reordering.
    pub order: Order,
    /// Primitives the service users never offer. Primitives are
    /// rendezvous between an entity and its user (paper Fig. 2: "if the
    /// user at place 1 is ready to execute read1, the action won't be
    /// executed until the communication service is also ready"); listing
    /// one here models a user that is never ready for it — e.g. a user
    /// who never presses `interrupt`.
    pub refuse: Vec<(String, PlaceId)>,
    /// Link configuration: `None` = the paper's reliable medium;
    /// `Some(link)` = an unreliable link layer (paper §6 extension, see
    /// [`crate::lossy`]).
    pub link: Option<LinkConfig>,
}

/// Configuration of the unreliable link layer (paper §6).
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// i.i.d. frame/ack loss probability.
    pub loss: f64,
    /// Run stop-and-wait ARQ recovery over the lossy link. Without it, a
    /// lost synchronization message stalls the protocol forever.
    pub arq: bool,
    /// ARQ retransmission timeout (only with `arq`).
    pub arq_timeout: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            loss: 0.2,
            arq: true,
            arq_timeout: 25.0,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            delay_min: 0.1,
            delay_max: 10.0,
            max_steps: 100_000,
            order: Order::Fifo,
            refuse: Vec::new(),
            link: None,
        }
    }
}

impl SimConfig {
    pub fn new() -> Self {
        SimConfig::default()
    }

    /// RNG seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uniform message-delay bounds.
    pub fn delays(mut self, min: f64, max: f64) -> Self {
        self.delay_min = min;
        self.delay_max = max;
        self
    }

    /// Abort after this many executed actions.
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Delivery order: FIFO (paper) or arbitrary reordering.
    pub fn order(mut self, order: Order) -> Self {
        self.order = order;
        self
    }

    /// Add a primitive the service users never offer.
    pub fn refuse(mut self, name: &str, place: PlaceId) -> Self {
        self.refuse.push((name.to_string(), place));
        self
    }

    /// Run over an unreliable link layer (paper §6).
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = Some(link);
        self
    }

    /// Serialize to JSON (hand-rolled; the build environment has no
    /// serde). `order` and `refuse` keep their defaults.
    pub fn to_json(&self) -> String {
        let link = match &self.link {
            None => "null".to_string(),
            Some(l) => format!(
                "{{\"loss\":{},\"arq\":{},\"arq_timeout\":{}}}",
                l.loss, l.arq, l.arq_timeout
            ),
        };
        format!(
            "{{\"seed\":{},\"delay_min\":{},\"delay_max\":{},\"max_steps\":{},\"link\":{}}}",
            self.seed, self.delay_min, self.delay_max, self.max_steps, link
        )
    }

    /// Parse from JSON produced by [`Self::to_json`]. Absent keys keep
    /// their defaults.
    pub fn from_json(s: &str) -> Result<SimConfig, String> {
        if !s.trim_start().starts_with('{') {
            return Err("expected a JSON object".to_string());
        }
        let mut cfg = SimConfig::default();
        if let Some(n) = semantics::jsonish::get_u64(s, "seed") {
            cfg.seed = n;
        }
        if let Some(x) = semantics::jsonish::get_f64(s, "delay_min") {
            cfg.delay_min = x;
        }
        if let Some(x) = semantics::jsonish::get_f64(s, "delay_max") {
            cfg.delay_max = x;
        }
        if let Some(n) = semantics::jsonish::get_u64(s, "max_steps") {
            cfg.max_steps = n as usize;
        }
        if let Some(loss) = semantics::jsonish::get_f64(s, "loss") {
            cfg.link = Some(LinkConfig {
                loss,
                arq: semantics::jsonish::get_bool(s, "arq").unwrap_or(true),
                arq_timeout: semantics::jsonish::get_f64(s, "arq_timeout")
                    .unwrap_or_else(|| LinkConfig::default().arq_timeout),
            });
        }
        Ok(cfg)
    }
}

/// One logged simulation event.
#[derive(Clone, Debug, PartialEq)]
pub struct SimEvent {
    /// Simulated time at which the action executed.
    pub time: f64,
    /// Global sequence number.
    pub step: usize,
    /// What happened.
    pub kind: SimEventKind,
}

/// The kinds of logged events.
#[derive(Clone, Debug, PartialEq)]
pub enum SimEventKind {
    /// Service primitive executed at its place.
    Prim { name: String, place: PlaceId },
    /// Internal action of an entity.
    Internal { place: PlaceId },
    /// Message handed to the medium.
    Sent(Msg),
    /// Message consumed by its destination.
    Delivered(Msg),
    /// Global successful termination.
    Terminated,
    /// No entity can move and messages (if any) can never be consumed.
    Deadlock,
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimResult {
    /// Global δ performed with an empty medium.
    Terminated,
    /// `max_steps` reached while still live.
    StepLimit,
    /// No progress possible.
    Deadlock,
}

/// Aggregated run metrics.
#[derive(Clone, Debug, Default)]
pub struct SimMetrics {
    /// Service primitives executed.
    pub primitives: usize,
    /// Messages sent, total and per synchronization kind.
    pub messages: usize,
    pub messages_per_kind: BTreeMap<SyncKind, usize>,
    /// Maximum queue depth observed on any channel.
    pub max_queue_depth: usize,
    /// Final simulated time.
    pub end_time: f64,
    /// Executed actions (all kinds).
    pub steps: usize,
    /// Link-layer frames lost (lossy mode).
    pub frames_lost: usize,
    /// ARQ retransmissions performed (lossy mode with recovery).
    pub retransmissions: usize,
    /// Per-place activity: primitives executed, messages sent, messages
    /// received. The paper's §3 "load for the server PE" argument is read
    /// straight off this table (experiment E10).
    pub per_place: BTreeMap<PlaceId, PlaceLoad>,
}

/// Activity counters for one service access point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaceLoad {
    /// Service primitives executed at this place.
    pub primitives: usize,
    /// Synchronization messages sent by this place.
    pub sent: usize,
    /// Synchronization messages received by this place.
    pub received: usize,
}

impl PlaceLoad {
    /// Messages with this place as an endpoint.
    pub fn messages(&self) -> usize {
        self.sent + self.received
    }
}

impl SimMetrics {
    /// Synchronization messages per service primitive — the empirical
    /// overhead ratio of §4.3.
    pub fn overhead_ratio(&self) -> f64 {
        if self.primitives == 0 {
            0.0
        } else {
            self.messages as f64 / self.primitives as f64
        }
    }
}

/// Complete outcome of one simulation run.
pub struct SimOutcome {
    /// Event log in execution order.
    pub events: Vec<SimEvent>,
    /// The global service-primitive trace.
    pub trace: Vec<(String, PlaceId)>,
    /// Run metrics.
    pub metrics: SimMetrics,
    /// How the run ended.
    pub result: SimResult,
    /// The first service violation the monitor saw, if any.
    pub violation: Option<(String, u8)>,
    /// Index of that violation in `trace`: the run keeps stepping after
    /// the monitor latches, so it need not be the last primitive.
    pub violation_at: Option<usize>,
    /// Whether the service could have terminated where the run did
    /// (meaningful when `result == Terminated`).
    pub service_could_terminate: bool,
}

impl SimOutcome {
    /// Did the run conform to the service (no violation; termination only
    /// where the service allows it)?
    pub fn conforms(&self) -> bool {
        self.violation.is_none()
            && (self.result != SimResult::Terminated || self.service_could_terminate)
    }
}

struct InFlight {
    msg: Msg,
    arrive: f64,
}

/// The simulator.
pub struct Simulator {
    machines: Vec<EntityMachine>,
    places: Vec<PlaceId>,
    channels: BTreeMap<(PlaceId, PlaceId), VecDeque<InFlight>>,
    /// Lossy-link state per directed channel (only with `cfg.link`).
    links: BTreeMap<(PlaceId, PlaceId), Link>,
    clock: f64,
    rng: StdRng,
    cfg: SimConfig,
    monitor: ServiceMonitor,
}

/// One directed lossy channel: the ARQ machine plus the frames and acks
/// currently on the wire.
struct Link {
    arq: ArqChannel,
    data_wire: VecDeque<(Frame, f64)>,
    ack_wire: VecDeque<(u64, f64)>,
}

impl Link {
    fn new(timeout: f64) -> Link {
        Link {
            arq: ArqChannel::new(timeout),
            data_wire: VecDeque::new(),
            ack_wire: VecDeque::new(),
        }
    }

    fn idle(&self) -> bool {
        self.arq.is_idle() && self.data_wire.is_empty() && self.ack_wire.is_empty()
    }
}

/// Where a move leads — an interpreted successor term, or an index into
/// a compiled entity's transition array.
enum Succ {
    Term(Rc<RTerm>),
    Row(usize),
}

enum Move {
    Local(usize, Label, Succ),
    Receive(usize, Label, Succ),
    Terminate(Vec<Succ>),
}

/// One entity's behaviour, stepped either by interpreting its derived
/// term under SOS or by walking a pre-lowered transition table. Both
/// expose offers in the same (SOS) order, so a run draws the same move
/// for the same seed whichever machine is underneath — the property the
/// backend-parity suite pins down.
enum EntityMachine {
    Interp {
        env: Env,
        term: Rc<RTerm>,
    },
    Table {
        ent: Arc<CompiledEntity>,
        state: u32,
        /// Occurrence registers of `state` (see `docs/COMPILED.md`).
        regs: Vec<u32>,
        /// The run-shared occurrence table: all entities intern through
        /// it, so sender and receiver agree on instance numbers.
        occ: Rc<RefCell<OccTable>>,
        /// `(parent, site) → child` memo; interning is append-only, so
        /// entries never go stale.
        cache: FxHashMap<(u32, u32), u32>,
    },
}

/// Evaluate an occurrence source against a register file, interning
/// missing children through the shared table.
fn eval_src(
    src: &OccSrc,
    regs: &[u32],
    cache: &mut FxHashMap<(u32, u32), u32>,
    occ: &RefCell<OccTable>,
) -> u32 {
    let mut v = match src.base {
        OccBase::Root => 0,
        OccBase::Reg(j) => regs[j as usize],
    };
    for &site in &src.sites {
        v = *cache
            .entry((v, site))
            .or_insert_with(|| occ.borrow_mut().child(v, site));
    }
    v
}

impl EntityMachine {
    /// The current state's offers, in SOS successor order.
    fn offers(&mut self) -> Vec<(Label, Succ)> {
        match self {
            EntityMachine::Interp { env, term } => transitions(env, term)
                .into_iter()
                .map(|(l, t)| (l, Succ::Term(t)))
                .collect(),
            EntityMachine::Table {
                ent,
                state,
                regs,
                occ,
                cache,
            } => {
                let base = ent.row_off[*state as usize] as usize;
                ent.row(*state)
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let v = eval_src(&t.occ, regs, cache, occ);
                        let label = ent.labels[t.label as usize].materialize(v);
                        (label, Succ::Row(base + i))
                    })
                    .collect()
            }
        }
    }

    fn advance(&mut self, succ: Succ) {
        match (self, succ) {
            (EntityMachine::Interp { term, .. }, Succ::Term(t)) => *term = t,
            (
                EntityMachine::Table {
                    ent,
                    state,
                    regs,
                    occ,
                    cache,
                },
                Succ::Row(i),
            ) => {
                let t = &ent.trans[i];
                let next: Vec<u32> = t
                    .regs
                    .iter()
                    .map(|s| eval_src(s, regs, cache, occ))
                    .collect();
                *regs = next;
                *state = t.next;
            }
            _ => unreachable!("successor kind does not match machine kind"),
        }
    }

    fn is_stop(&self) -> bool {
        match self {
            EntityMachine::Interp { term, .. } => matches!(&**term, RTerm::Stop),
            EntityMachine::Table { ent, state, .. } => ent.is_stop[*state as usize],
        }
    }
}

impl Simulator {
    /// Set up a simulator for a derivation (interpreted entities).
    pub fn new(d: &Derivation, cfg: SimConfig) -> Simulator {
        let occ = Rc::new(RefCell::new(OccTable::new()));
        let mut machines = Vec::new();
        let mut places = Vec::new();
        for (p, spec) in &d.entities {
            let env = Env::with_occ(spec.clone(), Rc::clone(&occ));
            let term = env.root();
            machines.push(EntityMachine::Interp { env, term });
            places.push(*p);
        }
        Simulator::with_machines(d, cfg, machines, places)
    }

    /// Set up a simulator stepping pre-lowered transition tables, one per
    /// entity of `d` (in `d.entities` order).
    pub fn new_compiled(
        d: &Derivation,
        cfg: SimConfig,
        tables: &[Arc<CompiledEntity>],
    ) -> Simulator {
        assert_eq!(
            tables.len(),
            d.entities.len(),
            "one compiled table per entity"
        );
        let occ = Rc::new(RefCell::new(OccTable::new()));
        let mut machines = Vec::new();
        let mut places = Vec::new();
        for ((p, _), ent) in d.entities.iter().zip(tables) {
            let regs = ent.init_regs(&mut occ.borrow_mut());
            machines.push(EntityMachine::Table {
                ent: Arc::clone(ent),
                state: 0,
                regs,
                occ: Rc::clone(&occ),
                cache: FxHashMap::default(),
            });
            places.push(*p);
        }
        Simulator::with_machines(d, cfg, machines, places)
    }

    fn with_machines(
        d: &Derivation,
        cfg: SimConfig,
        machines: Vec<EntityMachine>,
        places: Vec<PlaceId>,
    ) -> Simulator {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Simulator {
            machines,
            places,
            channels: BTreeMap::new(),
            links: BTreeMap::new(),
            clock: 0.0,
            rng,
            cfg,
            monitor: ServiceMonitor::new(d.service.clone()),
        }
    }

    /// Run to completion (termination, deadlock, or the step limit).
    pub fn run(mut self) -> SimOutcome {
        let mut events = Vec::new();
        let mut trace = Vec::new();
        let mut metrics = SimMetrics::default();
        let result;

        loop {
            if metrics.steps >= self.cfg.max_steps {
                result = SimResult::StepLimit;
                break;
            }
            if self.cfg.link.is_some() {
                self.pump_links(&mut metrics);
            }
            let moves = self.enabled_moves();
            if moves.is_empty() {
                // Advance the clock to the next *future* arrival, if any.
                // Messages that already arrived but cannot be consumed yet
                // (e.g. a Rel barrier waiting behind program order) must
                // not stall the clock at their arrival time.
                if let Some(t) = self.next_arrival_after(self.clock) {
                    self.clock = t;
                    continue;
                }
                let in_flight: usize = self.channels.values().map(|q| q.len()).sum::<usize>()
                    + self.links.values().filter(|l| !l.idle()).count();
                if in_flight > 0 || !self.all_stopped() {
                    events.push(SimEvent {
                        time: self.clock,
                        step: metrics.steps,
                        kind: SimEventKind::Deadlock,
                    });
                    result = SimResult::Deadlock;
                } else {
                    result = SimResult::Deadlock; // stopped without δ
                }
                break;
            }
            let choice = self.rng.gen_range(0..moves.len());
            metrics.steps += 1;
            let step = metrics.steps;
            match moves.into_iter().nth(choice).unwrap() {
                Move::Terminate(next) => {
                    for (k, succ) in next.into_iter().enumerate() {
                        self.machines[k].advance(succ);
                    }
                    events.push(SimEvent {
                        time: self.clock,
                        step,
                        kind: SimEventKind::Terminated,
                    });
                    result = SimResult::Terminated;
                    break;
                }
                Move::Local(k, label, succ) => {
                    self.machines[k].advance(succ);
                    match label {
                        Label::Prim { name, place } => {
                            self.monitor.step(&name, place);
                            trace.push((name.clone(), place));
                            metrics.primitives += 1;
                            metrics.per_place.entry(place).or_default().primitives += 1;
                            events.push(SimEvent {
                                time: self.clock,
                                step,
                                kind: SimEventKind::Prim { name, place },
                            });
                        }
                        Label::I => {
                            events.push(SimEvent {
                                time: self.clock,
                                step,
                                kind: SimEventKind::Internal {
                                    place: self.places[k],
                                },
                            });
                        }
                        Label::Send { to, msg, occ, kind } => {
                            let from = self.places[k];
                            let m = Msg {
                                from,
                                to,
                                id: msg,
                                occ,
                                kind,
                            };
                            metrics.messages += 1;
                            *metrics.messages_per_kind.entry(m.kind).or_default() += 1;
                            metrics.per_place.entry(from).or_default().sent += 1;
                            if let Some(link_cfg) = self.cfg.link {
                                // hand the message to the link layer
                                let link = self.links.entry((from, to)).or_insert_with(|| {
                                    // without ARQ the link sends each frame
                                    // exactly once: an infinite timeout
                                    // disables retransmission
                                    Link::new(if link_cfg.arq {
                                        link_cfg.arq_timeout
                                    } else {
                                        f64::INFINITY
                                    })
                                });
                                link.arq.submit(m.clone());
                            } else {
                                let delay =
                                    self.rng.gen_range(self.cfg.delay_min..=self.cfg.delay_max);
                                let q = self.channels.entry((from, to)).or_default();
                                let arrive = match self.cfg.order {
                                    // FIFO: delivery cannot overtake the queue
                                    Order::Fifo => {
                                        let floor =
                                            q.back().map(|x| x.arrive).unwrap_or(self.clock);
                                        floor.max(self.clock) + delay
                                    }
                                    Order::Arbitrary => self.clock + delay,
                                };
                                q.push_back(InFlight {
                                    msg: m.clone(),
                                    arrive,
                                });
                                metrics.max_queue_depth = metrics.max_queue_depth.max(q.len());
                            }
                            events.push(SimEvent {
                                time: self.clock,
                                step,
                                kind: SimEventKind::Sent(m),
                            });
                        }
                        other => unreachable!("local move with label {other}"),
                    }
                }
                Move::Receive(k, label, succ) => {
                    let Label::Recv { from, msg, occ, .. } = label else {
                        unreachable!()
                    };
                    let here = self.places[k];
                    metrics.per_place.entry(here).or_default().received += 1;
                    if self.cfg.link.is_some() {
                        let link = self.links.get_mut(&(from, here)).unwrap();
                        let delivered = link.arq.take_delivered().unwrap();
                        debug_assert!(delivered.id == msg && delivered.occ == occ);
                        self.machines[k].advance(succ);
                        events.push(SimEvent {
                            time: self.clock,
                            step,
                            kind: SimEventKind::Delivered(delivered),
                        });
                        continue;
                    }
                    let q = self.channels.get_mut(&(from, here)).unwrap();
                    let idx = match self.cfg.order {
                        Order::Fifo => 0,
                        Order::Arbitrary => q
                            .iter()
                            .position(|x| {
                                x.arrive <= self.clock && x.msg.id == msg && x.msg.occ == occ
                            })
                            .unwrap(),
                    };
                    let inflight = q.remove(idx).unwrap();
                    if q.is_empty() {
                        self.channels.remove(&(from, here));
                    }
                    self.machines[k].advance(succ);
                    events.push(SimEvent {
                        time: self.clock,
                        step,
                        kind: SimEventKind::Delivered(inflight.msg),
                    });
                }
            }
        }

        metrics.end_time = self.clock;
        let service_could_terminate = self.monitor.may_terminate();
        SimOutcome {
            events,
            trace,
            metrics,
            result,
            violation: self.monitor.violation().cloned(),
            violation_at: self.monitor.violation_at(),
            service_could_terminate,
        }
    }

    fn all_stopped(&self) -> bool {
        self.machines.iter().all(|m| m.is_stop())
    }

    /// Earliest in-flight arrival (or link-layer deadline) strictly after
    /// `after`, if any.
    fn next_arrival_after(&self, after: f64) -> Option<f64> {
        let channel_arrivals = self
            .channels
            .values()
            .flat_map(|q| q.iter().map(|x| x.arrive));
        let wire_arrivals = self.links.values().flat_map(|l| {
            l.data_wire
                .iter()
                .map(|(_, t)| *t)
                .chain(l.ack_wire.iter().map(|(_, t)| *t))
        });
        let arq_deadlines = self
            .links
            .values()
            .filter_map(|l| l.arq.next_deadline())
            .map(|t| t.max(after + 1e-9));
        channel_arrivals
            .chain(wire_arrivals)
            .chain(arq_deadlines)
            .filter(|t| *t > after && t.is_finite())
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Drive every lossy link at the current clock: deliver due frames
    /// and acks, and put pending (re)transmissions on the wire — each
    /// surviving the link with probability `1 − loss`.
    fn pump_links(&mut self, metrics: &mut SimMetrics) {
        let Some(link_cfg) = self.cfg.link else {
            return;
        };
        let link_model = LossyLink {
            loss: link_cfg.loss,
        };
        loop {
            let mut progressed = false;
            for link in self.links.values_mut() {
                // deliver due acks first (they may free the sender)
                while link.ack_wire.front().is_some_and(|(_, t)| *t <= self.clock) {
                    let (bit, _) = link.ack_wire.pop_front().unwrap();
                    link.arq.on_ack(bit);
                    progressed = true;
                }
                // deliver due data frames, emitting acks onto the wire
                while link
                    .data_wire
                    .front()
                    .is_some_and(|(_, t)| *t <= self.clock)
                {
                    let (frame, _) = link.data_wire.pop_front().unwrap();
                    let ack = link.arq.on_frame(frame);
                    progressed = true;
                    if link_model.survives(&mut self.rng) {
                        let delay = self.rng.gen_range(self.cfg.delay_min..=self.cfg.delay_max);
                        link.ack_wire.push_back((ack, self.clock + delay));
                    } else {
                        metrics.frames_lost += 1;
                    }
                }
                // (re)transmissions due now
                if let Some(frame) = link.arq.poll_transmit(self.clock) {
                    progressed = true;
                    if link_model.survives(&mut self.rng) {
                        let delay = self.rng.gen_range(self.cfg.delay_min..=self.cfg.delay_max);
                        link.data_wire.push_back((frame, self.clock + delay));
                    } else {
                        metrics.frames_lost += 1;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        metrics.retransmissions = self.links.values().map(|l| l.arq.retransmissions).sum();
    }

    fn enabled_moves(&mut self) -> Vec<Move> {
        let mut out = Vec::new();
        let mut deltas: Vec<Option<Succ>> = Vec::with_capacity(self.machines.len());
        for k in 0..self.machines.len() {
            let here = self.places[k];
            let mut delta = None;
            for (l, succ) in self.machines[k].offers() {
                match &l {
                    Label::Prim { name, place } => {
                        let refused = self.cfg.refuse.iter().any(|(n, p)| n == name && p == place);
                        if !refused {
                            out.push(Move::Local(k, l, succ));
                        }
                    }
                    Label::I => out.push(Move::Local(k, l, succ)),
                    Label::Send { .. } => out.push(Move::Local(k, l, succ)),
                    Label::Recv { from, msg, occ, .. } => {
                        if self.receivable(*from, here, msg, *occ) {
                            out.push(Move::Receive(k, l, succ));
                        }
                    }
                    Label::Delta => delta = Some(succ),
                }
            }
            deltas.push(delta);
        }
        let in_flight: usize = self.channels.values().map(|q| q.len()).sum();
        if in_flight == 0 && deltas.iter().all(|d| d.is_some()) {
            out.push(Move::Terminate(
                deltas.into_iter().map(|d| d.unwrap()).collect(),
            ));
        }
        out
    }

    fn receivable(&self, from: PlaceId, to: PlaceId, id: &lotos::event::MsgId, occ: u32) -> bool {
        if self.cfg.link.is_some() {
            // link layer: the head of the in-order delivered queue
            return match self
                .links
                .get(&(from, to))
                .and_then(|l| l.arq.peek_delivered())
            {
                Some(m) => m.id == *id && m.occ == occ,
                None => false,
            };
        }
        let Some(q) = self.channels.get(&(from, to)) else {
            return false;
        };
        match self.cfg.order {
            Order::Fifo => {
                let head = &q[0];
                head.arrive <= self.clock && head.msg.id == *id && head.msg.occ == occ
            }
            Order::Arbitrary => q
                .iter()
                .any(|x| x.arrive <= self.clock && x.msg.id == *id && x.msg.occ == occ),
        }
    }
}

/// Run one simulation of a derivation.
pub fn simulate(d: &Derivation, cfg: SimConfig) -> SimOutcome {
    verify_stack(move || Simulator::new(d, cfg).run())
}

/// Run one simulation stepping pre-lowered transition tables (one per
/// entity, in `d.entities` order) instead of interpreting terms. Same
/// seed, same moves, same outcome as [`simulate`] — just faster per
/// step. Entity stepping is iterative, but the conformance monitor
/// still interprets the service term, so the big-stack harness stays.
pub fn simulate_compiled(
    d: &Derivation,
    cfg: SimConfig,
    tables: &[Arc<CompiledEntity>],
) -> SimOutcome {
    verify_stack(move || Simulator::new_compiled(d, cfg, tables).run())
}

/// Deeply recursive entities build deep terms; give the interpreter room.
fn verify_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn_scoped(s, f)
            .expect("spawn simulation thread")
            .join()
            .expect("simulation thread panicked")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotos::parser::parse_spec;
    use protogen::derive::derive;

    fn run(src: &str, cfg: SimConfig) -> SimOutcome {
        let d = derive(&parse_spec(src).unwrap()).unwrap();
        simulate(&d, cfg)
    }

    #[test]
    fn simple_sequence_terminates_and_conforms() {
        let o = run("SPEC a1; b2; c3; exit ENDSPEC", SimConfig::default());
        assert_eq!(o.result, SimResult::Terminated);
        assert!(o.conforms(), "violation: {:?}", o.violation);
        assert_eq!(
            o.trace,
            vec![("a".into(), 1), ("b".into(), 2), ("c".into(), 3)]
        );
        // two sequencing messages: 1→2 and 2→3
        assert_eq!(o.metrics.messages, 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SimConfig::default();
        let a = run("SPEC (a1;b2;c1;exit) [] (e1;c1;exit) ENDSPEC", cfg.clone());
        let b = run("SPEC (a1;b2;c1;exit) [] (e1;c1;exit) ENDSPEC", cfg);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.metrics.steps, b.metrics.steps);
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let mut traces = std::collections::BTreeSet::new();
        for seed in 0..20 {
            let o = run(
                "SPEC a1;exit ||| b2;exit ||| c3;exit ENDSPEC",
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            );
            assert!(o.conforms());
            traces.insert(o.trace);
        }
        // with three independent events, several interleavings show up
        assert!(traces.len() >= 3, "only {} orders", traces.len());
    }

    #[test]
    fn choice_runs_conform() {
        for seed in 0..20 {
            let o = run(
                "SPEC (a1;b2;c1;exit) [] (e1;c1;exit) ENDSPEC",
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            );
            assert_eq!(o.result, SimResult::Terminated, "seed {seed}");
            assert!(o.conforms(), "seed {seed}: {:?}", o.violation);
        }
    }

    #[test]
    fn recursion_runs_conform() {
        // aⁿbⁿ — every run must produce a Dyck-like trace
        for seed in 0..10 {
            let o = run(
                "SPEC A WHERE PROC A = (a1 ; A >> b2 ; exit) [] (a1 ; b2 ; exit) END ENDSPEC",
                SimConfig {
                    seed,
                    max_steps: 2000,
                    ..SimConfig::default()
                },
            );
            assert!(o.conforms(), "seed {seed}: {:?}", o.violation);
            if o.result == SimResult::Terminated {
                let a_count = o.trace.iter().filter(|(n, _)| n == "a").count();
                let b_count = o.trace.iter().filter(|(n, _)| n == "b").count();
                assert_eq!(a_count, b_count, "seed {seed}");
                assert!(a_count >= 1);
            }
        }
    }

    #[test]
    fn message_overhead_counted() {
        let o = run("SPEC a1; b2; a1; b2; exit ENDSPEC", SimConfig::default());
        assert_eq!(o.metrics.primitives, 4);
        // 3 sequencing messages (1→2, 2→1, 1→2)
        assert_eq!(o.metrics.messages, 3);
        assert!((o.metrics.overhead_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn events_are_time_ordered() {
        let o = run("SPEC a1; b2; c3; a1; exit ENDSPEC", SimConfig::default());
        for w in o.events.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(o.metrics.end_time > 0.0);
    }

    #[test]
    fn per_place_load_accounting() {
        let o = run("SPEC a1; b2; c3; exit ENDSPEC", SimConfig::default());
        assert_eq!(o.result, SimResult::Terminated);
        let load = &o.metrics.per_place;
        assert_eq!(load[&1].primitives, 1);
        assert_eq!(load[&2].primitives, 1);
        assert_eq!(load[&3].primitives, 1);
        // a1→b2 and b2→c3: place 1 sends 1, place 2 sends 1 + receives 1,
        // place 3 receives 1
        assert_eq!(load[&1].sent, 1);
        assert_eq!(load[&2].messages(), 2);
        assert_eq!(load[&3].received, 1);
        let total_sent: usize = load.values().map(|l| l.sent).sum();
        let total_recv: usize = load.values().map(|l| l.received).sum();
        assert_eq!(total_sent, o.metrics.messages);
        assert_eq!(total_recv, o.metrics.messages);
    }

    #[test]
    fn config_builds_and_json_round_trips() {
        let cfg = SimConfig::new()
            .seed(42)
            .delays(0.5, 2.0)
            .max_steps(500)
            .link(LinkConfig {
                loss: 0.25,
                arq: false,
                arq_timeout: 12.5,
            });
        let back = SimConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.seed, 42);
        assert_eq!(back.delay_min, 0.5);
        assert_eq!(back.delay_max, 2.0);
        assert_eq!(back.max_steps, 500);
        let link = back.link.unwrap();
        assert_eq!(link.loss, 0.25);
        assert!(!link.arq);
        assert_eq!(link.arq_timeout, 12.5);
        // no link -> none after the round trip either
        assert!(SimConfig::from_json(&SimConfig::new().to_json())
            .unwrap()
            .link
            .is_none());
    }
}
