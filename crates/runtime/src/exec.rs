//! The two execution engines and the session multiplexer.
//!
//! * **Concurrent** (`threads >= 2`): one OS thread per protocol entity
//!   ([`crate::entity::EntityWorker`]), a pipelined window of sessions in
//!   flight at once (`threads` × [`MUX_PIPELINE`]), and the calling
//!   thread as multiplexer — it opens
//!   sessions, collects completions, and replays each completed session's
//!   primitive trace through [`sim::monitor::ServiceMonitor`] (the
//!   monitor is single-threaded by construction, so conformance is
//!   checked at the multiplexer, not inside entity threads).
//! * **Deterministic** (`threads <= 1`): each session is one seeded run
//!   of the discrete-event simulator ([`sim::des`]) — bit-reproducible,
//!   and byte-identical to `protogen simulate` for the same seed. This is
//!   the reference engine the concurrent one is tested against.

use crate::compiled::{lower_for, make_backend};
use crate::config::{FaultProfile, RuntimeConfig};
use crate::entity::{CompletionQueue, EntityWorker, Notifier};
use crate::metrics::{
    GaugeSnapshot, Metrics, RuntimeReport, SessionReport, StageBreakdown, TraceMeta,
    ViolationRecord,
};
use crate::session::{SessionCore, SessionEnd, SessionSlot};
use crate::stall::StallTracker;
use lotos::ast::Spec;
use lotos::event::SyncKind;
use lotos::place::PlaceId;
use obs::{EventKind, Recorder, Registry};
use protogen::derive::Derivation;
use semantics::engine::TermArena;
use semantics::hash::FxHashMap;
use semantics::lower::CompiledEntity;
use semantics::term::OccTable;
use sim::des::{LinkConfig, SimConfig, SimResult};
use sim::monitor::ServiceMonitor;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Entity threads interpret recursive behaviour terms; deep specs need
/// deep stacks (same idiom as `verify`'s big-stack harness).
const ENTITY_STACK: usize = 64 << 20;

/// Multiplexer pipelining: sessions kept in flight per configured
/// thread. Each message exchange hands the session to its peer entity's
/// thread, so a deep enough in-flight batch lets one OS timeslice of an
/// entity thread advance many sessions before the scheduler flips to
/// the peer — on few-core hosts the flip, not the stepping, is the
/// dominant cost of a session.
const MUX_PIPELINE: usize = 32;

/// Run `cfg.sessions` independent sessions of the derived protocol and
/// report. Engine selection is by `cfg.threads`, backend selection by
/// `cfg.backend`, and tracing by `cfg.record` / `cfg.registry` (see the
/// module docs and [`crate::compiled`]).
///
/// Panics when `cfg.backend` is [`crate::BackendChoice::Compiled`] and
/// some entity cannot be lowered; use [`try_run`] to handle that case.
pub fn run(d: &Derivation, cfg: &RuntimeConfig) -> RuntimeReport {
    match try_run(d, cfg) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// [`run`], with backend-selection failure as an `Err` instead of a
/// panic (only `--backend compiled` on a non-lowerable entity fails).
pub fn try_run(d: &Derivation, cfg: &RuntimeConfig) -> Result<RuntimeReport, String> {
    let registry = cfg.registry.clone().or_else(|| {
        cfg.record
            .then(|| Registry::new(trace_id_for(cfg.seed), obs::DEFAULT_CAPACITY))
    });
    let lowered = lower_for(&d.entities, cfg.backend)?;
    let mut report = if cfg.threads <= 1 {
        run_deterministic(d, cfg, registry.as_ref(), &lowered)
    } else {
        run_concurrent(d, cfg, registry.as_ref(), &lowered)
    };
    if let Some(reg) = &registry {
        attach_recorder_artifacts(&mut report, reg);
    }
    Ok(report)
}

/// What actually ran, for the report's `backend` field: `"compiled"`
/// only when *every* entity stepped from tables.
pub(crate) fn backend_desc(lowered: &[Option<Arc<CompiledEntity>>]) -> &'static str {
    let n = lowered.iter().filter(|e| e.is_some()).count();
    if n == 0 {
        "interpreted"
    } else if n == lowered.len() {
        "compiled"
    } else {
        "mixed"
    }
}

/// Lines of flight-recorder tail attached to violation and abort reports.
const TAIL_LINES: usize = 64;

/// Nonzero trace id derived from the run seed (zero means "untraced" in
/// the wire protocol's `Open.trace` field).
pub fn trace_id_for(seed: u64) -> u64 {
    semantics::hash::fx_hash(&(seed, 0x0b5_7ace_u64)).max(1)
}

/// Post-run recorder export: embed the trace metadata in the report and
/// attach each violating/aborted session's flight-recorder tail.
pub(crate) fn attach_recorder_artifacts(report: &mut RuntimeReport, registry: &Arc<Registry>) {
    let log = registry.snapshot();
    let (rings, events, dropped) = registry.stats();
    report.trace_meta = Some(TraceMeta {
        trace_id: registry.trace_id,
        rings,
        events,
        dropped,
    });
    for v in &mut report.violations {
        v.tail = log.tail(v.session, TAIL_LINES);
    }
    for s in &report.reports {
        if s.end == SessionEnd::Aborted {
            report.abort_tails.insert(s.id, log.tail(s.id, TAIL_LINES));
        }
    }
}

/// A conformance verdict: the first violation (primitive, place,
/// index) and whether the service could terminate where the trace ends.
type Replay = (Option<(String, PlaceId, usize)>, bool);

/// Replay a completed session's primitive trace against the service.
fn replay_conformance(service: &Spec, trace: &[(String, PlaceId)]) -> Replay {
    let mut mon = ServiceMonitor::new(service.clone());
    for (i, (name, place)) in trace.iter().enumerate() {
        if !mon.step(name, *place) {
            return (Some((name.clone(), *place, i)), false);
        }
    }
    (None, mon.may_terminate())
}

#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) conforming: usize,
    pub(crate) terminated: usize,
    pub(crate) deadlocked: usize,
    pub(crate) step_limited: usize,
    pub(crate) aborted: usize,
    pub(crate) violations: Vec<ViolationRecord>,
    pub(crate) per_kind: BTreeMap<SyncKind, usize>,
    pub(crate) per_link: BTreeMap<String, crate::metrics::LinkReport>,
    pub(crate) reports: Vec<SessionReport>,
}

impl Tally {
    /// The report every engine shares: verdict counts from the tally,
    /// counters and histograms from `metrics`, wall time since
    /// `started`. Engines that measure a field differently override it
    /// with struct-update syntax.
    pub(crate) fn into_report(
        self,
        engine: &'static str,
        backend: &'static str,
        cfg: &RuntimeConfig,
        metrics: &Metrics,
        started: Instant,
    ) -> RuntimeReport {
        let wall_s = started.elapsed().as_secs_f64();
        let load = |c: &std::sync::atomic::AtomicUsize| c.load(Ordering::Relaxed);
        RuntimeReport {
            engine,
            backend,
            schema_version: crate::metrics::REPORT_SCHEMA_VERSION,
            config: cfg.clone(),
            sessions: self.reports.len(),
            conforming: self.conforming,
            terminated: self.terminated,
            deadlocked: self.deadlocked,
            step_limited: self.step_limited,
            aborted: self.aborted,
            violations: self.violations,
            primitives: load(&metrics.primitives),
            messages: load(&metrics.messages_sent),
            delivered: load(&metrics.messages_delivered),
            messages_per_kind: self.per_kind,
            max_queue_depth: load(&metrics.max_queue_depth),
            frames_lost: load(&metrics.frames_lost),
            retransmissions: load(&metrics.retransmissions),
            per_link: self.per_link,
            transport_events: Vec::new(),
            wall_s,
            sessions_per_sec: if wall_s > 0.0 {
                self.reports.len() as f64 / wall_s
            } else {
                0.0
            },
            session_latency: metrics.session_latency.summary(),
            stages: metrics.stages.summaries(),
            stalls: Vec::new(),
            gauges: GaugeSnapshot::capture(metrics),
            per_prim: metrics
                .per_prim
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
            phases: Vec::new(),
            trace_meta: None,
            abort_tails: BTreeMap::new(),
            reports: self.reports,
        }
    }

    /// Record a session's first violation: the primitive, its place,
    /// and its index in the session's primitive `trace`.
    pub(crate) fn violation(
        &mut self,
        session: u64,
        seed: u64,
        (primitive, place, at): (&str, PlaceId, usize),
        trace: &[(String, PlaceId)],
    ) {
        self.violations.push(ViolationRecord {
            session,
            seed,
            primitive: primitive.to_string(),
            place,
            at,
            trace: trace.to_vec(),
            tail: Vec::new(),
        });
    }

    pub(crate) fn absorb(&mut self, rep: SessionReport) {
        match rep.end {
            SessionEnd::Terminated => self.terminated += 1,
            SessionEnd::Deadlock => self.deadlocked += 1,
            SessionEnd::StepLimit => self.step_limited += 1,
            SessionEnd::Aborted => self.aborted += 1,
        }
        if rep.conforms {
            self.conforming += 1;
        }
        self.reports.push(rep);
    }
}

/// Memoized conformance replays, keyed by the full primitive trace.
/// Load runs drive many sessions down identical traces; replaying the
/// service monitor once per *distinct* trace instead of once per session
/// takes conformance checking off the critical path of both engines —
/// the local multiplexer and the distributed hub. Keying on the whole
/// trace makes every verdict identical to a fresh replay.
#[derive(Default)]
pub(crate) struct ReplayCache(FxHashMap<Vec<(String, PlaceId)>, Replay>);

impl ReplayCache {
    /// The verdict for `trace`, replaying the service monitor only on
    /// the first sight of this exact trace.
    pub(crate) fn replay(&mut self, service: &Spec, trace: &[(String, PlaceId)]) -> Replay {
        if let Some(hit) = self.0.get(trace) {
            return hit.clone();
        }
        let v = replay_conformance(service, trace);
        self.0.insert(trace.to_vec(), v.clone());
        v
    }
}

fn run_concurrent(
    d: &Derivation,
    cfg: &RuntimeConfig,
    registry: Option<&Arc<Registry>>,
    lowered: &[Option<Arc<CompiledEntity>>],
) -> RuntimeReport {
    let started = Instant::now();
    let places: Vec<PlaceId> = d.entities.iter().map(|(p, _)| *p).collect();
    let n = places.len();
    let place_index: BTreeMap<PlaceId, usize> =
        places.iter().enumerate().map(|(i, p)| (*p, i)).collect();
    let channels = medium::channels(d.all);

    // One arena + one occurrence table shared by every entity engine, so
    // all entities (and all sessions) agree on §3.5 instance numbers and
    // share transition memoization.
    let arena = Arc::new(TermArena::new());
    let occ = Arc::new(Mutex::new(OccTable::new()));
    let notifiers: Vec<Arc<Notifier>> = (0..n).map(|_| Arc::new(Notifier::new())).collect();
    let completions = Arc::new(CompletionQueue::new());
    let metrics = Arc::new(Metrics::for_service(&d.service));
    let stalls = Arc::new(StallTracker::new());

    let mut tally = Tally::default();
    let mut replay_cache = ReplayCache::default();
    std::thread::scope(|scope| {
        for (idx, (place, spec)) in d.entities.iter().enumerate() {
            let worker = EntityWorker {
                idx,
                place: *place,
                n,
                backend: make_backend(spec, lowered[idx].clone(), &arena, &occ),
                cfg: cfg.clone(),
                notifiers: notifiers.clone(),
                place_index: place_index.clone(),
                completions: Arc::clone(&completions),
                metrics: Arc::clone(&metrics),
                rec: registry.map(|r| r.recorder(*place)),
            };
            std::thread::Builder::new()
                .name(format!("entity-{place}"))
                .stack_size(ENTITY_STACK)
                .spawn_scoped(scope, move || worker.run())
                .expect("spawn entity thread");
        }

        // The multiplexer: keep a pipelined window of sessions in flight.
        // Its recorder captures session lifecycle at place 0 (the driver);
        // entity threads record their own moves at their own places.
        let mux_rec = registry.map(|r| r.recorder(0));
        // In-flight session window. `threads` sets the concurrency the
        // user asked for; the pipelining factor keeps each entity thread
        // supplied with enough runnable sessions to absorb the scheduler
        // round trips of the message ping-pong between entity threads —
        // one OS timeslice advances a whole batch, not one session.
        let window = cfg.threads.max(1) * MUX_PIPELINE;
        metrics.window_size.store(window, Ordering::Relaxed);
        // Stall forensics: a sampler thread polls the open-session set
        // against the configured or p99-derived deadline.
        {
            let stalls = Arc::clone(&stalls);
            let metrics = Arc::clone(&metrics);
            let registry = registry.cloned();
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("stall-sampler".to_string())
                .spawn_scoped(scope, move || stalls.run(&cfg, &metrics, registry.as_ref()))
                .expect("spawn stall sampler");
        }
        let mut next = 0usize;
        let mut in_flight = 0usize;
        while next < cfg.sessions || in_flight > 0 {
            // Refill with hysteresis: top the window up only once it has
            // drained below half, so opens (and the notifier traffic they
            // cause) arrive in bursts the entity threads absorb in one
            // wake-up each instead of once per completed session.
            if in_flight <= window / 2 {
                while next < cfg.sessions && in_flight < window {
                    if let Some(rec) = &mux_rec {
                        rec.record(
                            EventKind::SessionOpen,
                            next as u64,
                            0,
                            cfg.session_seed(next),
                            0,
                        );
                    }
                    let core =
                        SessionCore::new(next as u64, cfg.session_seed(next), cfg, &channels);
                    let slot = Arc::new(SessionSlot::new(core));
                    stalls.insert(next as u64, Arc::clone(&slot));
                    for nt in &notifiers {
                        nt.open(Arc::clone(&slot));
                    }
                    next += 1;
                    in_flight += 1;
                }
                metrics.window_occupancy.store(in_flight, Ordering::Relaxed);
            }
            let slot = completions.pop();
            in_flight -= 1;
            metrics.window_occupancy.store(in_flight, Ordering::Relaxed);
            let rep = finalize_session(
                d,
                cfg,
                &slot,
                &metrics,
                &mut tally,
                &mut replay_cache,
                mux_rec.as_ref(),
            );
            stalls.remove(rep.id);
            tally.absorb(rep);
        }
        stalls.stop_sampler();
        for nt in &notifiers {
            nt.shutdown();
        }
    });

    RuntimeReport {
        stalls: stalls.take_records(),
        ..tally.into_report("concurrent", backend_desc(lowered), cfg, &metrics, started)
    }
}

/// Turn a completed session into a [`SessionReport`]: replay conformance,
/// merge its medium statistics, record its latency.
fn finalize_session(
    d: &Derivation,
    cfg: &RuntimeConfig,
    slot: &SessionSlot,
    metrics: &Metrics,
    tally: &mut Tally,
    replay_cache: &mut ReplayCache,
    rec: Option<&Recorder>,
) -> SessionReport {
    let core = slot.core.lock().expect("session poisoned");
    let end = core.completed.expect("finalized session not completed");
    let latency_us = core
        .ended
        .unwrap_or_else(Instant::now)
        .duration_since(core.started)
        .as_micros() as u64;
    metrics.session_latency.record(latency_us);
    // Stage attribution: queue_wait runs from open to the first executed
    // move; step is the lock-held stepping time the entity threads
    // credited; wire is zero in-process; the residual is notify_wait
    // (notifier queues, lock contention, scheduler round trips).
    let queue_us = core
        .first_step
        .map(|t| t.saturating_duration_since(core.started).as_micros() as u64)
        .unwrap_or(latency_us);
    let stages = StageBreakdown::attribute(latency_us, queue_us, core.step_ns / 1000, 0, None);
    metrics.stages.record(&stages);
    metrics.sessions_completed.fetch_add(1, Ordering::Relaxed);
    let (lost, retx) = core.link_totals();
    metrics.frames_lost.fetch_add(lost, Ordering::Relaxed);
    metrics.retransmissions.fetch_add(retx, Ordering::Relaxed);
    for ((from, to), (l, r)) in core.link_breakdown() {
        let e = tally.per_link.entry(format!("{from}->{to}")).or_default();
        e.lost += l;
        e.retransmissions += r;
    }
    for (k, c) in &core.stats.sent_per_kind {
        *tally.per_kind.entry(*k).or_default() += c;
    }

    let (mut violation, may_terminate) = replay_cache.replay(&d.service, &core.trace);
    let conforms = violation.is_none() && end == SessionEnd::Terminated && may_terminate;
    // A deadlock against a refused offer is a conformance failure the
    // monitor cannot see (the primitive never executed): surface the
    // offer an entity recorded while blocked as a synthesized violation.
    if violation.is_none() && end == SessionEnd::Deadlock {
        if let Some((name, place)) = core.refused_offer.clone() {
            violation = Some((name, place, core.trace.len()));
        }
    }
    if let Some((name, place, at)) = &violation {
        if let Some(rec) = rec {
            rec.record_named(
                EventKind::Violation,
                core.id,
                core.steps as u64,
                name,
                *place as u64,
            );
        }
        tally.violation(core.id, core.seed, (name, *place, *at), &core.trace);
    }
    if let Some(rec) = rec {
        rec.record(
            EventKind::SessionClose,
            core.id,
            core.steps as u64,
            end.code().into(),
            core.steps as u64,
        );
        if lost + retx > 0 {
            rec.record(
                EventKind::FaultSummary,
                core.id,
                0,
                lost as u64,
                retx as u64,
            );
        }
    }
    SessionReport {
        id: core.id,
        seed: core.seed,
        end,
        conforms,
        violation: violation.as_ref().map(|(n, p, _)| (n.clone(), *p)),
        primitives: core.trace.len(),
        messages: core.stats.sent,
        steps: core.steps,
        latency_us,
        stages,
        trace: if violation.is_some() || cfg.sessions == 1 {
            core.trace.clone()
        } else {
            Vec::new()
        },
    }
}

/// Map the runtime fault profile onto the DES configuration. Wire-level
/// reordering has no DES counterpart (the DES medium is FIFO by
/// construction); `Reorder` maps to its loss component — the ARQ layer
/// absorbs reordering in the concurrent engine anyway.
fn des_config(cfg: &RuntimeConfig, session: usize) -> SimConfig {
    let mut sc = SimConfig::new()
        .seed(cfg.session_seed(session))
        .max_steps(cfg.max_steps);
    for (name, place) in &cfg.refuse {
        sc = sc.refuse(name, *place);
    }
    match cfg.faults {
        FaultProfile::None => {}
        FaultProfile::Lossy { loss } | FaultProfile::Reorder { loss, .. } => {
            sc = sc.link(LinkConfig {
                loss,
                ..LinkConfig::default()
            });
        }
        FaultProfile::Delay { min, max } => {
            sc = sc.delays(min, max.max(min + 1e-9));
        }
    }
    sc
}

fn run_deterministic(
    d: &Derivation,
    cfg: &RuntimeConfig,
    registry: Option<&Arc<Registry>>,
    lowered: &[Option<Arc<CompiledEntity>>],
) -> RuntimeReport {
    let started = Instant::now();
    let metrics = Metrics::for_service(&d.service);
    // The DES steps compiled tables only when *every* entity lowered —
    // a per-entity mix would still pay the interpreter's engine setup
    // per session, which is what compiled stepping is here to avoid.
    let tables: Option<Vec<Arc<CompiledEntity>>> =
        lowered.iter().cloned().collect::<Option<Vec<_>>>();
    let backend = if tables.is_some() {
        "compiled"
    } else {
        "interpreted"
    };
    // The DES engine is single-threaded: one recorder at place 0 replays
    // each session's primitive trace into the ring (lc = trace index + 1,
    // matching the concurrent engine's per-session step clocks).
    let rec = registry.map(|r| r.recorder(0));
    let mut tally = Tally::default();
    let add = |c: &std::sync::atomic::AtomicUsize, v: usize| c.fetch_add(v, Ordering::Relaxed);

    for k in 0..cfg.sessions {
        let t0 = Instant::now();
        let outcome = match &tables {
            Some(tables) => sim::des::simulate_compiled(d, des_config(cfg, k), tables),
            None => sim::des::simulate(d, des_config(cfg, k)),
        };
        let latency_us = t0.elapsed().as_micros() as u64;
        metrics.session_latency.record(latency_us);
        // The DES runs a whole session inline: all of it is "step".
        let stages = StageBreakdown {
            queue_wait_us: 0,
            step_us: latency_us,
            notify_wait_us: 0,
            wire_us: 0,
        };
        metrics.stages.record(&stages);

        let m = &outcome.metrics;
        add(&metrics.primitives, m.primitives);
        add(&metrics.messages_sent, m.messages);
        add(
            &metrics.messages_delivered,
            m.per_place.values().map(|l| l.received).sum(),
        );
        metrics
            .max_queue_depth
            .fetch_max(m.max_queue_depth, Ordering::Relaxed);
        add(&metrics.frames_lost, m.frames_lost);
        add(&metrics.retransmissions, m.retransmissions);
        for (kind, c) in &outcome.metrics.messages_per_kind {
            *tally.per_kind.entry(*kind).or_default() += c;
        }

        let end = match outcome.result {
            SimResult::Terminated => SessionEnd::Terminated,
            SimResult::Deadlock => SessionEnd::Deadlock,
            SimResult::StepLimit => SessionEnd::StepLimit,
        };
        let conforms = outcome.conforms() && end == SessionEnd::Terminated;
        let mut violation = outcome.violation.clone();
        // Mirror the concurrent engine's refusal synthesis: a fault-free
        // DES deadlock under `--refuse` is the refusal biting (verified
        // derivations are otherwise deadlock-free), attributed to the
        // first refused primitive.
        if violation.is_none() && end == SessionEnd::Deadlock && !cfg.refuse.is_empty() {
            violation = Some(cfg.refuse[0].clone());
        }
        if let Some(rec) = &rec {
            rec.record(EventKind::SessionOpen, k as u64, 0, cfg.session_seed(k), 0);
            for (i, (name, place)) in outcome.trace.iter().enumerate() {
                rec.record_named(
                    EventKind::Prim,
                    k as u64,
                    (i + 1) as u64,
                    name,
                    *place as u64,
                );
            }
            if let Some((name, place)) = &violation {
                rec.record_named(
                    EventKind::Violation,
                    k as u64,
                    outcome.trace.len() as u64,
                    name,
                    *place as u64,
                );
            }
            rec.record(
                EventKind::SessionClose,
                k as u64,
                outcome.trace.len() as u64,
                end.code().into(),
                outcome.metrics.steps as u64,
            );
        }
        if let Some((name, place)) = &violation {
            // A synthesized refusal points past the trace, as in the
            // concurrent engine.
            let at = outcome.violation_at.unwrap_or(outcome.trace.len());
            tally.violation(
                k as u64,
                cfg.session_seed(k),
                (name, *place, at),
                &outcome.trace,
            );
        }
        tally.absorb(SessionReport {
            id: k as u64,
            seed: cfg.session_seed(k),
            end,
            conforms,
            violation: violation.clone(),
            primitives: outcome.trace.len(),
            messages: outcome.metrics.messages,
            steps: outcome.metrics.steps,
            latency_us,
            stages,
            trace: if violation.is_some() || cfg.sessions == 1 {
                outcome.trace.clone()
            } else {
                Vec::new()
            },
        });
    }

    RuntimeReport {
        // Per-primitive wall-latency is an inter-thread measurement; the
        // sequential engine reports session-level latency only. (Nor can
        // it stall, or gauge queues: its stall and gauge fields stay
        // empty.)
        per_prim: BTreeMap::new(),
        ..tally.into_report("deterministic", backend, cfg, &metrics, started)
    }
}
