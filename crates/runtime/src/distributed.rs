//! The distributed runtime: protocol entities in separate OS processes,
//! joined by real sockets.
//!
//! ## Topology
//!
//! The paper's medium becomes a process: the **hub** (`protogen run
//! --distributed`) listens on a TCP or Unix-domain address, and every
//! protocol entity (`protogen serve --place p`) connects to it. All
//! cross-entity traffic transits the hub. Because each hub↔entity link
//! is reliable FIFO (sequence-numbered resumption over reconnects — see
//! [`transport::Link`]) and every causal chain between entities passes
//! through the hub, the hub's processing order is a valid linearization
//! of each session — which is exactly the trace the
//! [`sim::monitor::ServiceMonitor`] replays for conformance.
//!
//! ## Occurrence numbers across address spaces
//!
//! §3.5 occurrence numbers are demand-assigned per process, so two
//! processes' tables disagree on raw numbers. The wire carries the
//! canonical **site-tag path** of each occurrence instead
//! (`OccTable::path_of`); the receiving entity resolves the path in
//! its own table (`OccTable::resolve_path`). Paths are derived from
//! the shared service specification, so they are identical in every
//! process.
//!
//! ## Termination without a shared lock
//!
//! In-process, global quiescence is read under the session mutex. Over
//! sockets the hub counts: every entity reports a [`WireMsg::Status`]
//! when it parks (no enabled move), carrying how many `Data` frames it
//! has *seen* for the session. The hub treats a status as **current**
//! only when `seen` equals its own forwarded count — otherwise data is
//! still in flight and the entity will wake up. When every entity has a
//! current, parked status: all-δ-votes with empty inboxes commits
//! `Terminated`, a hit step budget commits `StepLimit`, anything else
//! is a true `Deadlock`.
//!
//! ## Structure
//!
//! Both sides are a state machine inside a thin socket loop. The hub's
//! protocol logic — the session window, stage marks, the quiescence
//! decision, conformance verdicts — is `hub::HubCore`: frames in, frames
//! out through an `Outbox`, no sockets. [`run_hub_obs`] owns the I/O:
//! the readiness wait, accepting and handshaking connections,
//! heartbeats, the flush phase and the shutdown drain. Likewise an
//! entity's sessions live in `entity::EntityProc`, and [`serve_entity`]
//! only connects, waits, flushes and lingers.
//!
//! ## Supervision
//!
//! The hub heartbeats every link and tracks silence. A dead connection
//! opens a reconnect window; an entity that misses it is declared dead:
//! every in-flight session is completed as `SessionEnd::Aborted` with
//! a diagnostic `transport_events` entry, survivors get `Close` +
//! `Shutdown`, and the run returns (never hangs) — the CLI maps
//! aborted sessions to its distinct transport exit code. Entity-side,
//! reconnection runs under a seeded exponential backoff with a retry
//! budget ([`transport::Backoff`]); an exhausted budget fails the
//! `serve` process the same way.

use crate::compiled::lower_for;
use crate::config::{BackendChoice, RuntimeConfig};
use crate::exec::{backend_desc, trace_id_for};
use crate::metrics::{LinkReport, Metrics, RuntimeReport};
use entity::EntityProc;
use hub::{HubCore, Outbox};
use lotos::ast::Spec;
use lotos::place::PlaceId;
use obs::{EventKind, Recorder, Registry};
use protogen::derive::Derivation;
use semantics::hash::fx_hash;
use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::{
    poll_messages, poll_messages_into, Addr, Backoff, BatchConfig, Channel, Link, Readiness,
    WireMsg,
};

mod entity;
mod hub;

/// Timing and address knobs of the distributed runtime. The defaults
/// suit loopback; tests shrink them, WAN deployments stretch them.
#[derive(Clone, Debug)]
pub struct DistributedConfig {
    /// Where the hub listens (entities connect here).
    pub listen: Addr,
    /// Hub→entity heartbeat interval.
    pub heartbeat: Duration,
    /// Silence on a *connected* link before its connection is presumed
    /// dead and torn down (opens the reconnect window).
    pub dead_after: Duration,
    /// How long a disconnected entity may take to reconnect before it is
    /// declared dead and its sessions aborted.
    pub reconnect_deadline: Duration,
    /// How long an entity may take to join at startup.
    pub join_deadline: Duration,
    /// Handshake (Hello/Welcome) timeout per connection.
    pub handshake_timeout: Duration,
    /// The longest the hub waits for readiness after a sweep that moved
    /// nothing. Traffic on any link or a pending connection ends the
    /// wait at once, so this bounds only how late timers (heartbeats,
    /// idle acks, supervision deadlines) fire on an idle hub. It also
    /// bounds a read that readiness reported spuriously.
    pub poll: Duration,
    /// Global no-progress guard: if *nothing* happens for this long the
    /// run aborts every live session rather than hang.
    pub stall_timeout: Duration,
    /// Send-side coalescing: bytes per batch segment before it is
    /// sealed for the vectored flush.
    pub batch_bytes: usize,
    /// Frames queued on a link before it is flushed mid-sweep instead
    /// of waiting for the per-sweep flush.
    pub batch_frames: usize,
    /// Idle-ack timer: received traffic is acked this long after it
    /// arrived if no outgoing frame piggybacked the ack first.
    pub flush_interval: Duration,
    /// Encode buffers pooled per link (steady-state sends allocate
    /// nothing).
    pub pool_bufs: usize,
    /// Concurrent sessions the hub keeps open. `0` = auto:
    /// `max(threads × 8, 32)` — batching thrives on in-flight work.
    pub session_window: usize,
    /// TCP address for the live observability listener (`--metrics`):
    /// serves Prometheus text exposition at `/metrics` and, when the run
    /// is recorded, a Chrome-trace snapshot of the merged log at
    /// `/trace`. `None` = no listener.
    pub metrics: Option<String>,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            listen: Addr::Tcp("127.0.0.1:0".to_string()),
            heartbeat: Duration::from_millis(100),
            dead_after: Duration::from_secs(2),
            reconnect_deadline: Duration::from_secs(3),
            join_deadline: Duration::from_secs(30),
            handshake_timeout: Duration::from_secs(2),
            poll: Duration::from_millis(2),
            stall_timeout: Duration::from_secs(20),
            batch_bytes: 16 * 1024,
            batch_frames: 128,
            flush_interval: Duration::from_micros(500),
            pool_bufs: 8,
            session_window: 0,
            metrics: None,
        }
    }
}

impl DistributedConfig {
    pub fn new(listen: Addr) -> DistributedConfig {
        DistributedConfig {
            listen,
            ..DistributedConfig::default()
        }
    }

    /// The link-layer batching tunables this config implies.
    pub fn batch_config(&self) -> BatchConfig {
        BatchConfig {
            batch_bytes: self.batch_bytes,
            batch_frames: self.batch_frames,
            flush_interval: self.flush_interval,
            pool_bufs: self.pool_bufs,
        }
    }

    /// The concurrent-session window for `threads` worker threads.
    pub fn window(&self, threads: usize) -> usize {
        if self.session_window > 0 {
            self.session_window
        } else {
            (threads * 8).max(32)
        }
    }
}

/// One end of a hub↔entity link: the resumable [`Link`] and, while
/// connected, its socket.
struct Peer {
    link: Link,
    chan: Option<Channel>,
    last_heard: Instant,
    last_heartbeat: Instant,
}

impl Peer {
    fn new(bcfg: BatchConfig) -> Peer {
        let now = Instant::now();
        Peer {
            link: Link::with_batch(bcfg),
            chan: None,
            last_heard: now,
            last_heartbeat: now,
        }
    }

    /// Queue a frame into the link's batch, which goes out at the
    /// sweep's flush point — or here, once it has grown past the frame
    /// budget. While disconnected, a sequenced frame waits in the resend
    /// buffer for the next reconnect and control traffic is dropped.
    /// Returns `false` when that early flush found the connection dead
    /// (a sequenced frame is in the resend buffer either way).
    fn send(&mut self, msg: WireMsg) -> bool {
        let Some(ch) = self.chan.as_mut() else {
            if msg.sequenced() {
                self.link.buffer(msg);
            }
            return true;
        };
        self.link.queue(msg);
        !self.link.wants_flush() || self.link.flush(&mut ch.conn).is_ok()
    }

    /// Queue a heartbeat if one is due.
    fn heartbeat(&mut self, now: Instant, every: Duration) {
        if self.chan.is_some() && now.duration_since(self.last_heartbeat) >= every {
            self.last_heartbeat = now;
            let nonce = self.link.stats.frames_sent;
            self.link.queue(WireMsg::Heartbeat { nonce });
        }
    }

    /// Push an ack if one is due (any owed ack with `force_ack`), then
    /// write the queued batch with one vectored call. Returns whether
    /// any frames were queued.
    fn flush(&mut self, force_ack: bool) -> io::Result<bool> {
        let Some(ch) = self.chan.as_mut() else {
            return Ok(false);
        };
        let queued = self.link.queued_frames() > 0;
        self.link.maybe_ack(&mut ch.conn, force_ack)?;
        self.link.flush(&mut ch.conn)?;
        Ok(queued)
    }

    /// Tear the connection down, counting a fault if asked; returns
    /// whether there was one. A half-encoded batch is dead with the
    /// socket: its sequenced frames are retransmitted from the resend
    /// ring on resume.
    fn close(&mut self, fault: bool) -> bool {
        let Some(ch) = self.chan.take() else {
            return false;
        };
        ch.conn.shutdown();
        self.link.discard_batch();
        if fault {
            self.link.note_fault();
        }
        true
    }

    /// The connected socket's descriptor, for the readiness wait.
    fn raw_fd(&self) -> Option<RawFd> {
        self.chan.as_ref().map(|c| c.conn.as_raw_fd())
    }
}

// ======================================================================
// Hub
// ======================================================================

/// Hub-side state of one entity link.
struct EntityLink {
    place: PlaceId,
    peer: Peer,
    /// When the current disconnection started (run start for
    /// never-connected links).
    disconnected_at: Option<Instant>,
    ever_connected: bool,
}

impl EntityLink {
    /// The sweep flush. Returns whether any frames went out.
    fn flush(&mut self, events: &mut Vec<String>) -> bool {
        self.peer.flush(false).unwrap_or_else(|_| {
            self.drop_conn(events, "flush failed");
            false
        })
    }

    fn drop_conn(&mut self, events: &mut Vec<String>, why: &str) {
        if self.peer.close(true) {
            self.disconnected_at = Some(Instant::now());
            events.push(format!(
                "link place:{}: connection lost ({why})",
                self.place
            ));
        }
    }
}

/// The hub's links, by entity index: a frame for an entity queues
/// straight into its link's batch.
impl Outbox for [EntityLink] {
    fn send(&mut self, idx: usize, msg: WireMsg, events: &mut Vec<String>) {
        let link = &mut self[idx];
        if !link.peer.send(msg) {
            // The message is in the resume buffer; only the connection
            // is lost.
            link.drop_conn(events, "send failed");
        }
    }
}

/// Project a transport link's counters into the report schema.
fn report_of(link: &Link) -> LinkReport {
    let s = &link.stats;
    let (p50, p99) = link.batch_percentiles();
    LinkReport {
        lost: 0,
        retransmissions: s.frames_resent as usize,
        reconnects: s.reconnects.saturating_sub(1) as usize,
        dup_dropped: s.dup_dropped as usize,
        faults: s.faults_seen as usize,
        batches: s.batches_sent as usize,
        bytes_sent: s.bytes_sent as usize,
        piggybacked_acks: s.piggybacked_acks as usize,
        frames_per_batch_p50: p50,
        frames_per_batch_p99: p99,
    }
}

/// Run `cfg.sessions` sessions of the derived protocol over socket
/// links, as the hub (medium + monitor + supervisor). Returns when every
/// session has completed or been aborted — never hangs: a dead link
/// aborts its sessions after [`DistributedConfig::reconnect_deadline`],
/// and total silence aborts after [`DistributedConfig::stall_timeout`].
///
/// `cfg.threads` bounds the session window (like the in-process
/// engine); `cfg.faults` and `cfg.capacity` do not apply — connection
/// faults are injected with [`transport::FaultProxy`] between the
/// entities and the hub.
pub fn run_hub(
    d: &Derivation,
    cfg: &RuntimeConfig,
    dcfg: &DistributedConfig,
) -> io::Result<RuntimeReport> {
    run_hub_on(d, cfg, dcfg, dcfg.listen.listen()?)
}

/// [`run_hub`] on a listener the caller already bound — so the caller
/// can learn the resolved address (port 0, generated UDS paths) before
/// starting entities.
pub fn run_hub_on(
    d: &Derivation,
    cfg: &RuntimeConfig,
    dcfg: &DistributedConfig,
    listener: transport::Listener,
) -> io::Result<RuntimeReport> {
    let registry = cfg
        .record
        .then(|| Registry::new(trace_id_for(cfg.seed), obs::DEFAULT_CAPACITY));
    run_hub_obs(d, cfg, dcfg, listener, registry)
}

/// [`run_hub_on`] recording into a caller-supplied flight-recorder
/// registry. The hub propagates its trace id in every `Open` frame (wire
/// v2), absorbs the [`WireMsg::Trace`] chunks entities flush at
/// shutdown, and merges everything into one causal log; violation and
/// abort reports carry their session's tail.
pub fn run_hub_obs(
    d: &Derivation,
    cfg: &RuntimeConfig,
    dcfg: &DistributedConfig,
    listener: transport::Listener,
    registry: Option<Arc<Registry>>,
) -> io::Result<RuntimeReport> {
    let started = Instant::now();
    // The entities run in their own processes, but they are launched from
    // the same derivation with the same backend choice — so the hub's
    // `backend` field reports what `cfg.backend` lowers to, and a
    // `--backend compiled` request that cannot be honored fails the run
    // here, before any entity is awaited.
    let lowered = lower_for(&d.entities, cfg.backend)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    listener.set_nonblocking(true)?;
    let metrics = Arc::new(Metrics::for_service(&d.service));
    let server = match &dcfg.metrics {
        Some(addr) => Some(obs::MetricsServer::spawn(
            addr,
            metrics_routes(&metrics, registry.as_ref(), started),
        )?),
        None => None,
    };
    let places: Vec<PlaceId> = d.entities.iter().map(|(p, _)| *p).collect();
    let window = dcfg.window(cfg.threads.max(1));
    let core = HubCore::new(
        &d.service,
        cfg,
        places,
        window,
        Arc::clone(&metrics),
        registry,
    );
    let mut hub = Hub::new(core, dcfg, listener);
    let dead = hub.run()?;
    hub.core.abort_live(dead, hub.links.as_mut_slice());
    hub.drain(dead)?;
    let per_link = hub
        .links
        .iter()
        .map(|l| (format!("place:{}", l.place), report_of(&l.peer.link)))
        .collect();
    let report = hub.core.report(backend_desc(&lowered), per_link, started);
    if let Some(srv) = server {
        srv.stop();
    }
    Ok(report)
}

/// The live observability routes: Prometheus text at `/metrics`, a JSON
/// health snapshot at `/health`, and — when the run is recorded — a
/// Chrome-trace snapshot of the merged log at `/trace`.
fn metrics_routes(
    metrics: &Arc<Metrics>,
    registry: Option<&Arc<Registry>>,
    started: Instant,
) -> Vec<(String, obs::Handler)> {
    let (m, h) = (Arc::clone(metrics), Arc::clone(metrics));
    let mut routes: Vec<(String, obs::Handler)> = vec![
        (
            "/metrics".to_string(),
            Arc::new(move || ("text/plain; version=0.0.4".to_string(), m.to_prometheus())),
        ),
        (
            "/health".to_string(),
            Arc::new(move || {
                let health = h.health_json(started.elapsed().as_secs_f64());
                ("application/json".to_string(), health)
            }),
        ),
    ];
    if let Some(reg) = registry.cloned() {
        routes.push((
            "/trace".to_string(),
            Arc::new(move || {
                let trace = reg.snapshot().to_chrome_json();
                ("application/json".to_string(), trace)
            }),
        ));
    }
    routes
}

/// An entity's `Hello`: its place, the last sequence number it
/// delivered, and the frames that arrived behind the Hello (decoded, not
/// yet accepted).
type Hello = (PlaceId, u64, Vec<(u64, WireMsg)>);

/// An accepted connection whose `Hello` has not arrived yet. It waits in
/// the readiness set like a link, so a silent peer never blocks the hub.
struct Handshake {
    chan: Channel,
    since: Instant,
}

/// Read a handshaking connection: its `Hello` once a whole frame has
/// arrived, `None` before.
fn read_hello(chan: &mut Channel) -> io::Result<Option<Hello>> {
    let mut batch = poll_messages(&mut chan.conn, &mut chan.dec)?.into_iter();
    match batch.next() {
        None => Ok(None),
        Some((_, WireMsg::Hello { place, last_seen })) => {
            Ok(Some((place, last_seen, batch.collect())))
        }
        Some(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected Hello as the first frame",
        )),
    }
}

/// The hub's sockets around its [`HubCore`]: the listener, one link per
/// entity, accepted connections still in their handshake, and the one
/// readiness set over all of them.
struct Hub<'a> {
    core: HubCore<'a>,
    dcfg: &'a DistributedConfig,
    listener: transport::Listener,
    links: Vec<EntityLink>,
    handshakes: Vec<Handshake>,
    /// Readiness slots: 0 is the listener, `1 + idx` is link `idx`
    /// (`None` while it has no connection), then one slot per handshake.
    wait: Readiness,
    inbuf: Vec<(u64, WireMsg)>,
    /// Set for the shutdown drain, which reads only trace chunks' worth
    /// of traffic and lets links end quietly.
    draining: bool,
    /// Links whose entity is gone for good (drain only).
    drained: Vec<bool>,
    last_progress: Instant,
    last_backlog_refresh: Instant,
}

impl<'a> Hub<'a> {
    fn new(
        core: HubCore<'a>,
        dcfg: &'a DistributedConfig,
        listener: transport::Listener,
    ) -> Hub<'a> {
        let now = Instant::now();
        let links: Vec<EntityLink> = core
            .places()
            .iter()
            .map(|&place| EntityLink {
                place,
                peer: Peer::new(dcfg.batch_config()),
                disconnected_at: Some(now),
                ever_connected: false,
            })
            .collect();
        Hub {
            drained: vec![false; links.len()],
            core,
            dcfg,
            listener,
            links,
            handshakes: Vec::new(),
            wait: Readiness::default(),
            inbuf: Vec::new(),
            draining: false,
            last_progress: now,
            last_backlog_refresh: now,
        }
    }

    /// The run loop: sweeps until every session is closed, an entity is
    /// declared dead (its place is returned), or nothing moves for
    /// `stall_timeout`.
    fn run(&mut self) -> io::Result<Option<PlaceId>> {
        // Did the previous sweep move anything? Then the next wait only
        // samples readiness; otherwise it parks until a socket wakes it
        // or `dcfg.poll` elapses (timers: heartbeats, idle acks,
        // handshake and supervision deadlines).
        let mut progress = true;
        while !self.core.done() {
            self.wait(if progress {
                Duration::ZERO
            } else {
                self.dcfg.poll
            })?;
            progress = self.core.open_due(self.links.as_mut_slice());
            progress |= self.accept();
            if self.read_links() {
                self.last_progress = Instant::now();
                progress = true;
            }
            self.core.close_decided(self.links.as_mut_slice());
            let now = Instant::now();
            if let Some(dead) = self.supervise(now) {
                return Ok(Some(dead));
            }
            progress |= self.flush(now);
            self.core.sweep_stalls(now);
            // Global stall guard: nothing moved for too long — abort
            // rather than hang (this also catches bugs in quiescence
            // accounting).
            let live = self.core.live();
            if live > 0 && now.duration_since(self.last_progress) > self.dcfg.stall_timeout {
                self.core.events.push(format!(
                    "no progress for {:?}: aborting {live} live session(s)",
                    self.dcfg.stall_timeout
                ));
                return Ok(None);
            }
        }
        Ok(None)
    }

    /// Orderly shutdown of surviving entities, with a bounded drain: the
    /// listener stays open so an entity that was mid-reconnect can come
    /// back for its buffered Close/Shutdown frames. A link is done once
    /// its peer has acked everything and closed the connection (an
    /// entity force-acks right before exiting on Shutdown); anything
    /// else is capped by the reconnect deadline.
    fn drain(&mut self, dead: Option<PlaceId>) -> io::Result<()> {
        let events = &mut self.core.events;
        for idx in 0..self.links.len() {
            self.links
                .as_mut_slice()
                .send(idx, WireMsg::Shutdown, events);
            // `send` only coalesces; force the batch out now — the
            // Shutdown (and any abort-path Closes still queued) must not
            // wait for the entity to time out and reconnect for its
            // resume retransmit.
            self.links[idx].flush(events);
        }
        self.draining = true;
        self.drained = self.links.iter().map(|l| Some(l.place) == dead).collect();
        let deadline = Instant::now() + self.dcfg.reconnect_deadline;
        while Instant::now() < deadline && self.drained.contains(&false) {
            self.wait(self.dcfg.poll)?;
            // Trace chunks are the one payload still expected: an entity
            // flushes its recorder right before exiting.
            self.accept();
            self.read_links();
            // Ack at once, so a lingering entity sees delivery and exits
            // instead of waiting out its flush window.
            for link in self.links.iter_mut() {
                let _ = link.peer.flush(true);
            }
        }
        Ok(())
    }

    /// Park until a socket is readable or `timeout` passes.
    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        self.wait.clear();
        self.wait.push(Some(self.listener.as_raw_fd()));
        for (link, &drained) in self.links.iter().zip(&self.drained) {
            self.wait
                .push(if drained { None } else { link.peer.raw_fd() });
        }
        for h in &self.handshakes {
            self.wait.push(Some(h.chan.conn.as_raw_fd()));
        }
        self.wait.wait_readable(timeout)
    }

    /// The one accept path, for the run loop and the drain alike: read
    /// the handshakes the wait found readable and adopt each connection
    /// whose `Hello` arrived, give up on those past `handshake_timeout`,
    /// then accept new connections into the handshake set. Returns
    /// whether a link was adopted.
    fn accept(&mut self) -> bool {
        let first = 1 + self.links.len();
        let mut adopted = false;
        for (k, mut h) in std::mem::take(&mut self.handshakes).into_iter().enumerate() {
            let hello = if self.wait.ready(first + k) {
                read_hello(&mut h.chan)
            } else {
                Ok(None)
            };
            let failed = match hello {
                Ok(Some(hello)) => {
                    adopted |= self.adopt(hello, h.chan);
                    continue;
                }
                Ok(None) if h.since.elapsed() < self.dcfg.handshake_timeout => {
                    self.handshakes.push(h);
                    continue;
                }
                Ok(None) => "no Hello within the handshake timeout".to_string(),
                Err(e) => e.to_string(),
            };
            h.chan.conn.shutdown();
            self.core.events.push(format!("handshake failed: {failed}"));
        }
        if self.wait.ready(0) {
            while let Ok(Some(conn)) = self.listener.accept() {
                let timeouts = conn
                    .set_read_timeout(Some(self.dcfg.poll))
                    .and_then(|()| conn.set_write_timeout(Some(self.dcfg.dead_after)));
                match timeouts {
                    Ok(()) => self.handshakes.push(Handshake {
                        chan: Channel::new(conn),
                        since: Instant::now(),
                    }),
                    Err(e) => self.core.events.push(format!("handshake failed: {e}")),
                }
            }
        }
        adopted
    }

    /// Give the entity's link a connection whose `Hello` arrived: answer
    /// `Welcome`, resume the link from the peer's `last_seen`, and hand
    /// the frames behind the Hello to the core.
    fn adopt(&mut self, (place, last_seen, leftovers): Hello, mut chan: Channel) -> bool {
        let Some(idx) = self.links.iter().position(|l| l.place == place) else {
            self.core
                .events
                .push(format!("rejected connection for unknown place {place}"));
            return false;
        };
        let link = &mut self.links[idx];
        link.peer.close(false);
        let peer = &mut link.peer;
        let welcome = WireMsg::Welcome {
            last_seen: peer.link.last_delivered(),
        };
        let resent_before = peer.link.stats.frames_resent;
        if chan.conn.write_all(&welcome.encode(0)).is_err()
            || peer.link.resume(&mut chan.conn, last_seen).is_err()
        {
            chan.conn.shutdown();
            return false;
        }
        // This sweep's readiness described the old socket.
        self.wait.forget(1 + idx);
        let reconnect = link.ever_connected;
        link.peer.chan = Some(chan);
        link.peer.last_heard = Instant::now();
        link.ever_connected = true;
        link.disconnected_at = None;
        if reconnect {
            self.core
                .events
                .push(format!("link place:{place}: reconnected and resumed"));
        }
        if let Some(rec) = &self.core.rec {
            if reconnect {
                let reconnects = link.peer.link.stats.reconnects.saturating_sub(1);
                rec.record_global(EventKind::LinkReconnect, place as u64, reconnects);
            } else {
                rec.record_global(EventKind::LinkConnect, place as u64, 0);
            }
            let resent = link.peer.link.stats.frames_resent - resent_before;
            if resent > 0 {
                rec.record_global(EventKind::LinkRetransmit, place as u64, resent);
            }
        }
        self.last_progress = Instant::now();
        self.deliver(idx, leftovers);
        true
    }

    /// Pass frames read off link `idx` through its exactly-once filter
    /// to the core. Replies and forwards queue on the destination links;
    /// they go out in the flush phase, one vectored write per link per
    /// sweep.
    fn deliver(&mut self, idx: usize, frames: impl IntoIterator<Item = (u64, WireMsg)>) {
        for (seq, m) in frames {
            if let Some(m) = self.links[idx].peer.link.accept(seq, m) {
                self.core.handle(idx, m, self.links.as_mut_slice());
            }
        }
    }

    /// Read every link the wait found readable and deliver its frames.
    /// Returns whether any frame arrived.
    fn read_links(&mut self) -> bool {
        let mut inbuf = std::mem::take(&mut self.inbuf);
        let mut heard = false;
        for idx in 0..self.links.len() {
            if self.drained[idx] || !self.wait.ready(1 + idx) {
                continue;
            }
            let Some(ch) = self.links[idx].peer.chan.as_mut() else {
                continue;
            };
            inbuf.clear();
            match poll_messages_into(&mut ch.conn, &mut ch.dec, &mut inbuf) {
                Ok(()) if inbuf.is_empty() => {}
                Ok(()) => {
                    heard = true;
                    self.links[idx].peer.last_heard = Instant::now();
                    self.deliver(idx, inbuf.drain(..));
                }
                Err(e) => self.read_failed(idx, &e),
            }
        }
        self.inbuf = inbuf;
        heard
    }

    /// A link's read failed: while running, the connection is lost (and
    /// the reconnect window opens); during the drain, EOF with an empty
    /// resume buffer means the entity saw everything and exited.
    fn read_failed(&mut self, idx: usize, e: &io::Error) {
        let link = &mut self.links[idx];
        if self.draining {
            link.peer.close(false);
            self.drained[idx] = link.peer.link.unacked_len() == 0;
        } else {
            if let Some(rec) = &self.core.rec {
                rec.record_global(EventKind::LinkDown, link.place as u64, 0);
            }
            link.drop_conn(&mut self.core.events, &e.to_string());
        }
    }

    /// Heartbeats and supervision: tear down connections silent past
    /// `dead_after`, heartbeat the others, and return the place of an
    /// entity that stayed disconnected past its reconnect (or join)
    /// deadline while sessions are live.
    fn supervise(&mut self, now: Instant) -> Option<PlaceId> {
        let live = self.core.live() > 0;
        for link in self.links.iter_mut() {
            if link.peer.chan.is_some() {
                if now.duration_since(link.peer.last_heard) > self.dcfg.dead_after {
                    if let Some(rec) = &self.core.rec {
                        rec.record_global(EventKind::LinkDown, link.place as u64, 0);
                    }
                    link.drop_conn(&mut self.core.events, "heartbeat silence");
                } else {
                    link.peer.heartbeat(now, self.dcfg.heartbeat);
                }
            }
            let deadline = if link.ever_connected {
                self.dcfg.reconnect_deadline
            } else {
                self.dcfg.join_deadline
            };
            if live
                && link
                    .disconnected_at
                    .is_some_and(|t| now.duration_since(t) > deadline)
            {
                self.core.events.push(format!(
                    "link place:{}: declared dead after {:?} without a connection",
                    link.place, deadline
                ));
                return Some(link.place);
            }
        }
        None
    }

    /// Flush phase: one vectored write per link carries everything this
    /// sweep queued (forwards, Opens, Closes, heartbeats) plus any due
    /// pure ack; then the live gauges are refreshed. Returns whether any
    /// frames went out.
    fn flush(&mut self, now: Instant) -> bool {
        let mut sent = false;
        for link in self.links.iter_mut() {
            sent |= link.flush(&mut self.core.events);
        }
        // The labeled per-link backlog map takes a lock the scraper
        // shares: refresh it on a throttle, not every sweep.
        let per_link = now.duration_since(self.last_backlog_refresh) >= Duration::from_millis(50);
        if per_link {
            self.last_backlog_refresh = now;
        }
        self.publish(per_link);
        sent
    }

    /// Mirror the links into the live metrics the `/metrics` endpoint
    /// serves: cumulative batching stats (they only grow, so a plain
    /// store of the sums is race-free against the scraper), outbound
    /// backlog (queued plus unacked frames), encode-pool use, window
    /// occupancy and, with `per_link`, the labeled per-link backlogs.
    fn publish(&self, per_link: bool) {
        let m = &self.core.metrics;
        let mut map = per_link.then(|| m.link_backlogs.lock().expect("gauge map poisoned"));
        if let Some(map) = map.as_mut() {
            map.clear();
        }
        let (mut batches, mut bytes, mut piggy) = (0, 0, 0);
        let (mut backlog, mut free, mut total) = (0, 0, 0);
        for l in &self.links {
            let link = &l.peer.link;
            batches += link.stats.batches_sent as usize;
            bytes += link.stats.bytes_sent as usize;
            piggy += link.stats.piggybacked_acks as usize;
            let queued = link.queued_frames() as usize + link.unacked_len();
            backlog += queued;
            let (f, t) = link.pool_available();
            free += f;
            total += t;
            if let Some(map) = map.as_mut() {
                map.insert(format!("place:{}", l.place), queued as u64);
            }
        }
        let store = |gauge: &std::sync::atomic::AtomicUsize, v| gauge.store(v, Ordering::Relaxed);
        store(&m.batches_sent, batches);
        store(&m.bytes_sent, bytes);
        store(&m.piggybacked_acks, piggy);
        store(&m.link_backlog_frames, backlog);
        store(&m.pool_bufs_free, free);
        store(&m.pool_bufs_total, total);
        store(&m.window_occupancy, self.core.live());
    }
}

// ======================================================================
// Entity
// ======================================================================

/// Configuration of one entity process (`protogen serve`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub hub: Addr,
    pub place: PlaceId,
    /// How the place-local behaviour is stepped (`Auto` compiles to
    /// tables when the behaviour lowers, interprets otherwise — pass the
    /// same choice to the hub so its report describes the entities).
    pub backend: BackendChoice,
    /// Primitives this entity's users never offer.
    pub refuse: Vec<(String, PlaceId)>,
    /// Jitter seed for the reconnect backoff.
    pub seed: u64,
    /// The longest the entity waits for readiness on its socket while
    /// no session is runnable. Frames from the hub end the wait at once,
    /// so this bounds only how late timers (heartbeats, idle acks, the
    /// hub-silence check) fire on an idle entity; it also bounds the
    /// handshake reads and a read that readiness reported spuriously.
    pub poll: Duration,
    pub heartbeat: Duration,
    /// Send-side coalescing knobs, mirroring [`DistributedConfig`].
    pub batch_bytes: usize,
    pub batch_frames: usize,
    pub flush_interval: Duration,
    pub pool_bufs: usize,
    /// Silence from the hub before the connection is presumed dead.
    pub dead_after: Duration,
    pub connect_timeout: Duration,
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
    /// Consecutive failed reconnect attempts before giving up.
    pub retry_budget: u32,
}

impl ServeConfig {
    pub fn new(hub: Addr, place: PlaceId) -> ServeConfig {
        ServeConfig {
            hub,
            place,
            backend: BackendChoice::default(),
            refuse: Vec::new(),
            seed: 0xC0FFEE,
            poll: Duration::from_millis(2),
            heartbeat: Duration::from_millis(100),
            batch_bytes: 16 * 1024,
            batch_frames: 128,
            flush_interval: Duration::from_micros(500),
            pool_bufs: 8,
            dead_after: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(1),
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            retry_budget: 40,
        }
    }

    /// The link-layer batching tunables this config implies.
    pub fn batch_config(&self) -> BatchConfig {
        BatchConfig {
            batch_bytes: self.batch_bytes,
            batch_frames: self.batch_frames,
            flush_interval: self.flush_interval,
            pool_bufs: self.pool_bufs,
        }
    }
}

/// What a completed `serve` run did — for logging and tests.
#[derive(Clone, Debug, Default)]
pub struct ServeOutcome {
    pub sessions_opened: u64,
    pub sessions_closed: u64,
    pub primitives: u64,
    pub link: LinkReport,
}

/// Run one protocol entity against a hub until the hub shuts the link
/// down. Returns `Err` (with a diagnostic) when the link dies for good —
/// connect/reconnect budget exhausted — so the caller can exit with the
/// transport failure code.
pub fn serve_entity(entity: &Spec, cfg: &ServeConfig) -> Result<ServeOutcome, String> {
    let mut proc = EntityProc::new(entity, cfg)?;
    let mut hub = HubLink::new(cfg);
    let mut wait = Readiness::default();
    let mut inbuf: Vec<(u64, WireMsg)> = Vec::new();
    // Once the run is over and the trace tail went out: how long to
    // linger for the hub's acks.
    let mut linger: Option<Instant> = None;
    let finish = |outcome: ServeOutcome, link: &Link| ServeOutcome {
        link: report_of(link),
        ..outcome
    };
    loop {
        if hub.peer.chan.is_none() {
            if linger.is_some_and(|t| Instant::now() >= t) {
                // The tail flush is best-effort: don't burn the whole
                // retry budget chasing a hub that already closed its
                // drain window.
                return Ok(finish(proc.outcome, &hub.peer.link));
            }
            match hub.connect(proc.rec.as_ref()) {
                Ok(leftovers) => proc.accept(&mut hub.peer.link, leftovers),
                // Completed run, unreachable hub: exit cleanly rather
                // than report a transport failure just because the trace
                // tail could not land.
                Err(_) if linger.is_some() => return Ok(finish(proc.outcome, &hub.peer.link)),
                Err(e) => {
                    return Err(format!(
                        "place {}: link to hub {} is dead: {e}",
                        cfg.place, cfg.hub
                    ))
                }
            }
        }

        // Drain the wire. The entity's one socket is its park: while
        // sessions are runnable the wait only samples readiness so the
        // stepping below never stalls; otherwise this wait IS the idle
        // wait — data from the hub (an Open, a Close, an ack the
        // shutdown linger awaits) ends it at once. Every iteration ends
        // with a flush, so no frames sit queued across the wait.
        let timeout = if proc.runnable() {
            Duration::ZERO
        } else {
            cfg.poll
        };
        if !hub.read(&mut wait, timeout, &mut inbuf)? {
            continue;
        }
        proc.accept(&mut hub.peer.link, inbuf.drain(..));

        if proc.finished() {
            // Ship the flight-recorder tail home once, then linger
            // (reconnect + resume at the loop top) until the hub has
            // acked everything or a bounded deadline passes.
            if linger.is_none() {
                linger = Some(Instant::now() + cfg.dead_after.max(Duration::from_secs(2)));
                hub.ship_trace(proc.registry.as_ref());
            }
            if hub.peer.link.unacked_len() == 0 || linger.is_some_and(|t| Instant::now() >= t) {
                // Final cumulative ack, so the hub can tell a clean exit
                // (everything delivered) from a dying link.
                let _ = hub.peer.flush(true);
                return Ok(finish(proc.outcome, &hub.peer.link));
            }
        }

        proc.step_runnable();
        hub.send(proc.outbox.drain(..));
        hub.tick();
    }
}

/// The entity's end of its link to the hub, with its reconnect policy.
struct HubLink<'a> {
    cfg: &'a ServeConfig,
    peer: Peer,
    backoff: Backoff,
}

impl<'a> HubLink<'a> {
    fn new(cfg: &'a ServeConfig) -> HubLink<'a> {
        let seed = fx_hash(&(cfg.seed, cfg.place));
        HubLink {
            cfg,
            peer: Peer::new(cfg.batch_config()),
            backoff: Backoff::new(cfg.backoff_base, cfg.backoff_cap, cfg.retry_budget, seed),
        }
    }

    /// Connect + handshake + resume, retrying under the backoff schedule.
    /// Returns the frames that arrived behind the hub's `Welcome`.
    fn connect(&mut self, rec: Option<&Recorder>) -> Result<Vec<(u64, WireMsg)>, String> {
        let link = &mut self.peer.link;
        let resent_before = link.stats.frames_resent;
        let (chan, leftovers) = loop {
            match try_connect(self.cfg, link) {
                Ok(ok) => break ok,
                Err(e) => match self.backoff.next_delay() {
                    Some(delay) => std::thread::sleep(delay),
                    None => {
                        return Err(format!(
                            "retry budget ({}) exhausted; last error: {e}",
                            self.cfg.retry_budget
                        ))
                    }
                },
            }
        };
        self.backoff.reset();
        // The entity's side of a resume: the hub cannot see what this end
        // retransmitted, so the merged trace learns it from here. (A
        // recorder exists only once a traced `Open` arrived, i.e. never
        // on first join.) The peer is the hub, place 0; the event's own
        // place (the recorder's) tells it from the hub's record of the
        // same resume.
        if let Some(rec) = rec {
            let reconnects = link.stats.reconnects.saturating_sub(1);
            rec.record_global(EventKind::LinkReconnect, 0, reconnects);
            let resent = link.stats.frames_resent - resent_before;
            if resent > 0 {
                rec.record_global(EventKind::LinkRetransmit, 0, resent);
            }
        }
        self.peer.chan = Some(chan);
        self.peer.last_heard = Instant::now();
        Ok(leftovers)
    }

    /// Wait up to `timeout` for the hub, then read what arrived into
    /// `inbuf`. Returns `false` when the read found the connection dead
    /// (it is dropped; the resume retransmits what `inbuf` would hold).
    fn read(
        &mut self,
        wait: &mut Readiness,
        timeout: Duration,
        inbuf: &mut Vec<(u64, WireMsg)>,
    ) -> Result<bool, String> {
        inbuf.clear();
        let Some(ch) = self.peer.chan.as_mut() else {
            return Ok(true);
        };
        wait.clear();
        wait.push(Some(ch.conn.as_raw_fd()));
        wait.wait_readable(timeout)
            .map_err(|e| format!("place {}: readiness wait failed: {e}", self.cfg.place))?;
        if !wait.ready(0) {
            return Ok(true);
        }
        if poll_messages_into(&mut ch.conn, &mut ch.dec, inbuf).is_err() {
            inbuf.clear();
            self.peer.close(true);
            return Ok(false);
        }
        if !inbuf.is_empty() {
            self.peer.last_heard = Instant::now();
        }
        Ok(true)
    }

    /// Queue frames for the hub; they leave in the iteration's flush, or
    /// earlier once a batch is full.
    fn send(&mut self, msgs: impl IntoIterator<Item = WireMsg>) {
        for m in msgs {
            if !self.peer.send(m) {
                self.peer.close(false);
            }
        }
    }

    /// Ship the flight-recorder tail home: the hub absorbs these chunks
    /// into the merged causal log during its drain window. Trace frames
    /// are sequenced, so a flush that dies leaves them in the resend
    /// buffer for the reconnect.
    fn ship_trace(&mut self, registry: Option<&Arc<Registry>>) {
        if let Some(reg) = registry {
            let chunks = reg.drain_chunks(512);
            self.send(chunks.into_iter().map(|chunk| WireMsg::Trace { chunk }));
            if self.peer.flush(false).is_err() {
                self.peer.close(true);
            }
        }
    }

    /// End of a loop iteration: a heartbeat when due, any due ack, and
    /// the flush; then the hub-death check.
    fn tick(&mut self) {
        let now = Instant::now();
        self.peer.heartbeat(now, self.cfg.heartbeat);
        if self.peer.flush(false).is_err()
            || now.duration_since(self.peer.last_heard) > self.cfg.dead_after
        {
            self.peer.close(true);
        }
    }
}

/// One connect attempt: Hello, Welcome, and the link's resume.
fn try_connect(cfg: &ServeConfig, link: &mut Link) -> io::Result<(Channel, Vec<(u64, WireMsg)>)> {
    let conn = cfg.hub.connect(cfg.connect_timeout)?;
    conn.set_read_timeout(Some(cfg.poll))?;
    conn.set_write_timeout(Some(cfg.dead_after))?;
    let mut chan = Channel::new(conn);
    let hello = WireMsg::Hello {
        place: cfg.place,
        last_seen: link.last_delivered(),
    };
    chan.conn.write_all(&hello.encode(0))?;
    // Wait for the Welcome; frames behind it in the same batch are
    // handed back for normal processing.
    let deadline = Instant::now() + cfg.dead_after;
    loop {
        let mut batch = poll_messages(&mut chan.conn, &mut chan.dec)?.into_iter();
        if let Some((_, first)) = batch.next() {
            let WireMsg::Welcome { last_seen } = first else {
                return Err(io::Error::other(format!("expected Welcome, got {first:?}")));
            };
            link.resume(&mut chan.conn, last_seen)?;
            return Ok((chan, batch.collect()));
        }
        if Instant::now() >= deadline {
            return Err(io::Error::other("no Welcome within the handshake window"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen::Pipeline;

    fn quick(listen: Addr) -> DistributedConfig {
        DistributedConfig {
            listen,
            heartbeat: Duration::from_millis(20),
            dead_after: Duration::from_millis(900),
            reconnect_deadline: Duration::from_millis(1500),
            join_deadline: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(2),
            poll: Duration::from_millis(2),
            stall_timeout: Duration::from_secs(10),
            batch_bytes: 16 * 1024,
            batch_frames: 128,
            flush_interval: Duration::from_micros(500),
            pool_bufs: 8,
            session_window: 0,
            metrics: None,
        }
    }

    fn run_distributed(src: &str, sessions: usize, listen: Addr) -> RuntimeReport {
        let derived = Pipeline::load(src)
            .expect("parse")
            .check()
            .expect("check")
            .derive()
            .expect("derive");
        let d = derived.derivation();
        let cfg = RuntimeConfig::new().sessions(sessions).threads(2).seed(7);
        let dcfg = quick(listen);
        let listener = dcfg.listen.listen().expect("bind");
        let hub_addr = listener.local_addr().expect("local addr");
        let handles: Vec<_> = d
            .entities
            .iter()
            .map(|(p, spec)| {
                let spec = spec.clone();
                let scfg = ServeConfig {
                    heartbeat: Duration::from_millis(20),
                    dead_after: Duration::from_millis(900),
                    ..ServeConfig::new(hub_addr.clone(), *p)
                };
                std::thread::spawn(move || serve_entity(&spec, &scfg))
            })
            .collect();
        let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
        for h in handles {
            h.join().expect("entity thread").expect("entity outcome");
        }
        report
    }

    #[test]
    fn smoke_over_tcp() {
        let report = run_distributed(
            "SPEC a1; b2; c1; exit ENDSPEC",
            3,
            Addr::Tcp("127.0.0.1:0".to_string()),
        );
        assert_eq!(report.engine, "distributed");
        assert_eq!(report.sessions, 3);
        assert_eq!(
            report.terminated, 3,
            "events: {:?}",
            report.transport_events
        );
        assert!(report.passed(), "events: {:?}", report.transport_events);
    }

    #[test]
    fn smoke_over_uds() {
        let path = std::env::temp_dir().join(format!("pg-hub-{}.sock", std::process::id()));
        let report = run_distributed(
            "SPEC a1; (b2; exit ||| c3; exit) ENDSPEC",
            2,
            Addr::Uds(path),
        );
        assert_eq!(
            report.terminated, 2,
            "events: {:?}",
            report.transport_events
        );
        assert!(report.passed(), "events: {:?}", report.transport_events);
    }
}
