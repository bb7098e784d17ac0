//! Distributed conformance suite: the whole spec corpus executed over
//! *real sockets* — hub process loop + one entity loop per place, joined
//! by TCP or Unix-domain links — under connection-level fault injection
//! ([`transport::FaultProxy`] between every entity and the hub).
//!
//! Invariants, per ISSUE 4:
//! * every surviving session conforms to the service (zero monitor
//!   violations) and the run passes under clean, flaky-link, and
//!   partition-heal profiles — reliable FIFO survives real faults;
//! * a killed link never hangs the run: its sessions are aborted with
//!   diagnostics and every configured session gets a verdict.

use protogen::Pipeline;
use runtime::{
    run_hub_on, serve_entity, DistributedConfig, RuntimeConfig, RuntimeReport, ServeConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use transport::{Addr, FaultProxy, LinkFaults};

const SEEDS: [u64; 2] = [0xC0FFEE, 991];
const SESSIONS: usize = 2;

/// Wall-clock guard: a wedged distributed run must fail CI with the
/// case in flight dumped, not hang (same discipline as conformance.rs).
struct Watchdog {
    done: Arc<AtomicBool>,
    current: Arc<Mutex<String>>,
}

impl Watchdog {
    fn arm(name: &'static str, budget: Duration) -> Watchdog {
        let done = Arc::new(AtomicBool::new(false));
        let current = Arc::new(Mutex::new(String::from("<not started>")));
        let (d, c) = (Arc::clone(&done), Arc::clone(&current));
        std::thread::spawn(move || {
            let start = Instant::now();
            while start.elapsed() < budget {
                std::thread::sleep(Duration::from_millis(200));
                if d.load(Ordering::Relaxed) {
                    return;
                }
            }
            eprintln!(
                "WATCHDOG: {name} exceeded its {budget:?} budget.\ncase in flight: {}",
                c.lock().unwrap()
            );
            std::process::exit(101);
        });
        Watchdog { done, current }
    }

    fn enter(&self, case: String) {
        *self.current.lock().unwrap() = case;
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut specs: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("specs directory")
        .filter_map(|e| {
            let p = e.ok()?.path();
            if p.extension()? != "lotos" {
                return None;
            }
            let name = p.file_name()?.to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&p).ok()?;
            Some((name, src))
        })
        .collect();
    specs.sort();
    assert!(specs.len() >= 8, "corpus went missing");
    specs
}

/// Same refusal table as conformance.rs: disable triggers are refused so
/// conformance is checked on the normal-completion side (the paper's
/// theorem excludes `[>`).
fn refusals(name: &str) -> Vec<(&'static str, u8)> {
    match name {
        "example3_file_copy.lotos" => vec![("interrupt", 3)],
        "example6_disable.lotos" => vec![("d", 3)],
        "transport3_abort.lotos" => vec![("abort", 2)],
        "transport4_multiplex.lotos" => vec![("abort", 3)],
        _ => Vec::new(),
    }
}

/// Fast-cadence fault profiles (the CLI-facing parse() defaults are
/// tuned for human-scale runs; the matrix wants tight windows).
fn profile(which: &str) -> LinkFaults {
    match which {
        "clean" => LinkFaults::Clean,
        "flaky-link" => LinkFaults::Flaky {
            max_kills: 2,
            life_ms: (40, 110),
        },
        "partition-heal" => LinkFaults::Partition {
            after_ms: (30, 70),
            heal_ms: (60, 140),
        },
        other => panic!("unknown profile {other}"),
    }
}

static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

fn listen_addr(uds: bool) -> Addr {
    if uds {
        let n = UDS_COUNTER.fetch_add(1, Ordering::Relaxed);
        Addr::Uds(std::env::temp_dir().join(format!("pg-d{}-{n}.sock", std::process::id())))
    } else {
        Addr::Tcp("127.0.0.1:0".to_string())
    }
}

/// One distributed run: hub in this thread, one entity thread per
/// place, one fault proxy per entity link. Returns the hub report and
/// the total connections the proxies killed.
fn run_one(
    src: &str,
    name: &str,
    faults: LinkFaults,
    seed: u64,
    uds: bool,
) -> (RuntimeReport, u64) {
    let derived = Pipeline::load(src)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .check()
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .derive()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let d = derived.derivation();
    let dcfg = DistributedConfig {
        heartbeat: Duration::from_millis(20),
        dead_after: Duration::from_millis(700),
        reconnect_deadline: Duration::from_secs(5),
        join_deadline: Duration::from_secs(15),
        handshake_timeout: Duration::from_secs(2),
        poll: Duration::from_millis(2),
        stall_timeout: Duration::from_secs(30),
        ..DistributedConfig::new(listen_addr(uds))
    };
    let listener = dcfg.listen.listen().expect("hub bind");
    let hub_addr = listener.local_addr().expect("hub addr");

    let mut cfg = RuntimeConfig::new()
        .sessions(SESSIONS)
        .threads(2)
        .seed(seed)
        .max_steps(20_000);
    for (prim, place) in refusals(name) {
        cfg = cfg.refuse(prim, place);
    }

    let mut proxies = Vec::new();
    let mut handles = Vec::new();
    for (i, (p, spec)) in d.entities.iter().enumerate() {
        let proxy = FaultProxy::spawn(
            &listen_addr(uds),
            hub_addr.clone(),
            faults,
            seed.wrapping_add(i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
        .expect("proxy spawn");
        let mut scfg = ServeConfig::new(proxy.addr.clone(), *p);
        scfg.heartbeat = Duration::from_millis(20);
        scfg.dead_after = Duration::from_millis(700);
        scfg.backoff_base = Duration::from_millis(15);
        scfg.backoff_cap = Duration::from_millis(300);
        scfg.retry_budget = 80;
        scfg.seed = seed;
        scfg.refuse = cfg.refuse.clone();
        let spec = spec.clone();
        handles.push(std::thread::spawn(move || serve_entity(&spec, &scfg)));
        proxies.push(proxy);
    }

    let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
    let kills: u64 = proxies.iter().map(|p| p.kills()).sum();
    for p in proxies {
        p.stop();
    }
    for h in handles {
        h.join()
            .expect("entity thread")
            .unwrap_or_else(|e| panic!("{name}: entity failed: {e}"));
    }
    (report, kills)
}

/// Corpus × seeds under one profile and transport: every session must
/// conform and terminate with zero violations, no aborts, no hangs.
fn matrix(which: &str, uds: bool) {
    let transport = if uds { "uds" } else { "tcp" };
    let watchdog = Watchdog::arm("distributed matrix", Duration::from_secs(600));
    let faults = profile(which);
    let mut kills_total = 0;
    let mut reconnects_total = 0usize;
    for (name, src) in corpus() {
        for seed in SEEDS {
            watchdog.enter(format!(
                "{name} transport={transport} profile={which} seed={seed}"
            ));
            let (report, kills) = run_one(&src, &name, faults, seed, uds);
            assert_eq!(
                report.sessions, SESSIONS,
                "{name} {transport} {which} seed={seed}: sessions missing from the report"
            );
            assert!(
                report.violations.is_empty(),
                "{name} {transport} {which} seed={seed}: monitor violations {:?}",
                report.violations
            );
            assert_eq!(
                report.aborted, 0,
                "{name} {transport} {which} seed={seed}: sessions aborted; events: {:?}",
                report.transport_events
            );
            assert!(
                report.passed(),
                "{name} {transport} {which} seed={seed}: failed; events: {:?}",
                report.transport_events
            );
            // Every primitive is one entity move, every message one send
            // and one receive move; internal moves only add to that.
            for r in &report.reports {
                if r.end == runtime::SessionEnd::Terminated {
                    assert!(
                        r.steps >= r.primitives + 2 * r.messages,
                        "{name} {transport} {which} seed={seed} session {}: steps {} < \
                         primitives {} + 2 x messages {}",
                        r.id,
                        r.steps,
                        r.primitives,
                        r.messages
                    );
                }
            }
            kills_total += kills;
            reconnects_total += report
                .per_link
                .values()
                .map(|l| l.reconnects)
                .sum::<usize>();
        }
    }
    if which != "clean" {
        assert!(
            kills_total > 0 || reconnects_total > 0,
            "{which} profile never disturbed a connection across the matrix — vacuous"
        );
    }
}

#[test]
fn tcp_clean_corpus_conforms() {
    matrix("clean", false);
}

#[test]
fn tcp_flaky_link_corpus_conforms() {
    matrix("flaky-link", false);
}

#[test]
fn tcp_partition_heal_corpus_conforms() {
    matrix("partition-heal", false);
}

#[test]
fn uds_clean_corpus_conforms() {
    matrix("clean", true);
}

#[test]
fn uds_flaky_link_corpus_conforms() {
    matrix("flaky-link", true);
}

#[test]
fn uds_partition_heal_corpus_conforms() {
    matrix("partition-heal", true);
}

/// Kill one entity's link for good mid-run: the hub must abort the
/// in-flight sessions with diagnostics — reported, never hung — and
/// every configured session must still get a verdict.
#[test]
fn dead_entity_aborts_sessions_with_diagnostics() {
    let watchdog = Watchdog::arm(
        "dead_entity_aborts_sessions_with_diagnostics",
        Duration::from_secs(120),
    );
    watchdog.enter("kill-one-entity".to_string());
    let derived = Pipeline::load("SPEC a1; b2; c1; exit ENDSPEC")
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let d = derived.derivation();
    let dcfg = DistributedConfig {
        heartbeat: Duration::from_millis(20),
        dead_after: Duration::from_millis(400),
        reconnect_deadline: Duration::from_millis(800),
        join_deadline: Duration::from_secs(10),
        handshake_timeout: Duration::from_secs(2),
        poll: Duration::from_millis(2),
        stall_timeout: Duration::from_secs(20),
        ..DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()))
    };
    let listener = dcfg.listen.listen().unwrap();
    let hub_addr = listener.local_addr().unwrap();
    // Far more sessions than the window — and far more than the batched
    // hub can finish before the kill below fires — so plenty are
    // unopened when the link dies; they must be reported as aborted too.
    // The dead-entity declaration ends the run long before the count
    // could matter for wall time.
    const SESSIONS: usize = 10_000;
    let cfg = RuntimeConfig::new().sessions(SESSIONS).threads(1).seed(7);

    // Entity 1 is healthy and direct; entity 2 goes through a proxy that
    // is stopped shortly after startup — its link dies and stays dead.
    let (p1, spec1) = d.entities[0].clone();
    let mut scfg1 = ServeConfig::new(hub_addr.clone(), p1);
    scfg1.heartbeat = Duration::from_millis(20);
    scfg1.dead_after = Duration::from_millis(400);
    let h1 = std::thread::spawn(move || serve_entity(&spec1, &scfg1));

    let (p2, spec2) = d.entities[1].clone();
    let proxy = FaultProxy::spawn(
        &Addr::Tcp("127.0.0.1:0".to_string()),
        hub_addr.clone(),
        LinkFaults::Clean,
        7,
    )
    .unwrap();
    let mut scfg2 = ServeConfig::new(proxy.addr.clone(), p2);
    scfg2.heartbeat = Duration::from_millis(20);
    scfg2.dead_after = Duration::from_millis(400);
    scfg2.backoff_base = Duration::from_millis(15);
    scfg2.backoff_cap = Duration::from_millis(100);
    scfg2.retry_budget = 8;
    let h2 = std::thread::spawn(move || serve_entity(&spec2, &scfg2));

    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(80));
        proxy.stop();
    });

    let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
    killer.join().unwrap();

    assert!(report.aborted > 0, "no session recorded the dead link");
    assert_eq!(
        report.terminated + report.deadlocked + report.step_limited + report.aborted,
        SESSIONS,
        "sessions vanished from the report"
    );
    assert!(
        !report.passed(),
        "a run with aborted sessions must not pass"
    );
    assert!(
        report
            .transport_events
            .iter()
            .any(|e| e.contains("dead") || e.contains("aborted")),
        "no diagnostic transport event: {:?}",
        report.transport_events
    );
    // Every aborted session report carries the Aborted verdict.
    assert!(report
        .reports
        .iter()
        .filter(|r| r.end == runtime::SessionEnd::Aborted)
        .count()
        .eq(&report.aborted));

    // The healthy entity is shut down cleanly; the dead one fails with
    // its retry budget exhausted.
    h1.join().unwrap().expect("healthy entity");
    let dead = h2.join().unwrap();
    assert!(
        dead.is_err(),
        "the cut-off entity should report a dead link"
    );
}

/// The distributed twin of conformance.rs's
/// `violations_carry_session_id_and_trace`: a sabotaged entity drives
/// every session down the same violating trace, so the hub's memoized
/// replay answers all but the first from its cache — and each session
/// must still get its own violation record.
#[test]
fn violations_carry_session_id_and_trace() {
    let watchdog = Watchdog::arm(
        "violations_carry_session_id_and_trace",
        Duration::from_secs(120),
    );
    watchdog.enter("sabotaged place 1".to_string());
    let derived = Pipeline::load("SPEC a1; b2; c1; exit ENDSPEC")
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let mut d = derived.into_derivation();
    // Sabotage: place 1 announces `c` where the service expects `a` first.
    let (_, spec1) = &mut d.entities[0];
    *spec1 = lotos::parser::parse_spec("SPEC c1; exit ENDSPEC").unwrap();
    let dcfg = DistributedConfig {
        heartbeat: Duration::from_millis(20),
        ..DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()))
    };
    let listener = dcfg.listen.listen().unwrap();
    let hub_addr = listener.local_addr().unwrap();
    const SESSIONS: usize = 4;
    let cfg = RuntimeConfig::new().sessions(SESSIONS).threads(2).seed(5);
    let handles: Vec<_> = d
        .entities
        .iter()
        .map(|(p, spec)| {
            let mut scfg = ServeConfig::new(hub_addr.clone(), *p);
            scfg.heartbeat = Duration::from_millis(20);
            let spec = spec.clone();
            std::thread::spawn(move || serve_entity(&spec, &scfg))
        })
        .collect();
    let report = run_hub_on(&d, &cfg, &dcfg, listener).expect("hub run");
    for h in handles {
        h.join().expect("entity thread").expect("entity outcome");
    }
    assert!(!report.passed());
    assert_eq!(report.sessions, SESSIONS);
    let mut sessions: Vec<u64> = report.violations.iter().map(|v| v.session).collect();
    sessions.sort_unstable();
    assert_eq!(
        sessions,
        (0..SESSIONS as u64).collect::<Vec<_>>(),
        "one violation record per session: {:?}",
        report.violations
    );
    for v in &report.violations {
        assert_eq!(v.primitive, "c");
        assert_eq!(v.place, 1);
        assert_eq!(v.trace[v.at], ("c".to_string(), 1));
    }
}

/// A connection that never sends its `Hello` must not stall the hub: it
/// waits in the readiness set while every session runs at full speed,
/// and is given up with a diagnostic once the handshake timeout passes.
#[test]
fn silent_connection_does_not_stall_the_hub() {
    let watchdog = Watchdog::arm(
        "silent_connection_does_not_stall_the_hub",
        Duration::from_secs(120),
    );
    watchdog.enter("silent connection 30 ms in".to_string());
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/transport2.lotos"
    ))
    .unwrap();
    let derived = Pipeline::load(&src)
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let d = derived.derivation();
    // One session in flight at a time: the run lasts well past the
    // handshake timeout, and the timeout is longer than the latency
    // bound below, so a hub that waited on the silent peer would fail it.
    let handshake_timeout = Duration::from_millis(600);
    let dcfg = DistributedConfig {
        handshake_timeout,
        session_window: 1,
        ..DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()))
    };
    let listener = dcfg.listen.listen().unwrap();
    let hub_addr = listener.local_addr().unwrap();
    let Addr::Tcp(tcp_addr) = hub_addr.clone() else {
        unreachable!("TCP listener")
    };
    let cfg = RuntimeConfig::new().sessions(6000).threads(2).seed(7);
    let handles: Vec<_> = d
        .entities
        .iter()
        .map(|(p, spec)| {
            let scfg = ServeConfig::new(hub_addr.clone(), *p);
            let spec = spec.clone();
            std::thread::spawn(move || serve_entity(&spec, &scfg))
        })
        .collect();
    let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
    let silent = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        let conn = std::net::TcpStream::connect(tcp_addr).expect("silent connect");
        // Hold the connection open, never writing, until the run is over.
        let _ = hold_rx.recv();
        drop(conn);
    });
    let started = Instant::now();
    let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
    let wall = started.elapsed();
    drop(hold_tx);
    silent.join().unwrap();
    for h in handles {
        h.join().expect("entity thread").expect("entity outcome");
    }
    assert!(report.passed(), "events: {:?}", report.transport_events);
    assert!(
        !report
            .transport_events
            .iter()
            .any(|e| e.contains("reconnected")),
        "a link was torn down: {:?}",
        report.transport_events
    );
    let slowest = report.reports.iter().map(|r| r.latency_us).max().unwrap();
    assert!(
        slowest < 500_000,
        "slowest session took {slowest} us; events: {:?}",
        report.transport_events
    );
    assert!(
        wall > handshake_timeout + Duration::from_millis(100),
        "the run ({wall:?}) ended before the handshake timeout could pass"
    );
    assert!(
        report
            .transport_events
            .iter()
            .any(|e| e.starts_with("handshake failed")),
        "no handshake diagnostic: {:?}",
        report.transport_events
    );
}
