//! Seeded conformance property suite: every spec of the corpus, driven
//! through the runtime under every fault profile, at 1 and 4 threads —
//! every session's primitive trace must be accepted by the service
//! monitor and the runtime must drain cleanly.

use protogen::Pipeline;
use runtime::{BackendChoice, FaultProfile, PipelineRun, RuntimeConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SEEDS: [u64; 3] = [0xC0FFEE, 7, 991];
const SESSIONS: usize = 4;

/// Wall-clock guard for the long matrix tests: a wedged runtime must
/// fail CI with a diagnostic, not hang until the job times out. The
/// guard thread dumps the case in flight and kills the test process
/// when the budget lapses (a hung test thread can never fail itself).
struct Watchdog {
    done: Arc<AtomicBool>,
    /// Human-readable description of the case currently executing —
    /// updated by the matrix loop, dumped on expiry.
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
                "WATCHDOG: {name} exceeded its {budget:?} wall-clock budget.\n\
                 case in flight: {}\n\
                 (rerun that case alone under --nocapture to reproduce)",
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

fn profiles() -> Vec<FaultProfile> {
    vec![
        FaultProfile::None,
        FaultProfile::Lossy { loss: 0.2 },
        FaultProfile::Reorder {
            loss: 0.1,
            dup: 0.2,
        },
    ]
}

/// Disable (`[>`) specs deviate from the service by design: §3.3 derives
/// a broadcast interrupt, so an `e1` event may slip in after the
/// disabling event while the broadcast is in flight, and an interrupted
/// run can strand sequencing messages (EXPERIMENTS.md E5/E6 — the paper's
/// theorem excludes `[>`). Conformance is therefore checked on the
/// normal-completion side: the disable trigger is refused, exactly as in
/// E6 ("user never presses d3"). The deviation itself is pinned by
/// `disable_deviation_is_flagged_not_hung` below.
fn refusals(name: &str) -> Vec<(&'static str, u8)> {
    match name {
        "example3_file_copy.lotos" => vec![("interrupt", 3)],
        "example6_disable.lotos" => vec![("d", 3)],
        "transport3_abort.lotos" => vec![("abort", 2)],
        "transport4_multiplex.lotos" => vec![("abort", 3)],
        _ => Vec::new(),
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

/// The whole matrix: specs × profiles × seeds × thread settings. Every
/// session must terminate and conform; a clean drain means sent ==
/// delivered on every conforming run (nothing stuck in a channel) — the
/// entity threads themselves are joined by the runtime's thread scope
/// before `run` returns, so a hung thread shows up as a hung test.
#[test]
fn corpus_conforms_under_all_fault_profiles() {
    let watchdog = Watchdog::arm(
        "corpus_conforms_under_all_fault_profiles",
        Duration::from_secs(600),
    );
    for (name, src) in corpus() {
        let derived = Pipeline::load(&src)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .check()
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .derive()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for profile in profiles() {
            for seed in SEEDS {
                for threads in [1, 4] {
                    // Backend axis: `Auto` steps every entity that lowers
                    // from compiled tables; `Interpreted` forces the
                    // original path. Both must conform identically.
                    for backend in [BackendChoice::Auto, BackendChoice::Interpreted] {
                        watchdog.enter(format!(
                            "{name} profile={profile} seed={seed} threads={threads} \
                             backend={backend}"
                        ));
                        let mut cfg = RuntimeConfig::new()
                            .sessions(SESSIONS)
                            .threads(threads)
                            .seed(seed)
                            .faults(profile)
                            .backend(backend)
                            .max_steps(20_000);
                        for (prim, place) in refusals(&name) {
                            cfg = cfg.refuse(prim, place);
                        }
                        let report = derived.load_test(&cfg);
                        assert!(
                            report.passed(),
                            "{name} profile={profile} seed={seed} threads={threads} \
                             backend={backend}: \
                             {}/{} conforming, {} violations, {} deadlocked, {} step-limited\n\
                             first violation: {:?}",
                            report.conforming,
                            report.sessions,
                            report.violations.len(),
                            report.deadlocked,
                            report.step_limited,
                            report.violations.first().map(|v| (&v.primitive, &v.trace)),
                        );
                        assert_eq!(
                            report.messages, report.delivered,
                            "{name} profile={profile} seed={seed} threads={threads} \
                             backend={backend}: messages stuck in a channel after a clean run"
                        );
                        assert_eq!(report.sessions, SESSIONS);
                        assert_eq!(report.terminated, SESSIONS);
                    }
                }
            }
        }
    }
}

/// Fault profiles must actually inject faults: across the corpus and
/// seeds, the lossy profile loses frames and triggers retransmissions
/// (otherwise the suite above proves nothing about recovery).
#[test]
fn lossy_profile_actually_exercises_recovery() {
    let mut lost = 0usize;
    let mut retx = 0usize;
    for (name, src) in corpus() {
        let derived = Pipeline::load(&src)
            .unwrap()
            .check()
            .unwrap()
            .derive()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let cfg = RuntimeConfig::new()
            .sessions(4)
            .threads(4)
            .seed(12345)
            .faults(FaultProfile::Lossy { loss: 0.3 })
            .max_steps(20_000);
        let report = derived.load_test(&cfg);
        lost += report.frames_lost;
        retx += report.retransmissions;
    }
    assert!(lost > 0, "loss 0.3 never dropped a frame across the corpus");
    assert!(retx > 0, "recovery never retransmitted");
}

/// With the disable trigger *allowed*, the §3.3 deviation shows up as
/// monitor violations or non-terminated sessions — never as a hang. The
/// runtime must drain every session to a verdict at both thread counts.
#[test]
fn disable_deviation_is_flagged_not_hung() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/example3_file_copy.lotos"
    ))
    .unwrap();
    let derived = Pipeline::load(&src)
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let watchdog = Watchdog::arm(
        "disable_deviation_is_flagged_not_hung",
        Duration::from_secs(300),
    );
    let mut saw_deviation = false;
    for threads in [1, 4] {
        for seed in SEEDS {
            watchdog.enter(format!("threads={threads} seed={seed}"));
            let cfg = RuntimeConfig::new()
                .sessions(SESSIONS)
                .threads(threads)
                .seed(seed)
                .max_steps(20_000);
            let report = derived.load_test(&cfg);
            assert_eq!(
                report.terminated + report.deadlocked + report.step_limited,
                SESSIONS,
                "threads={threads} seed={seed}: a session got no verdict"
            );
            if !report.passed() {
                saw_deviation = true;
                // Every violation pins the documented shape: an event
                // admitted after (or stranded by) the interrupt.
                for v in &report.violations {
                    assert!(v.session < SESSIONS as u64, "violation lacks a session id");
                    assert!(!v.trace.is_empty());
                }
            }
        }
    }
    assert!(
        saw_deviation,
        "interrupt never fired across the seeds — deviation test is vacuous"
    );
}

/// Sessions are independent: per-session violation records carry the
/// session id and the offending trace (checked with sabotaged entities,
/// on both engines). `at` indexes the violating primitive even when the
/// run goes on after it.
#[test]
fn violations_carry_session_id_and_trace() {
    // (service, sabotaged place-1 entity, expected violating primitive)
    let cases = [
        // Place 1 announces `c` where the service expects `a` first.
        (
            "SPEC a1; b2; c1; exit ENDSPEC",
            "SPEC c1; exit ENDSPEC",
            "c",
        ),
        // Place 1 swaps its two primitives and runs on after `b`.
        (
            "SPEC a1; b1; exit ENDSPEC",
            "SPEC b1; a1; exit ENDSPEC",
            "b",
        ),
    ];
    for (service, sabotage, prim) in cases {
        let derived = Pipeline::load(service)
            .unwrap()
            .check()
            .unwrap()
            .derive()
            .unwrap();
        let mut d = derived.into_derivation();
        let (_, spec1) = &mut d.entities[0];
        *spec1 = lotos::parser::parse_spec(sabotage).unwrap();
        for threads in [1, 4] {
            let cfg = RuntimeConfig::new().sessions(3).threads(threads).seed(5);
            let report = runtime::run(&d, &cfg);
            let case = format!("{service} with {sabotage}, threads({threads})");
            assert!(!report.passed(), "{case}");
            assert!(!report.violations.is_empty(), "{case}");
            for v in &report.violations {
                assert!(v.session < 3, "{case}");
                assert_eq!(v.primitive, prim, "{case}");
                assert_eq!(v.place, 1, "{case}");
                assert!(!v.trace.is_empty(), "{case}");
                assert_eq!(v.trace[v.at], (prim.to_string(), 1), "{case}: {v:?}");
            }
        }
    }
}

/// A deadlock against a refusal names the refused offer the run blocked
/// on — here `b2`, the only refused primitive ever offered — not the
/// first entry of the refusal list, on both engines.
#[test]
fn refusal_deadlock_names_the_offer_it_blocked_on() {
    let derived = Pipeline::load("SPEC a1; b2; exit ENDSPEC")
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    for threads in [1, 4] {
        let cfg = RuntimeConfig::new()
            .sessions(3)
            .threads(threads)
            .seed(5)
            .refuse("z", 1)
            .refuse("b", 2);
        let report = runtime::run(derived.derivation(), &cfg);
        let case = format!("threads({threads})");
        assert_eq!(report.violations.len(), 3, "{case}");
        for v in &report.violations {
            assert_eq!((v.primitive.as_str(), v.place), ("b", 2), "{case}: {v:?}");
            assert_eq!(v.trace, vec![("a".to_string(), 1)], "{case}: {v:?}");
            assert_eq!(v.at, v.trace.len(), "{case}: {v:?}");
        }
        for s in &report.reports {
            assert_eq!(s.end, runtime::SessionEnd::Deadlock, "{case}");
            assert_eq!(s.violation, Some(("b".to_string(), 2)), "{case}");
        }
    }
}
