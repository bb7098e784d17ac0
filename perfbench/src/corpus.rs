//! `verify-corpus`: the designer's loop over the whole spec corpus —
//! parse → check → derive → `verify_derivation` against hand-written
//! verdicts — and the operator's: seeded sessions of every derived
//! protocol on the concurrent engine.

use crate::common::{
    self, check_run, mix, us, Expect, Refusals, SessionTally, StageTimes, VerifyCase, SPECS,
    THREADS,
};
use crate::hostspeed::Speed;
use crate::procfs;
use crate::report::{Outcome, Scaled};
use crate::stats::median;
use protogen::pipeline::Derived;
use runtime::{PipelineRun, RuntimeConfig};
use semantics::bisim::{observation_congruent_threads, weak_equiv_threads};
use semantics::explore::{explore_par, DepthMode, ParExploration, ParSystem};
use semantics::{failures, failures_equal, DetDfa};
use std::time::{Duration, Instant};
use verify::{EngineComposition, EngineService, VerificationReport, VerifyConfig};

/// The corpus with its hand-written §5 verdicts and the primitives whose
/// users never offer them in sessions (the disabling triggers — the
/// normal-completion regime in which sessions conform).
const CORPUS: &[(&str, Expect, Refusals)] = &[
    (
        "example1_invocation.lotos",
        Expect::EQUAL.decided(true),
        &[],
    ),
    ("example2_anbn.lotos", Expect::EQUAL, &[]),
    (
        "example3_file_copy.lotos",
        Expect::DIFFER,
        &[("interrupt", 3)],
    ),
    ("example5_choice.lotos", Expect::EQUAL, &[]),
    (
        "example6_disable.lotos",
        Expect::DIFFER.decided(false),
        &[("d", 3)],
    ),
    ("example7_instances.lotos", Expect::BOUNDED, &[]),
    ("transport2.lotos", Expect::EQUAL, &[]),
    ("transport3_abort.lotos", Expect::EQUAL, &[("abort", 2)]),
    ("transport4_multiplex.lotos", Expect::EQUAL, &[("abort", 3)]),
];

/// Sessions per protocol per measured round.
const SESSIONS: usize = 2_000;
/// Sessions per protocol in the warm-up that ends set-up.
const WARMUP_SESSIONS: usize = 200;
/// End-to-end metrics reported at the reference host speed, with their
/// elasticities (README.md, "Host speed").
const SCALED: Scaled = &[
    ("setup_s", 0.8),
    ("sessions_per_s", 0.85),
    ("session_p50_us", 0.85),
    ("cpu_us_per_session", 0.8),
    ("verify_total_ms", 0.9),
    ("verify_geomean_ms", 0.9),
];
/// Set-up repetitions per run.
const SETUPS: usize = 9;

/// A derived protocol of the corpus and the refusals its sessions run
/// under.
struct Protocol {
    name: String,
    derived: Derived,
    refuse: Refusals,
}

/// Load, check and derive the corpus.
fn load(times: &mut StageTimes) -> (Vec<VerifyCase>, Vec<Protocol>) {
    let mut cases = Vec::new();
    let mut protocols = Vec::new();
    for &(file, expect, refuse) in CORPUS {
        let checked = common::load_checked(&format!("{SPECS}/{file}"), times);
        protocols.push(Protocol {
            name: file.to_string(),
            derived: common::derive(checked.clone(), times),
            refuse,
        });
        cases.push(VerifyCase {
            name: file.to_string(),
            checked,
            expect,
        });
    }
    (cases, protocols)
}

/// `sessions` sessions of every protocol, one `load_test` each; the
/// whole batch is absorbed into `tally` as one round.
fn run_sessions(
    protocols: &[Protocol],
    seed: u64,
    sessions: usize,
    tally: &mut SessionTally,
    out: &mut Outcome,
) {
    let p0 = procfs::process_ticks();
    let t = Instant::now();
    let reports: Vec<_> = protocols
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut cfg = RuntimeConfig::new()
                .threads(THREADS)
                .seed(mix(seed, i as u64))
                .sessions(sessions);
            for &(name, place) in p.refuse {
                cfg = cfg.refuse(name, place);
            }
            p.derived.load_test(&cfg)
        })
        .collect();
    let wall = t.elapsed();
    let ticks = procfs::process_ticks() - p0;
    for (r, p) in reports.iter().zip(protocols) {
        if check_run(out, r, sessions) > 0 {
            out.note(format!("sessions failed: {}", p.name));
        }
    }
    tally.absorb(&reports, wall, ticks);
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut speed = Speed::default();
    speed.probe();
    let mut setups = Vec::new();
    let mut stages = Vec::new();
    let mut set = None;
    for k in 0..SETUPS as u64 {
        let t = Instant::now();
        let mut times = StageTimes::default();
        let (cases, protocols) = load(&mut times);
        let mut warm = SessionTally::default();
        run_sessions(
            &protocols,
            mix(seed, 1_000 + k),
            WARMUP_SESSIONS,
            &mut warm,
            &mut out,
        );
        setups.push(t.elapsed().as_secs_f64());
        stages.push(times);
        set = Some((cases, protocols));
    }
    let (cases, protocols) = set.expect("at least one set-up");
    out.set("setup_s", median(&setups));
    let med = |f: fn(&StageTimes) -> Duration| {
        median(&stages.iter().map(|s| us(f(s))).collect::<Vec<_>>())
    };
    out.set("lotos.parse_us", med(|s| s.parse));
    out.set("lotos.check_us", med(|s| s.check));
    out.set("core.derive_us", med(|s| s.derive));

    // Measured rounds: one verification pass and one batch of sessions
    // each. A traced run alternates plain passes with passes decomposed
    // into the harness's steps.
    let mut passes = Vec::new();
    let mut reports = Vec::new();
    let mut decomposed = Vec::new();
    let mut layers = Layers::default();
    let mut tally = SessionTally::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0u64;
    while k < 3 || Instant::now() < deadline {
        if trace && k % 2 == 1 {
            let t = Instant::now();
            for (c, plain) in cases.iter().zip(&reports) {
                layers.case(c, plain, &mut out);
            }
            decomposed.push(t.elapsed().as_secs_f64());
        } else {
            let (times, r) = common::verify_pass(&cases, &mut out);
            passes.push(times);
            reports = r;
        }
        speed.probe();
        run_sessions(&protocols, mix(seed, k), SESSIONS, &mut tally, &mut out);
        speed.probe();
        k += 1;
    }
    out.set("peak_rss_mb", procfs::peak_rss_mb());
    out.set_speed(&speed, SCALED);
    common::record_verify(&passes, &mut out);
    tally.record(&mut out);
    if !trace {
        return out;
    }
    layers.record(decomposed.len(), &mut out);
    let plain: Vec<f64> = passes
        .iter()
        .map(|p| p.iter().sum::<Duration>().as_secs_f64())
        .collect();
    out.set(
        "trace.overhead_ratio",
        median(&decomposed) / median(&plain) - 1.0,
    );
    out
}

/// The verification harness's steps, each timed from outside by calling
/// the public functions `verify_derivation` is built from.
#[derive(Default)]
struct Layers {
    service_explore: Duration,
    service_states: usize,
    compose_explore: Duration,
    compose_states: usize,
    traces: Duration,
    bisim: Duration,
}

/// Explore adaptively as the harness does: an exhaustive probe capped at
/// `finite_probe_states`, then — only if that was truncated — an
/// observable-depth-bounded exploration.
fn explore_adaptive<Y: ParSystem>(sys: &Y, opts: &VerifyConfig) -> ParExploration<Y::State> {
    let probe_cfg = opts
        .explore
        .clone()
        .max_states(opts.finite_probe_states.max(1));
    let probe = explore_par(sys, &probe_cfg, DepthMode::Observable);
    if probe.lts.complete {
        return probe;
    }
    let mut e = explore_par(
        sys,
        &opts.explore.clone().max_depth(opts.trace_len),
        DepthMode::Observable,
    );
    e.lts.complete = false;
    e
}

/// Whether two reports of the same spec agree: the same verdict and
/// state counts, and the same number of deadlocks where the exploration
/// was complete (under the state cap that number depends on which states
/// the parallel exploration kept).
fn agree(a: &VerificationReport, b: &VerificationReport) -> bool {
    Expect::of(a) == Expect::of(b)
        && a.service_states == b.service_states
        && a.composition_states == b.composition_states
        && (a.qualified || a.deadlocks == b.deadlocks)
}

impl Layers {
    /// Derive and verify one case step by step. Its report must give the
    /// expected verdict and agree with `plain`, the harness's report for
    /// the same spec, so that these timings cannot drift from what
    /// `verify_derivation` runs.
    fn case(&mut self, case: &VerifyCase, plain: &VerificationReport, out: &mut Outcome) {
        let derived = case.checked.clone().derive().expect("checked spec derives");
        let d = derived.derivation();
        let opts = common::verify_config();
        let (report, step) = verify::harness::with_big_stack(|| {
            let t = Instant::now();
            let svc = explore_adaptive(&EngineService::new(d.service.clone()), &opts);
            let service_explore = t.elapsed();
            let t = Instant::now();
            let comp = explore_adaptive(&EngineComposition::new(d, opts.medium), &opts);
            let compose_explore = t.elapsed();
            let deadlocks = comp
                .stuck
                .iter()
                .filter(|&&s| !comp.states[s].terminated)
                .count();

            let t = Instant::now();
            let a = DetDfa::build(&svc.lts, opts.trace_len);
            let b = DetDfa::build(&comp.lts, opts.trace_len);
            let (traces_equal, qualified) = DetDfa::equal(&a, &b);
            let truncated = !svc.lts.unexpanded.is_empty() || !comp.lts.unexpanded.is_empty();
            let missing_in_protocol = DetDfa::first_difference(&a, &b);
            let extra_in_protocol = DetDfa::first_difference(&b, &a);
            let (service_traces, protocol_traces) = (a.trace_set(), b.trace_set());
            let traces = t.elapsed();

            let t = Instant::now();
            let (mut weak_bisimilar, mut congruent, mut failures_eq) = (None, None, None);
            if opts.try_bisim && svc.lts.complete && comp.lts.complete {
                let fa = failures(&svc.lts, opts.trace_len);
                let fb = failures(&comp.lts, opts.trace_len);
                weak_bisimilar = weak_equiv_threads(&svc.lts, &comp.lts, THREADS);
                congruent = observation_congruent_threads(&svc.lts, &comp.lts, THREADS);
                failures_eq = Some(failures_equal(&fa, &fb));
            }
            let bisim = t.elapsed();
            let report = VerificationReport {
                service_traces,
                protocol_traces,
                traces_equal,
                qualified: qualified && truncated,
                missing_in_protocol,
                extra_in_protocol,
                deadlocks,
                composition_states: comp.states.len(),
                service_states: svc.states.len(),
                weak_bisimilar,
                congruent,
                failures_equal: failures_eq,
            };
            let step = Layers {
                service_explore,
                service_states: svc.states.len(),
                compose_explore,
                compose_states: comp.states.len(),
                traces,
                bisim,
            };
            (report, step)
        });
        let ok = case.expect.holds(&report) && agree(&report, plain);
        if !ok {
            out.note(format!(
                "decomposed verification of {} disagrees: {:?} with {} service / {} \
                 composition states and {} deadlocks; the harness gave {:?} with {} / {} and {}",
                case.name,
                Expect::of(&report),
                report.service_states,
                report.composition_states,
                report.deadlocks,
                Expect::of(plain),
                plain.service_states,
                plain.composition_states,
                plain.deadlocks,
            ));
        }
        out.check(1, u64::from(!ok));
        self.service_explore += step.service_explore;
        self.service_states += step.service_states;
        self.compose_explore += step.compose_explore;
        self.compose_states += step.compose_states;
        self.traces += step.traces;
        self.bisim += step.bisim;
    }

    /// Per pass over the whole set.
    fn record(&self, passes: usize, out: &mut Outcome) {
        let per = |x: f64| x / passes as f64;
        out.set(
            "semantics.service_explore_us",
            per(us(self.service_explore)),
        );
        out.set("semantics.service_states", per(self.service_states as f64));
        out.set("verify.compose_explore_us", per(us(self.compose_explore)));
        out.set("verify.compose_states", per(self.compose_states as f64));
        out.set("semantics.traces_us", per(us(self.traces)));
        out.set("semantics.bisim_us", per(us(self.bisim)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semantics::TraceSet;

    /// A report giving verdict `e`, with `states` composition states and
    /// `deadlocks` stuck states.
    fn report(e: Expect, states: usize, deadlocks: usize) -> VerificationReport {
        let traces = TraceSet {
            traces: Default::default(),
            max_len: 6,
            complete: !e.qualified,
        };
        VerificationReport {
            service_traces: traces.clone(),
            protocol_traces: traces,
            traces_equal: e.traces_equal,
            qualified: e.qualified,
            missing_in_protocol: None,
            extra_in_protocol: None,
            deadlocks,
            composition_states: states,
            service_states: 7,
            weak_bisimilar: e.bisim,
            congruent: e.congruent,
            failures_equal: e.failures,
        }
    }

    #[test]
    fn expected_verdict_covers_every_verdict_field() {
        assert!(Expect::EQUAL.holds(&report(Expect::EQUAL, 59, 0)));
        assert!(!Expect::EQUAL.holds(&report(Expect::EQUAL, 59, 1)));
        assert!(!Expect::EQUAL
            .decided(true)
            .holds(&report(Expect::EQUAL, 13, 0)));
        assert!(Expect::DIFFER.holds(&report(Expect::DIFFER, 4_219, 59)));
        assert!(!Expect::DIFFER.holds(&report(Expect::DIFFER, 4_219, 0)));
        assert!(Expect::BOUNDED.holds(&report(Expect::BOUNDED, 60_000, 765)));
        let equal_within_cap = Expect {
            traces_equal: true,
            ..Expect::BOUNDED
        };
        assert!(!Expect::BOUNDED.holds(&report(equal_within_cap, 60_000, 765)));
        assert!(!Expect::BOUNDED.holds(&report(Expect::DIFFER, 60_000, 765)));
    }

    #[test]
    fn reports_agree_on_verdict_states_and_complete_deadlock_counts() {
        let ex6 = Expect::DIFFER.decided(false);
        let a = report(ex6, 388, 2);
        assert!(agree(&a, &report(ex6, 388, 2)));
        assert!(!agree(&a, &report(ex6, 388, 3)));
        assert!(!agree(&a, &report(ex6, 389, 2)));
        assert!(!agree(&a, &report(Expect::DIFFER, 388, 2)));
        // Under the state cap only the presence of deadlocks counts.
        assert!(agree(
            &report(Expect::BOUNDED, 60_000, 765),
            &report(Expect::BOUNDED, 60_000, 1_027)
        ));
    }
}
