//! `local-t2` and `local-lossy-fc`: sessions on the concurrent
//! in-process engine (one OS thread per entity, the calling thread as
//! multiplexer), driven through `PipelineRun::load_test`.

use crate::common::{
    self, check_run, mix, us, Expect, Refusals, StageTimes, VerifyCase, SPECS, THREADS,
};
use crate::hostspeed::Speed;
use crate::procfs;
use crate::report::{Outcome, Scaled};
use crate::stats::{self, median};
use protogen::pipeline::Derived;
use runtime::{BackendChoice, FaultProfile, PipelineRun, RuntimeConfig};
use std::time::{Duration, Instant};

/// One local workload.
pub struct Local {
    pub spec: &'static str,
    pub faults: FaultProfile,
    pub refuse: Refusals,
    /// Expected §5 verdict of the spec.
    pub expect: Expect,
    /// Sessions per measured round.
    pub round: usize,
    /// Sessions of the warm-up pass that ends set-up.
    pub warmup: usize,
    /// End-to-end metrics reported at the reference host speed, with
    /// their elasticities (README.md, "Host speed").
    pub scaled: Scaled,
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 25;
/// Sessions replayed through the monitor and the codec (traced runs).
const LAYER_SESSIONS: usize = 2_000;

pub fn config(w: &Local, seed: u64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new()
        .threads(THREADS)
        .seed(seed)
        .faults(w.faults)
        .backend(BackendChoice::Auto);
    for &(name, place) in w.refuse {
        cfg = cfg.refuse(name, place);
    }
    cfg
}

/// Set-up, repeated [`SETUPS`] times: spec load → check → derive →
/// lower → a warm-up pass of `warm(derived, k)`. Records `setup_s` and
/// the load-stage layers (medians over the repetitions); returns the
/// last derivation.
pub fn setup(
    file: &str,
    out: &mut Outcome,
    mut warm: impl FnMut(&Derived, u64, &mut Outcome),
) -> Derived {
    let path = format!("{SPECS}/{file}");
    let mut setups = Vec::new();
    let mut stages = Vec::new();
    let mut lowers = Vec::new();
    let mut derived = None;
    for k in 0..SETUPS as u64 {
        let t = Instant::now();
        let mut times = StageTimes::default();
        let checked = common::load_checked(&path, &mut times);
        let d = common::derive(checked, &mut times);
        let (lower_t, compiled) = common::lower(&d);
        warm(&d, k, out);
        setups.push(t.elapsed().as_secs_f64());
        stages.push(times);
        lowers.push(us(lower_t));
        out.set("lower.compiled_entities", compiled as f64);
        derived = Some(d);
    }
    out.set("setup_s", median(&setups));
    out.set("lower.us", median(&lowers));
    let med = |f: fn(&StageTimes) -> Duration| {
        median(&stages.iter().map(|s| us(f(s))).collect::<Vec<_>>())
    };
    out.set("lotos.parse_us", med(|s| s.parse));
    out.set("lotos.check_us", med(|s| s.check));
    out.set("core.derive_us", med(|s| s.derive));
    derived.expect("at least one set-up")
}

/// The workload's own spec as a verification set of one.
pub fn own_case(file: &str, expect: Expect) -> VerifyCase {
    VerifyCase {
        name: file.to_string(),
        checked: common::load_checked(&format!("{SPECS}/{file}"), &mut StageTimes::default()),
        expect,
    }
}

/// What a round measured beyond the report.
struct Round {
    wall: Duration,
    process_ticks: u64,
    caller_ticks: Option<u64>,
}

fn round(
    d: &Derived,
    cfg: &RuntimeConfig,
    traced: bool,
    out: &mut Outcome,
) -> (runtime::RuntimeReport, Round) {
    let c0 = traced.then(procfs::thread_ticks);
    let p0 = procfs::process_ticks();
    let t = Instant::now();
    let report = d.load_test(cfg);
    let wall = t.elapsed();
    let process_ticks = procfs::process_ticks() - p0;
    let caller_ticks = c0.map(|c| procfs::thread_ticks() - c);
    check_run(out, &report, cfg.sessions);
    (
        report,
        Round {
            wall,
            process_ticks,
            caller_ticks,
        },
    )
}

pub fn run(w: &Local, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut speed = Speed::default();
    speed.probe();
    let d = setup(w.spec, &mut out, |d, k, out| {
        let cfg = config(w, mix(seed, 1_000 + k)).sessions(w.warmup);
        let report = d.load_test(&cfg);
        check_run(out, &report, w.warmup);
    });
    let case = own_case(w.spec, w.expect);
    let mut passes = Vec::new();

    // Measured rounds, each a batch of sessions and one derive + verify
    // pass over the workload's spec. A traced run rotates untraced
    // rounds, traced rounds (caller-thread CPU read around each call)
    // and rounds with the flight recorder on, so drift hits all three
    // alike.
    let mut plain = common::SessionTally::default();
    let mut traced = common::SessionTally::default();
    let mut recorded = common::SessionTally::default();
    let (mut caller_ticks, mut traced_ticks) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0u64;
    while k < 3 || Instant::now() < deadline {
        let kind = if trace { k % 3 } else { 0 };
        let cfg = config(w, mix(seed, k)).sessions(w.round).record(kind == 2);
        let (report, r) = round(&d, &cfg, kind == 1, &mut out);
        match kind {
            0 => plain.absorb(std::slice::from_ref(&report), r.wall, r.process_ticks),
            1 => {
                traced.absorb(std::slice::from_ref(&report), r.wall, r.process_ticks);
                caller_ticks += r.caller_ticks.expect("traced round");
                traced_ticks += r.process_ticks;
            }
            _ => recorded.absorb(std::slice::from_ref(&report), r.wall, r.process_ticks),
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
        "runtime.mux_cpu_us_per_session",
        stats::per(cpu_us(caller_ticks), sessions),
    );
    out.set(
        "runtime.entity_cpu_us_per_session",
        stats::per(cpu_us(traced_ticks - caller_ticks), sessions),
    );
    out.set("runtime.queue_wait_us", traced.stage_mean_us(0));
    out.set("runtime.step_us", traced.stage_mean_us(1));
    out.set("runtime.notify_wait_us", traced.stage_mean_us(2));
    traced.record_medium(&mut out);
    out.set("trace.overhead_ratio", plain.rate() / traced.rate() - 1.0);
    out.set(
        "obs.record_overhead_ratio",
        plain.rate() / recorded.rate() - 1.0,
    );

    let sims = common::simulated_sessions(&d, &config(w, seed), LAYER_SESSIONS);
    let traces: Vec<_> = sims.iter().map(|s| s.trace.clone()).collect();
    common::time_monitor(&d, &traces, &mut out);
    out
}
