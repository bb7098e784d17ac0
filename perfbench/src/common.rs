//! Pieces every workload shares: loading a spec with each pipeline stage
//! timed from outside, the session tally behind the end-to-end session
//! metrics, the §5 verification pass with its hand-written expected
//! verdicts, and the replay-monitor timing.

use crate::procfs;
use crate::report::Outcome;
use crate::stats::{self, median, Counts};
use lotos::place::PlaceId;
use protogen::pipeline::{Checked, Derived, Pipeline, PipelineConfig};
use runtime::{BackendChoice, RuntimeConfig, RuntimeReport, SessionEnd};
use std::hint::black_box;
use std::time::{Duration, Instant};
use verify::{verify_derivation, VerificationReport, VerifyConfig};

/// Worker threads everywhere (the reference host has two cores).
pub const THREADS: usize = 2;

/// Primitives a workload's users never offer: `(name, place)`.
pub type Refusals = &'static [(&'static str, u8)];

/// Directory of the spec corpus, relative to the checkout root.
pub const SPECS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../specs");

/// Split a 64-bit seed into a per-use seed (SplitMix64 finalizer).
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time spent in each pipeline stage while loading one spec.
#[derive(Clone, Copy, Default)]
pub struct StageTimes {
    pub parse: Duration,
    pub check: Duration,
    pub derive: Duration,
}

/// Parse and check a spec file, timing each stage.
pub fn load_checked(path: &str, times: &mut StageTimes) -> Checked {
    let t = Instant::now();
    let p = Pipeline::load_file(path)
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .with_config(PipelineConfig::new().threads(THREADS));
    times.parse += t.elapsed();
    let t = Instant::now();
    let c = p.check().unwrap_or_else(|e| panic!("{path}: {e}"));
    times.check += t.elapsed();
    c
}

/// Derive a checked spec, timing the stage.
pub fn derive(c: Checked, times: &mut StageTimes) -> Derived {
    let t = Instant::now();
    let d = c.derive().expect("checked spec derives");
    times.derive += t.elapsed();
    d
}

/// Lower every entity for the `auto` backend, as each run does before
/// its first step: `(time, entities compiled to tables)`.
pub fn lower(d: &Derived) -> (Duration, usize) {
    let t = Instant::now();
    let lowered = runtime::lower_for(&d.derivation().entities, BackendChoice::Auto)
        .expect("auto lowering never fails");
    (t.elapsed(), lowered.iter().filter(|e| e.is_some()).count())
}

/// Did one session of a run go right: completed, terminated properly and
/// conformed to the service?
pub fn session_ok(r: &runtime::SessionReport) -> bool {
    r.conforms && r.end == SessionEnd::Terminated && r.violation.is_none()
}

/// Count a run's sessions into `out`: every requested session is
/// attempted; a missing, non-conforming, deadlocked, step-limited or
/// aborted one has failed. Returns the failures.
pub fn check_run(out: &mut Outcome, report: &RuntimeReport, requested: usize) -> u64 {
    let ok = report.reports.iter().filter(|r| session_ok(r)).count();
    let bad = ((requested.max(report.reports.len()) - ok) as u64).max(report.aborted as u64);
    out.check(requested as u64, bad);
    bad
}

/// Measured sessions across the rounds of one run.
#[derive(Default)]
pub struct SessionTally {
    /// Every measured session's latency, for the tail.
    latencies: Counts,
    /// Completed sessions ÷ wall time, per round.
    round_rates: Vec<f64>,
    /// Exact median session latency, per round.
    round_p50: Vec<f64>,
    sessions: u64,
    cpu_ticks: u64,
    retx: u64,
    lost: u64,
    messages: u64,
    delivered: u64,
    stage_sums: [f64; 4],
}

impl SessionTally {
    /// Absorb one measured round: the reports of the runs it made, its
    /// wall time and its process CPU.
    pub fn absorb(&mut self, reports: &[RuntimeReport], wall: Duration, cpu_ticks: u64) {
        let mut round = Counts::default();
        for report in reports {
            for r in &report.reports {
                round.add(r.latency_us);
                self.latencies.add(r.latency_us);
            }
            self.retx += report.retransmissions as u64;
            self.lost += report.frames_lost as u64;
            self.messages += report.messages as u64;
            self.delivered += report.delivered as u64;
            let s = &report.stages;
            for (sum, h) in
                self.stage_sums
                    .iter_mut()
                    .zip([&s.queue_wait, &s.step, &s.notify_wait, &s.wire])
            {
                *sum += h.mean * h.count as f64;
            }
        }
        let n = round.count();
        self.round_rates.push(n as f64 / wall.as_secs_f64());
        if n > 0 {
            self.round_p50.push(round.quantile(5_000).value as f64);
        }
        self.sessions += n;
        self.cpu_ticks += cpu_ticks;
    }

    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    /// Median over rounds of completed sessions ÷ wall time. Host
    /// interference comes in bursts shorter than a run; the median
    /// keeps a burst-hit round from moving the figure.
    pub fn rate(&self) -> f64 {
        median(&self.round_rates)
    }

    /// Mean of one stage over all sessions: 0 queue_wait, 1 step,
    /// 2 notify_wait, 3 wire.
    pub fn stage_mean_us(&self, i: usize) -> f64 {
        stats::per(self.stage_sums[i], self.sessions)
    }

    /// The session metrics: `sessions_per_s`, `session_p50_us` (median
    /// over rounds of each round's exact median), `cpu_us_per_session`
    /// and the exact p99 over every session, `session_p99_us`.
    pub fn record(&self, out: &mut Outcome) {
        assert!(self.sessions > 0, "no session measured");
        let p99 = self.latencies.quantile(9_900);
        out.set("sessions_per_s", self.rate());
        out.set("session_p50_us", median(&self.round_p50));
        out.set("session_p99_us", p99.value as f64);
        let cpu = procfs::ticks_to_duration(self.cpu_ticks);
        out.set("cpu_us_per_session", stats::per(us(cpu), self.sessions));
        out.note(format!(
            "sessions {} in {} rounds; p99 {} us over {} samples, {} beyond it",
            self.sessions,
            self.round_rates.len(),
            p99.value,
            p99.samples,
            p99.beyond
        ));
    }

    pub fn record_medium(&self, out: &mut Outcome) {
        out.set(
            "medium.retx_per_session",
            stats::per(self.retx as f64, self.sessions),
        );
        out.set(
            "medium.lost_per_session",
            stats::per(self.lost as f64, self.sessions),
        );
        out.set(
            "medium.delivered_per_transmitted",
            stats::per(self.delivered as f64, self.messages + self.retx),
        );
    }
}

/// Hand-written expected outcome of the §5 check for one spec: the
/// verdict fields of `VerificationReport`, with deadlocks as present or
/// absent (under a state cap their count depends on which states the
/// parallel exploration kept).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expect {
    pub traces_equal: bool,
    /// The verdict is qualified by the state cap.
    pub qualified: bool,
    pub deadlocks: bool,
    /// Weak bisimilarity, observation congruence and failures equality;
    /// `None` where the harness does not decide them (an infinite or
    /// truncated side).
    pub bisim: Option<bool>,
    pub congruent: Option<bool>,
    pub failures: Option<bool>,
}

impl Expect {
    /// `passed()`: trace-equal and deadlock-free; bisimulation not
    /// decided (a side is infinite).
    pub const EQUAL: Expect = Expect {
        traces_equal: true,
        qualified: false,
        deadlocks: false,
        bisim: None,
        congruent: None,
        failures: None,
    };
    /// Traces differ (the §3.3 disable deviation), with deadlocks.
    pub const DIFFER: Expect = Expect {
        traces_equal: false,
        deadlocks: true,
        ..Expect::EQUAL
    };
    /// The composition hits the state cap: a bounded verdict. Within the
    /// cap the traces differ and stuck states remain.
    pub const BOUNDED: Expect = Expect {
        qualified: true,
        ..Expect::DIFFER
    };

    /// The same verdict with weak bisimilarity, observation congruence
    /// and failures equality all decided as `v`.
    pub const fn decided(self, v: bool) -> Expect {
        Expect {
            bisim: Some(v),
            congruent: Some(v),
            failures: Some(v),
            ..self
        }
    }

    /// The verdict a report gives.
    pub fn of(r: &VerificationReport) -> Expect {
        Expect {
            traces_equal: r.traces_equal,
            qualified: r.qualified,
            deadlocks: r.deadlocks > 0,
            bisim: r.weak_bisimilar,
            congruent: r.congruent,
            failures: r.failures_equal,
        }
    }

    pub fn holds(self, r: &VerificationReport) -> bool {
        Expect::of(r) == self
    }
}

/// The harness configuration of every verification pass.
pub fn verify_config() -> VerifyConfig {
    VerifyConfig::new().threads(THREADS)
}

/// One spec of a verification set.
pub struct VerifyCase {
    pub name: String,
    pub checked: Checked,
    pub expect: Expect,
}

/// Derive and verify every case once, checking each verdict. Returns
/// the per-case times to a verdict and the reports.
pub fn verify_pass(
    cases: &[VerifyCase],
    out: &mut Outcome,
) -> (Vec<Duration>, Vec<VerificationReport>) {
    cases
        .iter()
        .map(|c| {
            let t = Instant::now();
            let d = c.checked.clone().derive().expect("checked spec derives");
            let r = verify_derivation(d.derivation(), verify_config());
            let took = t.elapsed();
            let ok = c.expect.holds(&r);
            if !ok {
                out.note(format!(
                    "verdict mismatch: {} expected {:?}, got {:?}",
                    c.name,
                    c.expect,
                    Expect::of(&r)
                ));
            }
            out.check(1, u64::from(!ok));
            (took, r)
        })
        .unzip()
}

/// Record, from per-pass, per-case times, `verify_total_ms` — one pass
/// over the set, as the sum of each case's lower-quartile time — and
/// `verify_geomean_ms`, the geometric mean of those times. The lower
/// quartile is the case's cost when the host does not interfere:
/// interference only ever adds time.
pub fn record_verify(passes: &[Vec<Duration>], out: &mut Outcome) {
    assert!(!passes.is_empty(), "no verification pass");
    let per_case: Vec<f64> = (0..passes[0].len())
        .map(|i| {
            let times: Vec<f64> = passes.iter().map(|p| p[i].as_secs_f64() * 1e3).collect();
            stats::lower_quartile(&times)
        })
        .collect();
    out.set("verify_total_ms", per_case.iter().sum());
    out.set("verify_geomean_ms", stats::geomean(&per_case));
    out.note(format!(
        "verify {} passes over {} specs",
        passes.len(),
        per_case.len()
    ));
}

/// Primitive traces of sessions as the runtime would draw them, from the
/// discrete-event simulator at the run's session seeds.
pub fn simulated_sessions(d: &Derived, cfg: &RuntimeConfig, n: usize) -> Vec<sim::des::SimOutcome> {
    (0..n)
        .map(|k| {
            let mut sc = sim::des::SimConfig::new()
                .seed(cfg.session_seed(k))
                .max_steps(cfg.max_steps);
            for (name, place) in &cfg.refuse {
                sc = sc.refuse(name, *place);
            }
            sim::des::simulate(d.derivation(), sc)
        })
        .collect()
}

/// `monitor.us_per_session`: one conformance replay per session —
/// `ServiceMonitor::new` plus a `step` per primitive — as the runtime
/// runs it for every completed session it has not memoized.
pub fn time_monitor(d: &Derived, traces: &[Vec<(String, PlaceId)>], out: &mut Outcome) {
    let service = d.service();
    let t = Instant::now();
    let mut bad = 0u64;
    for trace in traces {
        let mut mon = sim::monitor::ServiceMonitor::new(service.clone());
        let ok = trace.iter().all(|(n, p)| mon.step(n, *p)) && mon.may_terminate();
        bad += u64::from(!black_box(ok));
    }
    let took = t.elapsed();
    out.check(traces.len() as u64, bad);
    out.set("monitor.us_per_session", us(took) / traces.len() as f64);
}
