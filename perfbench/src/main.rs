//! `perfbench` — the repository's benchmark. It measures what the two
//! kinds of users see: a protocol designer's time from a service spec to
//! a §5 verdict, and an operator's sessions/s, session latency and CPU
//! per session when running the derived entities. A traced run splits
//! the same work into per-layer figures, timed from outside around calls
//! into each crate's public functions. See README.md beside this file.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is the result object; the command exits
//! non-zero, printing no metric values, if any checked session or
//! verdict was wrong.

mod common;
mod corpus;
mod dist;
mod host;
mod hostspeed;
mod local;
mod procfs;
mod report;
mod stats;
mod tap;

use common::Expect;
use local::Local;
use runtime::FaultProfile;
use std::process::ExitCode;

/// The workloads by name.
pub const WORKLOADS: &[&str] = &["local-t2", "local-lossy-fc", "dist-t2", "verify-corpus"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"not in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let out = match args.workload.as_str() {
        "local-t2" => local::run(
            &Local {
                spec: "transport2.lotos",
                faults: FaultProfile::None,
                refuse: &[],
                expect: Expect::EQUAL,
                round: 10_000,
                warmup: 3_000,
                scaled: &[
                    ("setup_s", 0.75),
                    ("sessions_per_s", 0.85),
                    ("session_p50_us", 0.8),
                    ("cpu_us_per_session", 0.8),
                    ("verify_total_ms", 0.85),
                    ("verify_geomean_ms", 0.85),
                ],
            },
            seed,
            seconds,
            trace,
        ),
        "local-lossy-fc" => local::run(
            &Local {
                spec: "example3_file_copy.lotos",
                faults: FaultProfile::Lossy { loss: 0.2 },
                refuse: &[("interrupt", 3)],
                expect: Expect::DIFFER,
                round: 5_000,
                warmup: 500,
                scaled: &[
                    ("setup_s", 0.9),
                    ("sessions_per_s", 0.95),
                    ("session_p50_us", 0.9),
                    ("cpu_us_per_session", 0.75),
                    ("verify_total_ms", 1.05),
                    ("verify_geomean_ms", 1.05),
                ],
            },
            seed,
            seconds,
            trace,
        ),
        "dist-t2" => dist::run(seed, seconds, trace),
        "verify-corpus" => corpus::run(seed, seconds, trace),
        other => unreachable!("workload {other} passed validation"),
    };
    if out.print(&host::fingerprint(), trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload dist-t2 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("dist-t2", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload local-t2 --seed x --seconds 1").is_err());
        assert!(args("--workload local-t2 --seed 1 --seconds 0").is_err());
        assert!(args("--workload local-t2 --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload local-t2 --seconds 1").is_err());
        assert!(args("--workload local-t2 --seed 1 --seconds").is_err());
    }
}
