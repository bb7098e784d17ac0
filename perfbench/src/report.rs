//! What one run produces, and how it is printed: one line per metric
//! with its unit, then the result object as the last line of stdout.

use crate::stats;
use std::collections::BTreeMap;

/// How an end-to-end metric is brought to the reference host speed
/// (see [`crate::hostspeed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// A time, wall or CPU: falls as the host speeds up.
    Time,
    /// A rate: rises as the host speeds up.
    Rate,
    /// Reported as measured.
    None,
}

/// End-to-end metrics a workload reports at the reference host speed,
/// each with its elasticity: by how much the metric's logarithm moves
/// per unit of the speed factor's logarithm on that workload.
pub type Scaled = &'static [(&'static str, f64)];

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str, Scale)] = &[
    ("setup_s", "s", Scale::Time),
    ("sessions_per_s", "1/s", Scale::Rate),
    ("session_p50_us", "us", Scale::Time),
    ("cpu_us_per_session", "us", Scale::Time),
    ("verify_total_ms", "ms", Scale::Time),
    ("verify_geomean_ms", "ms", Scale::Time),
    ("peak_rss_mb", "MB", Scale::None),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("session_p99_us", "us"),
    ("lotos.parse_us", "us"),
    ("lotos.check_us", "us"),
    ("core.derive_us", "us"),
    ("lower.us", "us"),
    ("lower.compiled_entities", "count"),
    ("semantics.service_explore_us", "us"),
    ("semantics.service_states", "count"),
    ("verify.compose_explore_us", "us"),
    ("verify.compose_states", "count"),
    ("semantics.traces_us", "us"),
    ("semantics.bisim_us", "us"),
    ("runtime.mux_cpu_us_per_session", "us"),
    ("runtime.entity_cpu_us_per_session", "us"),
    ("runtime.queue_wait_us", "us"),
    ("runtime.step_us", "us"),
    ("runtime.notify_wait_us", "us"),
    ("medium.retx_per_session", "count"),
    ("medium.lost_per_session", "count"),
    ("medium.delivered_per_transmitted", "ratio"),
    ("monitor.us_per_session", "us"),
    ("hub.cpu_us_per_session", "us"),
    ("hub.wire_us", "us"),
    ("hub.queue_wait_us", "us"),
    ("entity.cpu_us_per_session", "us"),
    ("transport.batches_per_session", "count"),
    ("transport.frames_per_batch_p50", "count"),
    ("transport.bytes_per_session", "B"),
    ("transport.piggybacked_acks_per_batch", "count"),
    ("codec.ns_per_frame", "ns"),
    ("obs.record_overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The outcome of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Sessions and verdicts checked.
    pub attempted: u64,
    /// Checked items that were wrong (see the README's failure rule).
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Speed factor of the host (see [`crate::hostspeed::Speed`]).
    speed: Option<f64>,
    /// The end-to-end metrics reported at the reference host speed; the
    /// others are reported as measured.
    scaled: Scaled,
    /// Context lines printed before the metrics (sample counts, backend).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric; `name` must be one of [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not declared in END_TO_END or PER_LAYER"
        );
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Count checked items, `bad` of which failed.
    pub fn check(&mut self, attempted: u64, bad: u64) {
        self.attempted += attempted;
        self.failed += bad;
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record the run's host speed from its reference probes, and which
    /// end-to-end metrics the workload reports at the reference speed. A
    /// metric with elasticity `e` measured at speed factor `f` is
    /// reported as a time × f^e or a rate ÷ f^e.
    pub fn set_speed(&mut self, speed: &crate::hostspeed::Speed, scaled: Scaled) {
        for (name, _) in scaled {
            assert!(
                END_TO_END
                    .iter()
                    .any(|&(n, _, s)| n == *name && s != Scale::None),
                "`{name}` is not a scalable end-to-end metric"
            );
        }
        self.scaled = scaled;
        self.note(format!(
            "host speed factor {} over {} reference probes",
            speed.factor(),
            speed.probes()
        ));
        self.speed = Some(speed.factor());
    }

    /// An end-to-end metric as reported: at the reference host speed if
    /// the workload scales it, else as measured.
    fn reported(&self, name: &str, scale: Scale) -> f64 {
        let raw = self
            .get(name)
            .unwrap_or_else(|| panic!("end-to-end metric `{name}` not measured"));
        let factor = self.speed.expect("host speed probed");
        let Some(&(_, e)) = self.scaled.iter().find(|(n, _)| *n == name) else {
            return raw;
        };
        match scale {
            Scale::Time => raw * factor.powf(e),
            Scale::Rate => raw / factor.powf(e),
            Scale::None => raw,
        }
    }

    /// Print the run: host, notes, one `name value unit` line per metric
    /// of the selected set, then the result object. Returns whether the
    /// run was correct. A run with failures prints no metric values.
    pub fn print(&self, host: &str, trace: bool) -> bool {
        println!("host {host}");
        for n in &self.notes {
            println!("{n}");
        }
        let ratio = stats::fail_ratio(self.failed, self.attempted);
        println!(
            "fail_ratio {ratio} ratio ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let correct = self.failed == 0 && self.attempted > 0;
        let mut fields = Vec::new();
        if correct {
            let mut metric = |name: &str, value: f64, unit: &str, raw: Option<f64>| {
                match raw {
                    Some(raw) => println!("{name} {value} {unit} (as measured: {raw})"),
                    None => println!("{name} {value} {unit}"),
                }
                fields.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            };
            if trace {
                for &(name, unit) in PER_LAYER {
                    metric(name, self.get(name).unwrap_or(0.0), unit, None);
                }
            } else {
                for &(name, unit, scale) in END_TO_END {
                    let scaled = self.scaled.iter().any(|(n, _)| *n == name);
                    let raw = scaled.then(|| self.get(name)).flatten();
                    metric(name, self.reported(name, scale), unit, raw);
                }
                // Everything as measured, with the speed factor and the
                // elasticities, for machine reading; the result object
                // below holds only the reported values.
                let factor = self.speed.expect("host speed probed");
                let fields = |pairs: &mut dyn Iterator<Item = (&str, f64)>| {
                    pairs
                        .map(|(n, v)| format!("\"{n}\": {v}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                println!(
                    "{{\"as_measured\": {{{}}}, \"speed_factor\": {factor}, \"elasticity\": {{{}}}}}",
                    fields(
                        &mut END_TO_END
                            .iter()
                            .map(|&(n, _, _)| (n, self.get(n).unwrap_or(0.0)))
                    ),
                    fields(&mut self.scaled.iter().copied())
                );
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        correct
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER.iter().copied())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let body = &json[start..json[start..].find(']').unwrap() + start];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at = obj.find(&format!("\"{f}\"")).unwrap() + f.len() + 2;
                        let v = &obj[at..];
                        let v = &v[v.find('"').unwrap() + 1..];
                        v[..v.find('"').unwrap()].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |t: &mut dyn Iterator<Item = (&str, &str)>| -> Vec<(String, String)> {
            t.map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(
            section("end_to_end"),
            owned(&mut END_TO_END.iter().map(|&(n, u, _)| (n, u)))
        );
        assert_eq!(section("per_layer"), owned(&mut PER_LAYER.iter().copied()));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = END_TO_END
            .iter()
            .map(|(n, _, _)| n)
            .chain(PER_LAYER.iter().map(|(n, _)| n))
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        Outcome::default().set("no.such_metric", 1.0);
    }

    #[test]
    fn scales_only_the_metrics_the_workload_names() {
        let mut o = Outcome::default();
        for (name, _, _) in END_TO_END {
            o.set(name, 10.0);
        }
        o.speed = Some(4.0);
        o.scaled = &[
            ("sessions_per_s", 1.0),
            ("session_p50_us", 0.5),
            ("cpu_us_per_session", 1.0),
        ];
        let at = |name: &str| {
            let &(_, _, scale) = END_TO_END.iter().find(|(n, _, _)| *n == name).unwrap();
            o.reported(name, scale)
        };
        assert_eq!(at("sessions_per_s"), 2.5);
        assert_eq!(at("session_p50_us"), 20.0);
        assert_eq!(at("cpu_us_per_session"), 40.0);
        assert_eq!(at("verify_total_ms"), 10.0);
        assert_eq!(at("setup_s"), 10.0);
    }

    #[test]
    fn failed_run_prints_no_numbers() {
        let mut o = Outcome::default();
        o.set("setup_s", 1.0);
        o.check(10, 1);
        assert!(!o.print("{}", false));
    }
}
