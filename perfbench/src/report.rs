//! The run's report: a readable table of every number the run produced
//! (end-to-end, per-layer, informational and the run-validity record),
//! then the one-line JSON result the benchmark contract asks for.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics the JSON result carries (trace off), with
/// units, in `BENCHMARK.json` order. The report prints more; these are
/// the ones steady enough across runs to gate on (see BENCHMARK.md).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("rss_peak_mb", "MiB"),
];

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    e2e: BTreeMap<String, (f64, String)>,
    layer: BTreeMap<String, (f64, String)>,
    info: BTreeMap<String, (f64, String)>,
    validity: Vec<(String, String)>,
    flags: Vec<String>,
    notes: Vec<String>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        self.e2e.insert(name.into(), (value, unit.into()));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.layer.insert(name.into(), (value, unit.into()));
    }

    /// The per-layer metric recorded as `name`, if any.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layer.get(name).map(|(v, _)| *v)
    }

    /// Records a number printed in the report but not part of the
    /// contract's JSON (workload-specific end-to-end figures).
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.info.insert(name.into(), (value, unit.into()));
    }

    /// Adds a fact to the run-validity record.
    pub fn validity(&mut self, key: &str, value: &str) {
        self.validity.push((key.into(), value.into()));
    }

    /// Flags the run as not measuring what it should (the numbers are
    /// still printed; the flag says why they may mislead).
    pub fn flag(&mut self, why: String) {
        self.flags.push(why);
    }

    /// A free-form line for the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// An output-check violation: the run is not correct.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Adds requests attempted and failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The readable report, one line per fact.
    pub fn table(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# perfbench workload={workload} seed={seed} trace={}",
            u8::from(trace)
        );
        for (k, v) in &self.validity {
            let _ = writeln!(out, "validity {k} = {v}");
        }
        let _ = writeln!(
            out,
            "validity generator_bound = {}",
            if self.flags.iter().any(|f| f.starts_with("generator-bound")) {
                "yes"
            } else {
                "no"
            }
        );
        for f in &self.flags {
            let _ = writeln!(out, "FLAG {f}");
        }
        let _ = writeln!(
            out,
            "e2e failed_frac = {} (failed {} of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for (section, map) in [
            ("e2e", &self.e2e),
            ("e2e", &self.info),
            ("layer", &self.layer),
        ] {
            for (k, (v, u)) in map {
                let _ = writeln!(out, "{section} {k} = {v} {u}");
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "note {n}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "CHECK FAILED {p}");
        }
        out
    }

    /// The contract's one-line JSON result. `wanted` lists the metrics
    /// it must carry; a missing or non-finite one is a failed check.
    pub fn json(&mut self, wanted: &[(&str, &str)], trace: bool) -> String {
        let source = if trace { &self.layer } else { &self.e2e };
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        for (name, unit) in wanted {
            match source.get(*name) {
                Some((v, u)) if v.is_finite() && u == unit => {
                    metrics.push(format!(
                        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                    ));
                }
                other => {
                    missing.push(format!("metric {name} is {other:?}"));
                    metrics.push(format!(
                        "\"{name}\": {{\"value\": null, \"unit\": \"{unit}\"}}"
                    ));
                }
            }
        }
        self.problems.extend(missing);
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
