//! The metric names the benchmark promises, and the result it prints.

use std::fmt::Write as _;

/// End-to-end metrics (printed with `--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("files_per_s", "1/s"),
    ("rps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (printed with `--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lexer.us_per_file", "us"),
    ("lexer.ns_per_byte", "ns"),
    ("lexer.tokens_per_file", "count"),
    ("parser.us_per_file", "us"),
    ("parser.nodes_per_file", "count"),
    ("analysis.us_per_file", "us"),
    ("analysis.findings_per_file", "count"),
    ("compile.us_per_file", "us"),
    ("eval.us_per_file", "us"),
    ("eval.steps_per_file", "count"),
    ("eval.word_fast_hit_rate", "ratio"),
    ("eval.arena_recycle_rate", "ratio"),
    ("render.us_per_file.human", "us"),
    ("render.us_per_file.json", "us"),
    ("render.us_per_file.sarif", "us"),
    ("render.bytes_per_file.sarif", "bytes"),
    ("cache.hash_ns_per_file", "ns"),
    ("cache.lru_ns_per_op", "ns"),
    ("cache.full_hit_ratio", "ratio"),
    ("cache.warm_hits", "count"),
    ("cache.evictions", "count"),
    ("serve.hit_us_p50", "us"),
    ("serve.miss_us_p50", "us"),
    ("serve.outside_check_us_p50", "us"),
    ("process.start_ms", "ms"),
    ("read.us_per_file", "us"),
    ("share.read", "ratio"),
    ("share.cache", "ratio"),
    ("share.lexer", "ratio"),
    ("share.parser", "ratio"),
    ("share.analysis", "ratio"),
    ("share.compile", "ratio"),
    ("share.eval", "ratio"),
    ("share.render", "ratio"),
];

/// One run's result: operation counts, failures and metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (invocations or requests).
    pub attempted: u64,
    /// Operations that failed: transport error, bad status or exit
    /// code, or a verdict, exit or first code that differs from the
    /// expected one.
    pub failed: u64,
    /// Problems that make the run incorrect (first few failures, trace
    /// disagreements, too few tail samples).
    pub problems: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// Count one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problem(what);
    }

    /// Record a problem that makes the run incorrect.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        // `+ 0.0` turns an empty sum's -0.0 into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// The last line of the run: `correct`, `attempted`, `failed` and
    /// every metric of the selected set, with its unit.
    pub fn result_line(&self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let mut problems = self.problems.clone();
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match self.metrics.iter().find(|(n, _)| n == name) {
                Some((_, v)) => *v,
                None => {
                    problems.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = problems.is_empty() && self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cundef_ub::json::Json;

    fn names(v: &Json, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v = Json::parse(&text).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&v, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&v, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let known = crate::Workload::ALL.map(crate::Workload::name);
        assert!(workloads.iter().all(|w| known.contains(w)));
        // `serve-realistic-mix` runs by name but is left out: its
        // latency follows the host's steal (README).
        assert_eq!(workloads, ["batch-realistic", "serve-loops-cold"]);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (n, _) in END_TO_END {
            r.set(n, 1.25);
        }
        let line = r.result_line(false);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("p99_ms")
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64),
            Some(1.25)
        );
        let traced = Json::parse(&r.result_line(true)).unwrap();
        assert_eq!(
            traced.get("correct"),
            Some(&Json::Bool(false)),
            "missing metrics"
        );
        r.fail("boom".into());
        let v = Json::parse(&r.result_line(false)).unwrap();
        assert_eq!(v.get("failed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
    }
}
