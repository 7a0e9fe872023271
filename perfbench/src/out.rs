//! Metric collection and the two output lines: a `report` object with
//! every metric, its unit and sample count plus the run's settings, and
//! the final result object: `correct`, `attempted`, `failed` and the
//! declared metrics.

use std::collections::BTreeMap;

use gbc_telemetry::Json;

use crate::stats::Pct;

/// The end-to-end metrics printed in the result line of an untraced run.
/// Every workload reports each of them, for its headline operation. Tail
/// percentiles stay in the report line: on a shared 2-core machine their
/// run-to-run spread is wider than any bound that could gate them.
pub const END_TO_END: [(&str, &str); 3] =
    [("op_ms_p50", "ms"), ("capacity_rps", "1/s"), ("setup_s", "s")];

/// Per-layer metrics that carry a per-session suffix.
pub const PER_SESSION: [(&str, &str); 17] = [
    ("exec.run_ms", "ms"),
    ("exec.setup_ms", "ms"),
    ("exec.feed_ms", "ms"),
    ("exec.choose_ms", "ms"),
    ("exec.commit_ms", "ms"),
    ("exec.gamma_steps", "count"),
    ("engine.flat_ms", "ms"),
    ("engine.flat_rounds_per_step", "ratio"),
    ("engine.tuples_derived", "count"),
    ("storage.render_ms", "ms"),
    ("storage.render_kb", "KB"),
    ("storage.heap_ops", "count"),
    ("telemetry.stats_ms", "ms"),
    ("telemetry.counters_kb", "KB"),
    ("serve.dispatch_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.reply_kb", "KB"),
];

/// Per-layer metrics without a suffix.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("cli.read_ms", "ms"),
    ("cli.write_ms", "ms"),
    ("cli.unattributed_ms", "ms"),
    ("cli.attributed_frac", "ratio"),
    ("parser.parse_ms", "ms"),
    ("parser.input_kb", "KB"),
    ("ast.validate_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("exec.run_ms", "ms"),
    ("exec.setup_ms", "ms"),
    ("exec.feed_ms", "ms"),
    ("exec.choose_ms", "ms"),
    ("exec.commit_ms", "ms"),
    ("exec.exit_ms", "ms"),
    ("exec.gamma_steps", "count"),
    ("engine.flat_ms", "ms"),
    ("engine.flat_rounds", "count"),
    ("engine.flat_rounds_per_step", "ratio"),
    ("engine.tuples_derived", "count"),
    ("engine.index_probes", "count"),
    ("engine.pool_utilization", "ratio"),
    ("engine.pool_merge_ms", "ms"),
    ("engine.pool_tasks", "count"),
    ("storage.render_ms", "ms"),
    ("storage.render_kb", "KB"),
    ("storage.heap_ops", "count"),
    ("storage.heap_batch_pushes", "count"),
    ("storage.rql_dominated", "count"),
    ("storage.queue_peak", "count"),
    ("storage.dict_entries", "count"),
    ("storage.dict_encode_hits", "count"),
    ("storage.dict_decode_calls", "count"),
    ("telemetry.stats_ms", "ms"),
    ("telemetry.counters_kb", "KB"),
    ("telemetry.json_parse_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.reply_kb", "KB"),
    ("serve.install_ms", "ms"),
    ("serve.scrape_ms", "ms"),
    ("serve.scrape_kb", "KB"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.rss_kb_per_load", "KB"),
    ("bench.late_ms_p99", "ms"),
    ("bench.cpu_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Session suffixes of [`PER_SESSION`] metrics.
pub const SESSIONS: [&str; 3] = ["prim", "sort", "matching"];

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for s in SESSIONS {
        out.extend(PER_SESSION.iter().map(|&(n, u)| (format!("{n}.{s}"), u)));
    }
    out
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Out {
    pub metrics: BTreeMap<String, Metric>,
    /// Run facts for the report, by key.
    pub info: Vec<(String, Json)>,
    pub attempted: u64,
    pub failed: u64,
}

/// A measured number; one that is not finite (a ratio over no samples)
/// reads 0, as a metric a workload has no layer for does.
pub fn num(x: f64) -> Json {
    Json::Float(if x.is_finite() { x } else { 0.0 })
}

impl Out {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), Metric { value, unit, samples: None });
    }

    pub fn set_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(name.to_owned(), Metric { value, unit, samples: Some(samples) });
    }

    pub fn pct(&mut self, name: &str, p: Pct, unit: &'static str) {
        self.set_n(name, p.value, unit, p.samples);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.value)
    }

    pub fn info(&mut self, key: &str, value: Json) {
        self.info.push((key.to_owned(), value));
    }

    /// Count one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The report line: settings, inputs and every metric by name with
    /// unit and sample count.
    pub fn report_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let mut f = vec![("value", num(m.value)), ("unit", Json::Str(m.unit.into()))];
                if let Some(n) = m.samples {
                    f.push(("samples", Json::UInt(n as u64)));
                }
                (name.clone(), Json::obj(f))
            })
            .collect();
        let mut report = self.info.clone();
        report.extend([
            ("attempted".to_owned(), Json::UInt(self.attempted)),
            ("failed".to_owned(), Json::UInt(self.failed)),
            ("fail_frac".to_owned(), num(self.fail_frac())),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ]);
        Json::obj(vec![("report", Json::Obj(report))]).to_string()
    }

    /// The final result line, holding exactly the metrics `names`. A
    /// metric a workload has no layer for reads 0.
    pub fn result_line(&self, names: &[(String, &'static str)]) -> String {
        let metrics = names
            .iter()
            .map(|(name, unit)| {
                let m = Json::obj(vec![
                    ("value", num(self.get(name))),
                    ("unit", Json::Str((*unit).into())),
                ]);
                (name.clone(), m)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0 && self.attempted > 0)),
            ("attempted", Json::UInt(self.attempted.max(1))),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }
}
