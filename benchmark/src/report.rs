//! What a workload run produces, and how it is printed.

use scada_analyzer::service::{parse_json, Json};
use scada_analyzer::Verdict;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (latencies and other order statistics).
    pub samples: Option<usize>,
}

/// The result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests (or configs) attempted inside the measured windows.
    pub attempted: u64,
    /// Of those, how many failed or were refused.
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Request round trips, microseconds (recorded runs only).
    pub roundtrips: Vec<f64>,
    /// The generator's own delay before each send, microseconds.
    pub gen_lag_us: Vec<f64>,
    /// Context printed with the report (not part of the summary).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: None,
        });
    }

    /// Records an order statistic with its sample count.
    pub fn sampled(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: Some(n),
        });
    }

    /// Adds a line of context to the human-readable report.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records a failed output check (kept short: the first few are
    /// enough to diagnose a run).
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            self.problems.push(message);
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The machine-readable summary: the last line a run prints.
    pub fn summary_line(&self) -> String {
        let metrics: Vec<(String, Json)> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(m.value)),
                        ("unit".to_string(), Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        let summary = Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]);
        summary
            .render()
            .unwrap_or_else(|e| panic!("metric is not finite: {e}: {self:?}"))
    }

    /// Human-readable lines: `workload metric value unit [n=samples]`.
    pub fn table(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{workload} {} {} {}", m.name, m.value, m.unit));
            if let Some(n) = m.samples {
                out.push_str(&format!(" n={n}"));
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("# {workload} {note}\n"));
        }
        out
    }
}

/// Replaces every `"elapsed_us":N` with `"elapsed_us":0`: the only
/// field of a reply that varies between identical requests.
pub fn strip_elapsed(line: &str) -> String {
    const KEY: &str = "\"elapsed_us\":";
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(pos) = rest.find(KEY) {
        out.push_str(&rest[..pos + KEY.len()]);
        out.push('0');
        let tail = &rest[pos + KEY.len()..];
        let digits = tail.chars().take_while(char::is_ascii_digit).count();
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// The class of a request for per-op timing: its op, with queries
/// answered from a cache classed as `cached`.
pub fn op_class(request: &str, reply: &str) -> &'static str {
    if reply.contains("\"provenance\":\"cached\"") {
        return "cached";
    }
    const OPS: [&str; 7] = [
        "load",
        "verify",
        "patch",
        "maxres",
        "security_index",
        "evict",
        "batch",
    ];
    OPS.iter()
        .find(|op| request.contains(&format!("\"op\":\"{op}\"")))
        .copied()
        .unwrap_or("other")
}

/// A parsed reply: `Ok` for `"ok":true`, otherwise the error text.
pub fn reply_ok(line: &str) -> Result<Json, String> {
    let json = parse_json(line).map_err(|e| format!("unparseable reply ({e}): {line}"))?;
    if json.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(json)
    } else {
        Err(json
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("no error text")
            .to_string())
    }
}

/// A verdict as the wire names it.
pub fn verdict_name(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Resilient => "resilient",
        Verdict::Threat(_) => "threat",
        Verdict::Unknown { .. } => "unknown",
    }
}

/// The `model` hash a reply names, or an empty string.
pub fn model_of(reply: &str) -> String {
    reply_ok(reply)
        .ok()
        .and_then(|json| field(&json, "model").map(str::to_string))
        .unwrap_or_default()
}

/// A string field of a reply.
pub fn field<'a>(json: &'a Json, key: &str) -> Option<&'a str> {
    json.get(key).and_then(Json::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_elapsed_zeroes_every_timing_field() {
        assert_eq!(
            strip_elapsed("{\"a\":1,\"elapsed_us\":123,\"b\":{\"elapsed_us\":9}}"),
            "{\"a\":1,\"elapsed_us\":0,\"b\":{\"elapsed_us\":0}}"
        );
    }

    #[test]
    fn summary_has_exactly_four_keys() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.metric("setup_s", 0.25, "s");
        let json = parse_json(&outcome.summary_line()).unwrap();
        let Json::Obj(fields) = &json else {
            panic!("summary is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            json.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
    }
}
