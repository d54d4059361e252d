//! What a run prints: the environment record, a readable summary on
//! stderr, and the one-line JSON result on stdout.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes, where that is meaningful.
    pub samples: Option<usize>,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

pub fn sampled(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: Some(samples),
    }
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, each described in one line.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Measurements printed with every run but kept out of `metrics`: their
    /// run-to-run spread on a shared host is too wide to gate a change on.
    pub reported: Vec<Metric>,
    /// Facts about the run worth recording beside the metrics.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Sample counts, reported measurements and notes, as one JSON line
    /// printed before the result.
    pub fn detail_json(&self) -> String {
        let mut out = String::from("{\"samples\":{");
        let sampled = self
            .metrics
            .iter()
            .filter_map(|m| m.samples.map(|n| (m.name, n)));
        for (i, (name, n)) in sampled.enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{n}");
        }
        out.push_str("},\"reported\":{");
        for (i, m) in self.reported.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"",
                m.name, m.unit
            );
            if let Some(n) = m.samples {
                let _ = write!(out, ",\"samples\":{n}");
            }
            out.push('}');
        }
        out.push_str("},\"notes\":{");
        for (i, (key, value)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{key}\":\"{}\"", escape(value));
        }
        out.push_str("}}");
        out
    }

    /// A readable table for stderr.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (m, tag) in self
            .metrics
            .iter()
            .map(|m| (m, ""))
            .chain(self.reported.iter().map(|m| (m, "  [reported]")))
        {
            let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            let _ = writeln!(
                out,
                "  {:<28} {:>14.4} {}{samples}{tag}",
                m.name, m.value, m.unit
            );
        }
        for (key, value) in &self.notes {
            let _ = writeln!(out, "  {key}: {value}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "  CHECK FAILED: {p}");
        }
        out
    }
}

pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The host and build a run was measured on: numbers from another host or
/// SIMD lane are not comparable. Serving workloads run `nproc` workers.
pub fn environment_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"env\":{{\"cpu\":\"{}\",\"nproc\":{},\"lane\":\"{}\",\"backend\":\"{}\",\"workers\":{},\"commit\":\"{}\"}}}}",
        escape(&cpu),
        nproc(),
        pet_hash::simd::active_lane().as_str(),
        pet_server::ServerConfig::default().backend.name(),
        nproc(),
        escape(&commit()),
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` when the run happens inside a
/// git checkout; `unknown` otherwise.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split(' ').next())
                        .map(str::to_string)
                })
                .unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        o.metrics.push(sampled("p50_ms", 0.25, "ms", 100));
        o.metrics.push(metric("setup_s", f64::NAN, "s"));
        assert_eq!(
            o.result_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":0.25,\"unit\":\"ms\"},\"setup_s\":{\"value\":0.0,\"unit\":\"s\"}}}"
        );
        o.check(false, || "digest differs".to_string());
        assert!(o.result_json().starts_with("{\"correct\":false"));
        assert!(o.detail_json().contains("\"p50_ms\":100"));
        o.reported.push(sampled("p99_ms", 1.5, "ms", 2000));
        assert!(o.detail_json().contains(
            "\"reported\":{\"p99_ms\":{\"value\":1.5,\"unit\":\"ms\",\"samples\":2000}}"
        ));
    }
}
