//! What one run hands back to `main`: metrics, failure counts and details.

use crate::stats::{json_list, json_str, rel_iqr, Obj};

/// One reported metric with the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value (a median where `samples > 1`).
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Number of samples behind the value.
    pub samples: usize,
    /// Within-run spread: interquartile range over the samples as a share
    /// of their median (0 for a single sample or a count).
    pub spread: f64,
}

impl Metric {
    /// A metric computed from `samples` by `reduce`.
    #[must_use]
    pub fn from_samples(
        name: impl Into<String>,
        unit: &'static str,
        samples: &[f64],
        reduce: impl Fn(&[f64]) -> f64,
    ) -> Self {
        Self {
            name: name.into(),
            value: reduce(samples),
            unit,
            samples: samples.len(),
            spread: rel_iqr(samples),
        }
    }

    /// A single measured or counted value.
    #[must_use]
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
            spread: 0.0,
        }
    }
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct RunResult {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (jobs run).
    pub attempted: u64,
    /// Operations that failed: errors, panics, rejected jobs, or failed
    /// correctness checks.
    pub failed: u64,
    /// One line per failure, for the run record.
    pub failures: Vec<String>,
    /// Workload-specific details for the run record (counts, spans, ...).
    pub details: Vec<(String, String)>,
}

impl RunResult {
    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 50 {
            self.failures.push(what);
        }
    }

    /// Adds a rendered JSON detail.
    pub fn detail(&mut self, key: &str, value: String) {
        self.details.push((key.to_string(), value));
    }

    /// The metric table for the run record: value, unit, samples, spread.
    #[must_use]
    pub fn metrics_table(&self) -> String {
        let mut o = Obj::new();
        for m in &self.metrics {
            let mut e = Obj::new();
            e.num("value", m.value)
                .str("unit", m.unit)
                .int("samples", m.samples as u64)
                .num("spread", m.spread);
            o.raw(&m.name, e.render());
        }
        o.render()
    }

    /// The failure lines as a JSON list.
    #[must_use]
    pub fn failures_json(&self) -> String {
        json_list(
            &self
                .failures
                .iter()
                .map(|f| json_str(f))
                .collect::<Vec<_>>(),
        )
    }
}
