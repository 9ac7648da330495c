//! Operation accounting and the result line.

use std::collections::BTreeMap;

/// Every operation the benchmark attempts, and every violation of the
/// correctness checks, by kind.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    violations: BTreeMap<&'static str, u64>,
}

impl Outcome {
    /// Counts one operation; a false `ok` is a failure of kind `kind`.
    pub fn check(&mut self, kind: &'static str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(kind, 1);
        }
    }

    /// Counts `count` operations that succeeded.
    pub fn succeed(&mut self, count: u64) {
        self.attempted += count;
    }

    /// Records `count` failures of operations already counted.
    pub fn fail(&mut self, kind: &'static str, count: u64) {
        if count > 0 {
            self.failed += count;
            *self.violations.entry(kind).or_default() += count;
        }
    }

    pub fn violations(&self) -> &BTreeMap<&'static str, u64> {
        &self.violations
    }
}

/// Named metric values with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.0.retain(|(existing, _, _)| *existing != name);
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(existing, _, _)| existing == name)
            .map(|(_, value, _)| *value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// Prints the human-readable lines, then the one-line JSON result with
/// exactly the `wanted` metrics (each must be present and finite).
pub fn print_result(
    outcome: &Outcome,
    metrics: &Metrics,
    wanted: &[(&str, &str)],
) -> Result<(), String> {
    for (name, value, unit) in metrics.iter() {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    for (kind, count) in outcome.violations() {
        println!("VIOLATION {kind}: {count}");
    }
    let mut fields = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    Ok(())
}
