//! Metric maps, summary statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named metrics, each a value with a unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Values keyed by metric name.
    pub values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Set `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    /// Add `value` to `name` (starting from zero).
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.entry(name.into()).or_insert((0.0, unit)).0 += value;
    }

    /// The value of `name`, or 0 when it was never set.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.0)
    }

    /// Copy every metric of `other` into `self`.
    pub fn extend(&mut self, other: &Metrics) {
        for (k, v) in &other.values {
            self.values.insert(k.clone(), *v);
        }
    }

    /// Per-key median over a set of metric maps (keys of the first map).
    pub fn median_of(maps: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        if let Some(first) = maps.first() {
            for (k, &(_, unit)) in &first.values {
                let xs: Vec<f64> = maps.iter().map(|m| m.get(k)).collect();
                out.set(k.clone(), median(&xs), unit);
            }
        }
        out
    }

    /// The metrics as a JSON object `{"name": {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, (v, unit))) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            );
        }
        out.push('}');
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values are reported as 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated percentile `q` in [0, 1] of `xs` (0 when empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a accumulator for the simulated fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in.
    pub fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((percentile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.set("wall_s", 0.1 + 0.2, "s");
        assert_eq!(
            m.to_json(),
            "{\"wall_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}"
        );
    }
}
