//! Order statistics and a minimal JSON writer.

/// The `q`-quantile of `values` by the same rule as Python's
/// `statistics.quantiles(method="exclusive")`: position `q·(n+1)`,
/// interpolated linearly and clamped to the sample range.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            let a = v[lo - 1];
            let b = v[lo.min(n - 1)];
            a + (b - a) * frac
        }
    }
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile, as a share of the median
/// (0 for fewer than two samples).
#[must_use]
pub fn rel_iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m.abs()
}

/// Number of samples strictly above the `q`-quantile.
#[must_use]
pub fn beyond(values: &[f64], q: f64) -> usize {
    let t = quantile(values, q);
    values.iter().filter(|&&v| v > t).count()
}

/// Escapes `s` as a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `v` as a JSON number with all its digits (`null` when not
/// finite).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON object assembled field by field, in insertion order.
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a raw (already rendered) JSON value.
    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds a number.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, json_num(value))
    }

    /// Adds an integer.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value.to_string())
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, json_str(value))
    }

    /// Adds a boolean.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, value.to_string())
    }

    /// Renders the object on one line.
    #[must_use]
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Renders a list of rendered JSON values.
#[must_use]
pub fn json_list(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn json_renders_escapes_and_numbers() {
        let mut o = Obj::new();
        o.str("a", "x\"y").num("b", 0.1).int("c", 3).bool("d", true);
        assert_eq!(o.render(), r#"{"a": "x\"y", "b": 0.1, "c": 3, "d": true}"#);
        assert_eq!(json_num(f64::NAN), "null");
    }
}
