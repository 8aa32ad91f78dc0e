//! Summary statistics and the benchmark's output: a human-readable table
//! followed by one JSON line.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained (sample count, spread).
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: note.into(),
        }
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method (Python's
/// `statistics.quantiles(v, n=4)`); `None` below two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Python's formula verbatim, including its clamping of j to
        // 1..=n-1 (which extrapolates for tiny samples).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// "median of n (q1 … q3)" note for a list of samples.
pub fn spread_note(what: &str, v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, q3)) => format!("median of {} {what}; q1 {q1:.6}, q3 {q3:.6}", v.len()),
        None => format!("{} {what}", v.len()),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<28} {:>18.6} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite value prints as Rust's shortest round-trip decimal, which
/// is valid JSON; a non-finite one cannot be measured and prints null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let m = [Metric::new("setup_s", 0.5, "s", "")];
        assert_eq!(
            json_line(true, 4, 0, &m),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
