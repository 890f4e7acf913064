//! The result line, output-check accounting and a few shared helpers.

use std::fmt::Write as _;
use std::time::Instant;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, such as `1/s`, `ms` or `count`.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Whether `name` is a valid metric name: nonempty, at most 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Counts attempted and failed operations (a sweep cell, a DP instance or a
/// Monte Carlo arm) and keeps the reason of every failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Reasons of the operations that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one operation whose output checks produced `errors` (empty
    /// when it passed).
    pub fn operation(&mut self, what: &str, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failures.push(format!("{what}: {}", errors.join("; ")));
        }
    }

    /// Records one operation that returned an error.
    pub fn error(&mut self, what: &str, error: impl std::fmt::Display) {
        self.operation(what, vec![format!("error: {error}")]);
    }
}

/// Collects the error messages of failed conditions.
#[derive(Debug, Default)]
pub struct Verdict(pub Vec<String>);

impl Verdict {
    /// Notes `message` unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.0.push(message());
        }
    }
}

/// The JSON object printed as the last line of standard output.
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    let correct = checks.failures.is_empty() && checks.attempted > 0;
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.attempted.max(1),
        checks.failures.len()
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(m.name), "invalid metric name {:?}", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite, got {v}");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// FNV-1a over `bytes`: the digest of a serialized report.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Seconds elapsed while running `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Seconds per call of a set-up routine, averaged over enough back-to-back
/// calls to fill `min_sample_s` (one call when a single call takes that
/// long).
pub fn setup_sample(min_sample_s: f64, mut setup: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        setup();
        calls += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_sample_s {
            return elapsed / f64::from(calls);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "setup_s",
            "weak.sample_us_p99",
            "dp.k3_n1000_ms",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "white space",
            "slash/unit",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut checks = Checks::default();
        checks.operation("cell 0", vec![]);
        checks.operation("cell 1", vec!["TA rose".into()]);
        let line = result_line(
            &checks,
            &[
                metric("work_per_s", 1234.5, "1/s"),
                metric("setup_s", 2.0, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\
             \"work_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        let back = serde::json::parse(&line).unwrap();
        assert!(matches!(back, serde::json::Value::Object(_)));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7), "0.0000001");
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
