//! Operation accounting, metric values and the result line.

use std::fmt::Write as _;

/// Counts of attempted operations and of the ways one can fail.
///
/// An operation is one served request, one plan-and-evaluate round, or
/// one traced replica run. It fails when the call returns an error, when
/// the server refuses it, or when its output differs from the reference
/// it is checked against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations whose call returned an error.
    pub errors: u64,
    /// Requests the server refused.
    pub rejected: u64,
    /// Operations that completed with a wrong output.
    pub mismatched: u64,
}

impl Tally {
    /// Every failed operation, whatever the cause.
    pub fn failed(&self) -> u64 {
        self.errors + self.rejected + self.mismatched
    }

    /// Failed operations over attempted ones; a run that attempted
    /// nothing counts as wholly failed.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed() as f64 / self.attempted as f64
    }

    /// Adds another tally's counts to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.rejected += other.rejected;
        self.mismatched += other.mismatched;
    }

    /// Records one operation's outcome: `Ok(true)` matched its reference,
    /// `Ok(false)` did not, `Err` failed outright.
    pub fn record<E>(&mut self, outcome: Result<bool, E>) {
        self.attempted += 1;
        match outcome {
            Ok(true) => {}
            Ok(false) => self.mismatched += 1,
            Err(_) => self.errors += 1,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the README.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Free-form provenance: sample count, percentile level.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit, note: String::new() }
    }

    /// Attaches provenance text.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Formats one table row of the human-readable report.
pub fn row(m: &Metric) -> String {
    let mut line = format!("  {:<32} {:>14.4} {:<9}", m.name, m.value, m.unit);
    if !m.note.is_empty() {
        let _ = write!(line, " {}", m.note);
    }
    line
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
/// A non-finite value cannot be written as JSON; it is written as 0 and
/// marks the result incorrect.
pub fn result_json(tally: &Tally, checks_passed: bool, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = checks_passed && finite && tally.failed() == 0 && tally.attempted > 0;
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(body, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted.max(1),
        tally.failed()
    )
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_rate_counts_every_failure_kind_against_attempts() {
        let t = Tally { attempted: 200, errors: 1, rejected: 2, mismatched: 3 };
        assert_eq!(t.failed(), 6);
        assert_eq!(t.error_rate(), 6.0 / 200.0);
        assert_eq!(Tally { attempted: 10, ..Tally::default() }.error_rate(), 0.0);
    }

    #[test]
    fn nothing_attempted_is_total_failure() {
        assert_eq!(Tally::default().error_rate(), 1.0);
        assert!(result_json(&Tally::default(), true, &[]).contains("\"correct\": false"));
    }

    #[test]
    fn record_sorts_outcomes() {
        let mut t = Tally::default();
        t.record::<()>(Ok(true));
        t.record::<()>(Ok(false));
        t.record(Err("boom"));
        assert_eq!(t, Tally { attempted: 3, errors: 1, rejected: 0, mismatched: 1 });
        let mut sum = Tally { attempted: 1, rejected: 1, ..Tally::default() };
        sum.absorb(t);
        assert_eq!(sum.failed(), 3);
        assert_eq!(sum.attempted, 4);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let t = Tally { attempted: 12, ..Tally::default() };
        let line = result_json(
            &t,
            true,
            &[Metric::new("latency_p50_ms", 1.25, "ms"), Metric::new("setup_s", 0.5, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_or_non_finite_values_make_the_result_incorrect() {
        let t = Tally { attempted: 5, mismatched: 1, ..Tally::default() };
        assert!(result_json(&t, true, &[]).contains("\"correct\": false"));
        let ok = Tally { attempted: 5, ..Tally::default() };
        let line = result_json(&ok, true, &[Metric::new("x", f64::NAN, "ms")]);
        assert!(line.contains("\"correct\": false") && line.contains("\"value\": 0"));
        assert!(result_json(&ok, false, &[]).contains("\"correct\": false"));
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        }
    }
}
