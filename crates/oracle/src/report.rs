//! Sweep aggregation and JSON reporting.
//!
//! [`SweepReport`] collects the [`PointReport`]s of a sweep, tracks the
//! diversity of what actually ran (backends, thread counts, fault plans —
//! a sweep that never sampled a fault tested less than it claims), and
//! serializes to a small hand-written JSON document for CI artifacts.

use crate::runner::PointReport;

/// Aggregated outcome of a verification sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Per-point outcomes, in execution order.
    pub points: Vec<PointReport>,
}

impl SweepReport {
    /// Adds one finished point.
    pub fn push(&mut self, report: PointReport) {
        self.points.push(report);
    }

    /// Number of points that passed every oracle.
    pub fn passed(&self) -> usize {
        self.points.iter().filter(|p| p.passed()).count()
    }

    /// Total violations across all points.
    pub fn violations(&self) -> usize {
        self.points.iter().map(|p| p.violations.len()).sum()
    }

    /// Whether the sweep as a whole is clean.
    pub fn all_passed(&self) -> bool {
        self.violations() == 0
    }

    /// Diversity counters: `(faulty, crashed, multi_worker, single_thread,
    /// checkpointed, tucker)` point counts.
    pub fn diversity(&self) -> [usize; 6] {
        let mut d = [0; 6];
        for p in &self.points {
            let s = &p.point;
            d[0] += usize::from(s.fault_plan.is_some());
            d[1] += usize::from(
                s.fault_plan
                    .as_ref()
                    .is_some_and(|f| !f.worker_crashes.is_empty()),
            );
            d[2] += usize::from(s.workers > 1);
            d[3] += usize::from(s.compute_threads == Some(1));
            d[4] += usize::from(s.check_checkpoint);
            d[5] += usize::from(s.check_tucker);
        }
        d
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let [faulty, crashed, multi, serial, ckpt, tucker] = self.diversity();
        format!(
            "{}/{} points passed, {} violation(s); diversity: {} faulty ({} with crashes), \
             {} multi-worker, {} single-thread, {} checkpointed, {} tucker",
            self.passed(),
            self.points.len(),
            self.violations(),
            faulty,
            crashed,
            multi,
            serial,
            ckpt,
            tucker,
        )
    }

    /// Renders the report as a JSON document (hand-written for this flat
    /// shape; strings pass through [`json_escape`]).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"points\": {},\n", self.points.len()));
        out.push_str(&format!("  \"passed\": {},\n", self.passed()));
        out.push_str(&format!("  \"violations\": {},\n", self.violations()));
        let [faulty, crashed, multi, serial, ckpt, tucker] = self.diversity();
        out.push_str(&format!(
            "  \"diversity\": {{\"faulty\": {faulty}, \"crashed\": {crashed}, \
             \"multi_worker\": {multi}, \"single_thread\": {serial}, \
             \"checkpointed\": {ckpt}, \"tucker\": {tucker}}},\n"
        ));
        out.push_str("  \"results\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            let violations: Vec<String> = p
                .violations
                .iter()
                .map(|m| format!("\"{}\"", json_escape(m)))
                .collect();
            out.push_str(&format!(
                "    {{\"seed\": {}, \"point\": \"{}\", \"passed\": {}, \"violations\": [{}]}}{sep}\n",
                p.point.seed,
                json_escape(&p.point.describe()),
                p.passed(),
                violations.join(", "),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SamplePoint;

    #[test]
    fn report_counts_and_serializes() {
        let mut report = SweepReport::default();
        report.push(PointReport {
            point: SamplePoint::from_seed(0),
            violations: vec![],
        });
        report.push(PointReport {
            point: SamplePoint::from_seed(1),
            violations: vec!["error \"mismatch\"".into()],
        });
        assert_eq!(report.passed(), 1);
        assert_eq!(report.violations(), 1);
        assert!(!report.all_passed());
        let json = report.to_json();
        assert!(json.contains("\"points\": 2"));
        assert!(json.contains("\\\"mismatch\\\""));
        assert!(report.summary().contains("1/2 points passed"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
