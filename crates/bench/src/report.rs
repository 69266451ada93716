//! Markdown table / series printing for experiment output, and the
//! paired statistics the self-asserting benches gate on.
//!
//! # Paired measurement
//!
//! `cache-scale`, `varkey-scale` and `leaf-scale` each compare two
//! variants of one tree and judge the comparison on the **full
//! distribution of paired ratios**, never a single round. Within each
//! round the two variants run back-to-back at the same thread count:
//! adjacent-in-time pairing cancels the machine-level drift (CPU steal,
//! thermal, background load) that makes absolute peaks from different
//! minutes incomparable. The in-pair order alternates round to round, so
//! monotone drift across the pair boundary favours each variant equally
//! often instead of always inflating whichever side ran second. Every
//! pair's ratio is recorded, and a point is judged by a one-sided
//! `sign_test_p` on its `wins` plus an effect-size floor on its
//! `median` ratio: one lucky round cannot carry a regressed point, and
//! a coin-flip win rate cannot flake an equivalent one. Points that have
//! not yet met their criterion get up to `RESCUE_ROUNDS` extra pairs
//! before judgement.

/// A simple markdown table builder.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats ops/sec with a thousands-aware unit.
pub fn fmt_tput(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e6 {
        format!("{:.2} Mops/s", ops_per_sec / 1e6)
    } else if ops_per_sec >= 1e3 {
        format!("{:.1} Kops/s", ops_per_sec / 1e3)
    } else {
        format!("{ops_per_sec:.0} ops/s")
    }
}

/// Formats nanoseconds human-readably.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Extra paired re-measurements granted to a point that has not yet met
/// its criterion before it is judged. Only the trailing points re-run, so
/// these are cheap; they also grow the sample the sign test judges, so a
/// real regression rejects harder, not softer.
pub(crate) const RESCUE_ROUNDS: usize = 16;

/// Median of a sample (0 when empty; average of the middle two for even
/// counts).
pub(crate) fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One-sided sign test: `P(X <= wins)` for `X ~ Binomial(n, 1/2)` — the
/// probability of seeing this few wins if the two variants were truly
/// equivalent. Small means "detectably worse".
pub(crate) fn sign_test_p(wins: usize, n: usize) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let mut coeff = 1.0f64; // C(n, k), built incrementally
    let mut tail = 0.0f64;
    for k in 0..=wins.min(n) {
        tail += coeff;
        coeff = coeff * (n - k) as f64 / (k + 1) as f64;
    }
    tail / 2.0f64.powi(n as i32)
}

/// Wins of the ratio's numerator variant: pairs with ratio ≥ 1.
pub(crate) fn wins(xs: &[f64]) -> usize {
    xs.iter().filter(|&&r| r >= 1.0).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(&["tree", "ops"]);
        t.row(vec!["RNTree".into(), "123".into()]);
        t.row(vec!["x".into(), "4".into()]);
        let r = t.render();
        assert!(r.contains("| tree   | ops |"));
        assert!(r.contains("| RNTree | 123 |"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    fn formatting_units() {
        assert_eq!(fmt_tput(2_500_000.0), "2.50 Mops/s");
        assert_eq!(fmt_tput(2_500.0), "2.5 Kops/s");
        assert_eq!(fmt_tput(25.0), "25 ops/s");
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(2_500), "2.50 µs");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
    }

    #[test]
    fn sign_test_matches_binomial_tail() {
        // P(X <= 0 | n=5) = 1/32; a zero-win point must reject at 5%.
        assert!((sign_test_p(0, 5) - 1.0 / 32.0).abs() < 1e-12);
        assert!(sign_test_p(0, 5) < 0.05);
        // One lucky pair out of 21 must still reject hard.
        assert!(sign_test_p(1, 21) < 1e-4);
        // A fair coin-flip outcome must never reject.
        assert!(sign_test_p(10, 21) > 0.4);
        assert!((sign_test_p(21, 21) - 1.0).abs() < 1e-12);
        // Median: empty, odd, even.
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[2.0, 1.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
