//! The report's data model and its renderings: numeric tables and series
//! with pinned tolerance bands, rendered as Markdown (for
//! `REPRODUCTION.md` and `--section`) and unicode sparklines.

/// How far a regenerated value may drift from its pinned snapshot before
/// `--check` flags it.
///
/// The simulator is deterministic, so on unchanged code a regenerated
/// number is *identical* to its snapshot; the band expresses how much a
/// future code change may legitimately move the number before the session
/// that moved it must regenerate (and thereby consciously re-pin) the
/// snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tolerance {
    /// Relative band: `|fresh - pinned| <= frac * max(|pinned|, 1.0)`.
    /// The `1.0` floor keeps the band meaningful near zero — a pinned `0`
    /// admits only `±frac`, so "this must stay zero" rows (TMR SDC, HTM
    /// commits under TMR) are strict without a separate mechanism.
    Rel(f64),
    /// Absolute band: `|fresh - pinned| <= delta`. Used for percentages,
    /// where a relative band would be uselessly loose near 100 and
    /// uselessly strict near 0.
    Abs(f64),
    /// Informational, never checked: the values are host-dependent
    /// measurements (native-mode wall-clock throughput) that no band
    /// could meaningfully pin. `--check` always passes these cells, and
    /// the Markdown rendering shows the table *structure* but replaces
    /// every value with `·` so `REPRODUCTION.md` stays byte-stable
    /// across hosts — the real numbers live in the JSON snapshot.
    Info,
}

impl Tolerance {
    /// True when `fresh` is inside the band around `pinned`.
    pub fn allows(&self, pinned: f64, fresh: f64) -> bool {
        let delta = (fresh - pinned).abs();
        match *self {
            Tolerance::Rel(frac) => delta <= frac * pinned.abs().max(1.0),
            Tolerance::Abs(abs) => delta <= abs,
            Tolerance::Info => true,
        }
    }

    /// True when the values are informational only — unchecked by
    /// `--check` and elided from the Markdown rendering.
    pub fn is_info(&self) -> bool {
        matches!(self, Tolerance::Info)
    }

    /// Short human description, e.g. `±15% rel`, `±0.1% rel` or `±5 abs`.
    pub fn describe(&self) -> String {
        match *self {
            Tolerance::Rel(frac) => format!("±{}% rel", (frac * 1e4).round() / 100.0),
            Tolerance::Abs(abs) => format!("±{abs} abs"),
            Tolerance::Info => "informational, not pinned".to_string(),
        }
    }
}

/// One labelled row of numbers.
#[derive(Clone, Debug, PartialEq)]
pub struct TableRow {
    pub label: String,
    pub values: Vec<f64>,
}

/// A numeric table: one row-label column plus `columns.len() - 1` value
/// columns. `columns[0]` titles the label column.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Stable identifier used to match this table against its snapshot.
    pub id: String,
    /// Human heading.
    pub title: String,
    /// Column headers; the first names the row-label column.
    pub columns: Vec<String>,
    pub rows: Vec<TableRow>,
    /// Decimal places in rendered cells (snapshots keep full precision).
    pub precision: usize,
    /// The pinned drift band every cell is checked against.
    pub tolerance: Tolerance,
}

impl Table {
    /// An empty table with 2-decimal cells and a ±15% relative band.
    pub fn new(id: &str, title: &str, columns: &[impl AsRef<str>]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.as_ref().to_string()).collect(),
            rows: Vec::new(),
            precision: 2,
            tolerance: Tolerance::Rel(0.15),
        }
    }

    /// Builder: sets the rendered decimal places.
    pub fn precision(mut self, p: usize) -> Self {
        self.precision = p;
        self
    }

    /// Builder: sets the tolerance band.
    pub fn tolerance(mut self, t: Tolerance) -> Self {
        self.tolerance = t;
        self
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the value columns or any
    /// value is non-finite (snapshots cannot represent NaN/inf, and a
    /// non-finite measurement is a bug upstream).
    pub fn push_row(&mut self, label: &str, values: Vec<f64>) {
        assert_eq!(values.len() + 1, self.columns.len(), "{}/{label}: column count", self.id);
        assert!(values.iter().all(|v| v.is_finite()), "{}/{label}: non-finite value", self.id);
        self.rows.push(TableRow { label: label.to_string(), values });
    }

    /// GitHub-flavored Markdown rendering, value columns right-aligned.
    /// Literal `|` in labels and headers is escaped, not a cell break.
    pub fn to_markdown(&self) -> String {
        let esc = |s: &str| s.replace('|', "\\|");
        let mut s = format!("**{}** (band {})\n\n", self.title, self.tolerance.describe());
        let headers: Vec<String> = self.columns.iter().map(|c| esc(c)).collect();
        s.push_str(&format!("| {} |\n", headers.join(" | ")));
        s.push_str("|---|");
        s.push_str(&"---:|".repeat(self.columns.len() - 1));
        s.push('\n');
        for row in &self.rows {
            // Info tables render their structure but not their values:
            // the numbers are host-dependent, and a committed
            // REPRODUCTION.md must not change between hosts.
            let cells: Vec<String> = if self.tolerance.is_info() {
                row.values.iter().map(|_| "·".to_string()).collect()
            } else {
                row.values.iter().map(|v| format!("{v:.*}", self.precision)).collect()
            };
            s.push_str(&format!("| {} | {} |\n", esc(&row.label), cells.join(" | ")));
        }
        s
    }
}

/// A labelled 1-D series (x label, y value), rendered as a sparkline.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Stable identifier used to match this series against its snapshot.
    pub id: String,
    pub title: String,
    pub points: Vec<(String, f64)>,
    pub tolerance: Tolerance,
}

impl Series {
    /// An empty series with a ±15% relative band.
    pub fn new(id: &str, title: &str) -> Self {
        Series {
            id: id.to_string(),
            title: title.to_string(),
            points: Vec::new(),
            tolerance: Tolerance::Rel(0.15),
        }
    }

    /// Builder: sets the tolerance band.
    pub fn tolerance(mut self, t: Tolerance) -> Self {
        self.tolerance = t;
        self
    }

    /// Appends one point.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value (see [`Table::push_row`]).
    pub fn push(&mut self, label: &str, value: f64) {
        assert!(value.is_finite(), "{}/{label}: non-finite value", self.id);
        self.points.push((label.to_string(), value));
    }

    /// Markdown rendering: the sparkline plus the labelled points, in an
    /// indented code block.
    pub fn to_markdown(&self) -> String {
        let values: Vec<f64> = self.points.iter().map(|(_, v)| *v).collect();
        let (lo, hi) = min_max(&values);
        let pts: Vec<String> = self.points.iter().map(|(l, v)| format!("{l}: {v:.2}")).collect();
        format!(
            "**{}** (band {})\n\n    {}   min {:.2} · max {:.2}\n    {}\n",
            self.title,
            self.tolerance.describe(),
            sparkline(&values),
            lo,
            hi,
            pts.join("  ")
        )
    }
}

/// Unicode block sparkline, min-to-max normalized. A flat (or singleton)
/// series renders at mid height.
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let (lo, hi) = min_max(values);
    let span = hi - lo;
    values
        .iter()
        .map(|v| {
            if span <= 0.0 {
                BLOCKS[3]
            } else {
                let idx = ((v - lo) / span * 7.0).round() as usize;
                BLOCKS[idx.min(7)]
            }
        })
        .collect()
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_bands() {
        assert!(Tolerance::Rel(0.15).allows(2.0, 2.2));
        assert!(!Tolerance::Rel(0.15).allows(2.0, 2.4));
        // The 1.0 floor: a pinned zero admits only ±frac.
        assert!(Tolerance::Rel(0.15).allows(0.0, 0.1));
        assert!(!Tolerance::Rel(0.15).allows(0.0, 0.2));
        assert!(Tolerance::Abs(5.0).allows(97.0, 100.0));
        assert!(!Tolerance::Abs(5.0).allows(97.0, 91.0));
        assert_eq!(Tolerance::Rel(0.15).describe(), "±15% rel");
        assert_eq!(Tolerance::Rel(0.001).describe(), "±0.1% rel");
        assert_eq!(Tolerance::Abs(5.0).describe(), "±5 abs");
        // Info allows anything — it is not a band at all.
        assert!(Tolerance::Info.allows(0.0, 1e12));
        assert!(Tolerance::Info.is_info());
        assert_eq!(Tolerance::Info.describe(), "informational, not pinned");
    }

    #[test]
    fn info_tables_render_structure_without_values() {
        let mut t = Table::new("t", "Wall clock", &["backend", "req/s"]).tolerance(Tolerance::Info);
        t.push_row("HAFT", vec![123_456.78]);
        let md = t.to_markdown();
        assert!(md.contains("**Wall clock** (band informational, not pinned)"));
        assert!(md.contains("| HAFT | · |"), "values elided from markdown: {md}");
        assert!(!md.contains("123"), "host-dependent value leaked into markdown: {md}");
    }

    #[test]
    fn markdown_table_shape() {
        let mut t = Table::new("t", "Overheads", &["workload", "HAFT", "TMR"]).precision(2);
        t.push_row("histogram", vec![1.91, 2.25]);
        let md = t.to_markdown();
        assert!(md.contains("**Overheads** (band ±15% rel)"));
        assert!(md.contains("| workload | HAFT | TMR |"));
        assert!(md.contains("|---|---:|---:|"));
        assert!(md.contains("| histogram | 1.91 | 2.25 |"));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn row_arity_is_checked() {
        let mut t = Table::new("t", "T", &["w", "a", "b"]);
        t.push_row("x", vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_values_are_rejected() {
        let mut t = Table::new("t", "T", &["w", "a"]);
        t.push_row("x", vec![f64::NAN]);
    }

    #[test]
    fn sparkline_normalizes() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0]), "▄▄");
        let s = sparkline(&[0.0, 1.0, 2.0, 7.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }

    #[test]
    fn series_markdown_lists_points() {
        let mut s = Series::new("s", "p99 vs load").tolerance(Tolerance::Rel(0.25));
        s.push("30%", 6.0);
        s.push("120%", 18.5);
        let md = s.to_markdown();
        assert!(md.contains("p99 vs load"));
        assert!(md.contains("30%: 6.00"));
        assert!(md.contains("max 18.50"));
    }
}
