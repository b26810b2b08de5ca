//! A minimal fixed-width table printer for experiment output.

/// A simple text table with a header row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are stringified by the caller).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table as a string.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Placeholder rendered for undefined values (for example the savings of a
/// zero-job campaign, which [`waterwise_cluster::saving_percent`] reports as
/// NaN).
pub const PLACEHOLDER: &str = "—";

/// Format a float with two decimals (most table cells). Non-finite values
/// render as [`PLACEHOLDER`] instead of leaking `NaN`/`inf` into tables.
pub fn fmt2(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.2}")
    } else {
        PLACEHOLDER.to_string()
    }
}

/// Format a percentage with one decimal; non-finite values render as
/// [`PLACEHOLDER`].
pub fn pct(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.1}%")
    } else {
        PLACEHOLDER.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_all_cells_and_aligns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["zurich".into(), "1.25".into()]);
        t.row(&["mumbai".into(), "700".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("zurich"));
        assert!(s.contains("700"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt2(1.234), "1.23");
        assert_eq!(pct(21.456), "21.5%");
    }

    #[test]
    fn undefined_values_render_as_placeholder() {
        // A zero-job campaign reports NaN savings; tables must show a
        // placeholder rather than "NaN%".
        assert_eq!(pct(f64::NAN), PLACEHOLDER);
        assert_eq!(pct(f64::INFINITY), PLACEHOLDER);
        assert_eq!(fmt2(f64::NAN), PLACEHOLDER);
        assert_eq!(fmt2(f64::NEG_INFINITY), PLACEHOLDER);
        assert!(
            waterwise_cluster::saving_percent(0.0, 5.0).is_nan(),
            "zero baselines feed the placeholder path"
        );
    }
}
