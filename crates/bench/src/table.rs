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

    /// The table's title.
    pub(crate) fn title(&self) -> &str {
        &self.title
    }

    /// Whether a column is headed `name`.
    pub(crate) fn has_column(&self, name: &str) -> bool {
        self.header.iter().any(|h| h == name)
    }

    /// The data rows, each readable by column header.
    pub(crate) fn records(&self) -> impl Iterator<Item = Record<'_>> {
        self.rows.iter().map(|cells| Record {
            header: &self.header,
            cells,
        })
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

/// One data row of a [`Table`], read back by column header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record<'t> {
    header: &'t [String],
    cells: &'t [String],
}

impl<'t> Record<'t> {
    /// The printed cell under `column`.
    ///
    /// # Panics
    ///
    /// If the table has no column headed `column`: a claim that names a
    /// column its figure does not print is a bug in the claim.
    pub(crate) fn cell(&self, column: &str) -> &'t str {
        let index = self
            .header
            .iter()
            .position(|h| h == column)
            .unwrap_or_else(|| panic!("no column {column:?} in {:?}", self.header));
        self.cells.get(index).map_or("", String::as_str)
    }

    /// The row's printed cells, in column order.
    pub(crate) fn cells(&self) -> &'t [String] {
        self.cells
    }

    /// The number printed under `column`: `17.0%` reads 17.0, `1.068x`
    /// reads 1.068, and [`PLACEHOLDER`] or any other text reads NaN, which
    /// no ordering holds for.
    pub(crate) fn value(&self, column: &str) -> f64 {
        let cell = self.cell(column);
        cell.trim_end_matches(['%', 'x'])
            .parse()
            .unwrap_or(f64::NAN)
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
    }

    #[test]
    fn records_read_cells_and_printed_numbers_back() {
        let mut t = Table::new("demo", &["scheduler", "saving", "stretch"]);
        t.row(&["waterwise".into(), pct(21.456), "1.068x".into()]);
        t.row(&["oracle".into(), pct(f64::NAN), "2.582e-7%".into()]);
        let records: Vec<Record> = t.records().collect();
        assert_eq!(records[0].cell("scheduler"), "waterwise");
        assert_eq!(records[0].value("saving"), 21.5);
        assert_eq!(records[0].value("stretch"), 1.068);
        assert!(records[1].value("saving").is_nan());
        assert_eq!(records[1].value("stretch"), 2.582e-7);
        assert_eq!(t.title(), "demo");
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
