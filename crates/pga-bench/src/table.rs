//! Plain-text table rendering for experiment reports.

/// Render rows as an aligned ASCII table. The first row is the header.
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, w) in widths.iter().enumerate() {
            let cell = row.get(i).map(String::as_str).unwrap_or("");
            out.push_str(&format!("{cell:<w$}"));
            if i + 1 < cols {
                out.push_str("  ");
            }
        }
        out.push('\n');
        if ri == 0 {
            for (i, w) in widths.iter().enumerate() {
                out.push_str(&"-".repeat(*w));
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
    }
    out
}

/// A header row for [`render_table`] from `|`-separated column titles.
pub(crate) fn row(titles: &str) -> Vec<String> {
    titles.split('|').map(str::to_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let t = render_table(&[
            vec!["nodes".into(), "throughput".into()],
            vec!["10".into(), "173000".into()],
            vec!["30".into(), "399000".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("nodes"));
        assert!(lines[1].starts_with("-----"));
        // Columns align: "throughput" starts at the same offset everywhere.
        let off = lines[0].find("throughput").unwrap();
        assert_eq!(&lines[2][off..off + 6], "173000");
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert_eq!(render_table(&[]), "");
    }

    #[test]
    fn ragged_rows_are_padded() {
        let t = render_table(&[vec!["a".into(), "b".into(), "c".into()], vec!["1".into()]]);
        assert!(t.lines().count() == 3);
    }
}
