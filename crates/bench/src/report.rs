//! Plain-text table/heat-map rendering for the experiment binaries.

use crate::harness::RunResult;

/// Formats a cell of a runtime table: seconds with adaptive precision,
/// "–" for unsupported, "OT"/"FAIL" for budget overruns.
pub fn cell(r: &RunResult) -> String {
    match r {
        RunResult::Ok(stats) => format_secs(stats.makespan.as_secs_f64()),
        RunResult::Unsupported => "-".to_string(),
        RunResult::Failed(msg) if msg.contains("converge") => "OT".to_string(),
        RunResult::Failed(_) => "FAIL".to_string(),
    }
}

/// Seconds with adaptive precision (paper style: 0.48, 25.15, 1740.0).
pub fn format_secs(s: f64) -> String {
    if s < 0.0005 {
        format!("{:.2}ms", s * 1000.0)
    } else if s < 10.0 {
        format!("{s:.3}")
    } else if s < 100.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.1}")
    }
}

/// Renders a fixed-width table: `headers` then one row per entry of
/// `rows` (label + cells).
pub fn render_table(headers: &[&str], rows: &[(String, Vec<String>)]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for (label, cells) in rows {
        widths[0] = widths[0].max(label.len());
        for (i, c) in cells.iter().enumerate() {
            if i + 1 < cols {
                widths[i + 1] = widths[i + 1].max(c.len());
            }
        }
    }
    let mut out = String::new();
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:>width$} ", c, width = widths[i.min(widths.len() - 1)]))
            .collect::<Vec<_>>()
            .join("|")
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for (label, cells) in rows {
        let mut all = vec![label.clone()];
        all.extend(cells.iter().cloned());
        out.push_str(&fmt_row(&all));
        out.push('\n');
    }
    out
}

/// A heat-map glyph for a slowdown factor relative to the fastest
/// framework (Fig. 1's color scale, rendered as text).
pub fn heat_glyph(slowdown: Option<f64>) -> &'static str {
    match slowdown {
        None => "  ---  ",
        Some(s) if s < 1.05 => " BEST  ",
        Some(s) if s < 2.0 => "  <2x  ",
        Some(s) if s < 5.0 => "  <5x  ",
        Some(s) if s < 20.0 => " <20x  ",
        Some(s) if s < 100.0 => " <100x ",
        Some(_) => " >100x ",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_render_every_outcome() {
        let stats = flash_baselines::EngineStats {
            makespan: std::time::Duration::from_millis(1500),
            ..Default::default()
        };
        assert_eq!(cell(&RunResult::Ok(stats)), "1.500");
        assert_eq!(cell(&RunResult::Unsupported), "-");
        assert_eq!(
            cell(&RunResult::Failed("did not converge within 5".into())),
            "OT"
        );
        assert_eq!(cell(&RunResult::Failed("boom".into())), "FAIL");
    }

    #[test]
    fn seconds_formatting_is_adaptive() {
        assert_eq!(format_secs(0.0001), "0.10ms");
        assert_eq!(format_secs(0.48), "0.480");
        assert_eq!(format_secs(25.154), "25.15");
        assert_eq!(format_secs(1740.04), "1740.0");
    }

    #[test]
    fn table_renders_aligned() {
        let rows = vec![
            ("OR".to_string(), vec!["1.0".to_string(), "2.0".to_string()]),
            ("TW".to_string(), vec!["10.0".to_string(), "-".to_string()]),
        ];
        let t = render_table(&["Data", "A", "B"], &rows);
        assert!(t.contains("Data"));
        assert!(t.lines().count() == 4);
        let widths: Vec<usize> = t.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1] || w[0] == w[1] + 1));
    }

    #[test]
    fn heat_glyphs_cover_scale() {
        assert_eq!(heat_glyph(Some(1.0)), " BEST  ");
        assert_eq!(heat_glyph(Some(3.0)), "  <5x  ");
        assert_eq!(heat_glyph(Some(1000.0)), " >100x ");
        assert_eq!(heat_glyph(None), "  ---  ");
    }
}
