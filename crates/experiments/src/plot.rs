//! Terminal ASCII charts, so `sw-exp run fig3` shows the curve shapes
//! without any plotting dependency.

/// One chart series: marker character, legend name, and `(x, y)` points.
pub type Series<'a> = (char, &'a str, &'a [(f64, f64)]);

/// Renders named series into a fixed-size ASCII chart. Each series is
/// drawn with its own marker character; overlapping cells keep the
/// earlier series' marker.
pub fn ascii_chart(title: &str, series: &[Series<'_>], width: usize, height: usize) -> String {
    assert!(width >= 10 && height >= 5, "chart too small to be useful");
    let mut min_x = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for (_, _, pts) in series {
        for &(x, y) in *pts {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            max_y = max_y.max(y);
        }
    }
    if !min_x.is_finite() || max_x <= min_x {
        return format!("{title}\n(no data)\n");
    }
    let max_y = if max_y <= 0.0 { 1.0 } else { max_y * 1.05 };

    let mut grid = vec![vec![' '; width]; height];
    for (marker, _, pts) in series {
        for &(x, y) in *pts {
            let cx = ((x - min_x) / (max_x - min_x) * (width - 1) as f64).round() as usize;
            let cy = (y.max(0.0) / max_y * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            let col = cx.min(width - 1);
            if grid[row][col] == ' ' {
                grid[row][col] = *marker;
            }
        }
    }

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (i, row) in grid.iter().enumerate() {
        let y_val = max_y * (height - 1 - i) as f64 / (height - 1) as f64;
        out.push_str(&format!("{y_val:7.3} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "        +{}\n         {:<10.4}{:>width$.4}\n",
        "-".repeat(width),
        min_x,
        max_x,
        width = width - 10
    ));
    let legend: Vec<String> = series
        .iter()
        .map(|(m, name, _)| format!("{m} = {name}"))
        .collect();
    out.push_str(&format!("         {}\n", legend.join("   ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_renders_series_and_legend() {
        let a: Vec<(f64, f64)> = (0..=10).map(|i| (i as f64 / 10.0, i as f64 / 10.0)).collect();
        let b: Vec<(f64, f64)> = (0..=10)
            .map(|i| (i as f64 / 10.0, 1.0 - i as f64 / 10.0))
            .collect();
        let chart = ascii_chart(
            "test",
            &[('A', "up", &a), ('B', "down", &b)],
            40,
            10,
        );
        assert!(chart.contains('A'));
        assert!(chart.contains('B'));
        assert!(chart.contains("A = up"));
        assert!(chart.starts_with("test\n"));
    }

    #[test]
    fn empty_series_is_handled() {
        let chart = ascii_chart("empty", &[('X', "none", &[])], 40, 10);
        assert!(chart.contains("no data"));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_chart_rejected() {
        let _ = ascii_chart("t", &[], 2, 2);
    }
}
