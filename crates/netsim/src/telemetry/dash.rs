//! Dependency-free single-file HTML + inline-SVG dashboards.
//!
//! A [`Dashboard`] is a title, a few key/value facts, and a list of
//! panels — line charts over [`timeline`](super::timeline) tracks,
//! horizontal stacked bars (span attribution), and plain key/value
//! tables. [`Dashboard::render`] emits one self-contained HTML file:
//! no scripts, no external assets, loadable from disk offline.
//!
//! The render is a **pure function** of the panel data with fixed
//! decimal formatting everywhere, so a dashboard built from a
//! deterministic run is byte-identical across machines and
//! `REPRO_THREADS` settings — the CI `artifact-determinism` job double-runs
//! `repro <id> --dash` and `cmp`s the output, and a golden-file test
//! pins the exact bytes for a small fixture (`tests/timeline.rs`).

use std::fmt::Write as _;

/// One plotted series: a label and `(x, y)` points. `x` is in
/// microseconds of simulation time.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Points as `(t_us, value)`.
    pub points: Vec<(f64, f64)>,
}

/// Panel body variants.
#[derive(Debug, Clone)]
enum Body {
    /// A line chart: y-axis label plus one polyline per series.
    Chart {
        y_label: String,
        series: Vec<Series>,
    },
    /// Horizontal 100%-stacked bars: one row per entity, one colored
    /// segment per category.
    Stacked {
        categories: Vec<String>,
        rows: Vec<(String, Vec<f64>)>,
    },
    /// A key/value table.
    Table { rows: Vec<(String, String)> },
}

/// One titled panel of a [`Dashboard`].
#[derive(Debug, Clone)]
struct Panel {
    title: String,
    body: Body,
}

/// A renderable dashboard. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Dashboard {
    title: String,
    facts: Vec<(String, String)>,
    panels: Vec<Panel>,
}

/// Line/segment color palette (cycled when a panel has more series).
const PALETTE: [&str; 8] = [
    "#2563eb", "#dc2626", "#16a34a", "#9333ea", "#ea580c", "#0891b2", "#ca8a04", "#64748b",
];

/// Chart geometry: total size and margins around the plot area.
const W: f64 = 760.0;
const H: f64 = 220.0;
const ML: f64 = 66.0;
const MR: f64 = 14.0;
const MT: f64 = 12.0;
const MB: f64 = 30.0;

/// Fixed-decimal number for labels: up to 3 decimals, trailing zeros
/// trimmed. Deterministic (no locale, no shortest-round-trip float
/// formatting).
fn fnum(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let mut s = format!("{v:.3}");
    while s.contains('.') && (s.ends_with('0') || s.ends_with('.')) {
        s.pop();
    }
    if s == "-0" {
        s = "0".to_string();
    }
    s
}

/// SVG coordinate: two fixed decimals.
fn coord(v: f64) -> String {
    format!("{v:.2}")
}

/// Minimal HTML/attribute escaping for labels and titles.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// A "nice" tick step for a range: 1/2/5 × 10^k covering `range / 5`.
fn nice_step(range: f64) -> f64 {
    if range <= 0.0 || !range.is_finite() {
        return 1.0;
    }
    let raw = range / 5.0;
    let mag = 10f64.powf(raw.log10().floor());
    let norm = raw / mag;
    let factor = if norm <= 1.0 {
        1.0
    } else if norm <= 2.0 {
        2.0
    } else if norm <= 5.0 {
        5.0
    } else {
        10.0
    };
    factor * mag
}

impl Dashboard {
    /// A new dashboard with the given page title.
    pub fn new(title: &str) -> Dashboard {
        Dashboard {
            title: title.to_string(),
            ..Dashboard::default()
        }
    }

    /// Adds a key/value fact shown under the page title.
    pub fn fact(&mut self, key: &str, value: &str) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Adds a line-chart panel. Series render in the given order with
    /// the fixed palette.
    pub fn chart(&mut self, title: &str, y_label: &str, series: Vec<Series>) {
        self.panels.push(Panel {
            title: title.to_string(),
            body: Body::Chart {
                y_label: y_label.to_string(),
                series,
            },
        });
    }

    /// Adds a 100%-stacked horizontal-bar panel: each row is normalized
    /// to its own total (rows with an all-zero total are skipped).
    pub fn stacked(&mut self, title: &str, categories: Vec<String>, rows: Vec<(String, Vec<f64>)>) {
        self.panels.push(Panel {
            title: title.to_string(),
            body: Body::Stacked { categories, rows },
        });
    }

    /// Adds a key/value table panel.
    pub fn table(&mut self, title: &str, rows: Vec<(String, String)>) {
        self.panels.push(Panel {
            title: title.to_string(),
            body: Body::Table { rows },
        });
    }

    /// Number of panels added so far.
    pub fn panel_count(&self) -> usize {
        self.panels.len()
    }

    /// Renders the complete single-file HTML document.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
        let _ = writeln!(out, "<title>{}</title>", esc(&self.title));
        out.push_str(
            "<style>\n\
             body{font:14px/1.45 system-ui,sans-serif;margin:24px;color:#111;background:#fff}\n\
             h1{font-size:20px;margin:0 0 4px}\n\
             h2{font-size:15px;margin:18px 0 6px}\n\
             .facts{color:#555;margin:0 0 12px}\n\
             .facts span{margin-right:18px}\n\
             svg{border:1px solid #e5e7eb;background:#fcfcfd}\n\
             table{border-collapse:collapse}\n\
             td{border:1px solid #e5e7eb;padding:3px 10px}\n\
             .legend span{margin-right:14px;font-size:12px}\n\
             </style>\n</head>\n<body>\n",
        );
        let _ = writeln!(out, "<h1>{}</h1>", esc(&self.title));
        if !self.facts.is_empty() {
            out.push_str("<p class=\"facts\">");
            for (k, v) in &self.facts {
                let _ = write!(out, "<span><b>{}</b>: {}</span>", esc(k), esc(v));
            }
            out.push_str("</p>\n");
        }
        for panel in &self.panels {
            let _ = writeln!(out, "<h2>{}</h2>", esc(&panel.title));
            match &panel.body {
                Body::Chart { y_label, series } => self.render_chart(&mut out, y_label, series),
                Body::Stacked { categories, rows } => {
                    self.render_stacked(&mut out, categories, rows)
                }
                Body::Table { rows } => {
                    out.push_str("<table>\n");
                    for (k, v) in rows {
                        let _ = writeln!(out, "<tr><td>{}</td><td>{}</td></tr>", esc(k), esc(v));
                    }
                    out.push_str("</table>\n");
                }
            }
        }
        out.push_str("</body>\n</html>\n");
        out
    }

    fn render_chart(&self, out: &mut String, y_label: &str, series: &[Series]) {
        let points: usize = series.iter().map(|s| s.points.len()).sum();
        if points == 0 {
            out.push_str("<p><i>no data</i></p>\n");
            return;
        }
        // Data bounds. x in µs; switch the axis to ms past 100 000 µs.
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (0.0f64, f64::NEG_INFINITY);
        for s in series {
            for &(x, y) in &s.points {
                x0 = x0.min(x);
                x1 = x1.max(x);
                y0 = y0.min(y);
                y1 = y1.max(y);
            }
        }
        // `<=` also catches the NaN/empty case (both bounds infinite).
        if x1 <= x0 {
            x1 = x0 + 1.0;
        }
        if y1 <= y0 {
            y1 = y0 + 1.0;
        }
        let ms_axis = x1 >= 100_000.0;
        let (xdiv, x_label) = if ms_axis {
            (1000.0, "t (ms)")
        } else {
            (1.0, "t (\u{b5}s)")
        };
        let pw = W - ML - MR;
        let ph = H - MT - MB;
        let sx = |x: f64| ML + (x - x0) / (x1 - x0) * pw;
        let sy = |y: f64| MT + ph - (y - y0) / (y1 - y0) * ph;
        let _ = writeln!(
            out,
            "<svg width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\" \
             xmlns=\"http://www.w3.org/2000/svg\">"
        );
        // Gridlines + y ticks.
        let ystep = nice_step(y1 - y0);
        let mut ty = (y0 / ystep).ceil() * ystep;
        while ty <= y1 + 1e-9 {
            let y = sy(ty);
            let _ = writeln!(
                out,
                "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#eef0f3\"/>",
                coord(ML),
                coord(y),
                coord(W - MR),
                coord(y)
            );
            let _ = writeln!(
                out,
                "<text x=\"{}\" y=\"{}\" font-size=\"11\" fill=\"#555\" \
                 text-anchor=\"end\">{}</text>",
                coord(ML - 6.0),
                coord(y + 4.0),
                fnum(ty)
            );
            ty += ystep;
        }
        // X ticks.
        let xstep = nice_step((x1 - x0) / xdiv) * xdiv;
        let mut tx = (x0 / xstep).ceil() * xstep;
        while tx <= x1 + 1e-9 {
            let x = sx(tx);
            let _ = writeln!(
                out,
                "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#d7dade\"/>",
                coord(x),
                coord(MT + ph),
                coord(x),
                coord(MT + ph + 4.0)
            );
            let _ = writeln!(
                out,
                "<text x=\"{}\" y=\"{}\" font-size=\"11\" fill=\"#555\" \
                 text-anchor=\"middle\">{}</text>",
                coord(x),
                coord(MT + ph + 16.0),
                fnum(tx / xdiv)
            );
            tx += xstep;
        }
        // Axes.
        let _ = writeln!(
            out,
            "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#111\"/>",
            coord(ML),
            coord(MT),
            coord(ML),
            coord(MT + ph)
        );
        let _ = writeln!(
            out,
            "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#111\"/>",
            coord(ML),
            coord(MT + ph),
            coord(W - MR),
            coord(MT + ph)
        );
        // Axis labels.
        let _ = writeln!(
            out,
            "<text x=\"{}\" y=\"{}\" font-size=\"11\" fill=\"#333\" \
             text-anchor=\"middle\">{}</text>",
            coord(ML + pw / 2.0),
            coord(H - 4.0),
            esc(x_label)
        );
        let _ = writeln!(
            out,
            "<text x=\"12\" y=\"{}\" font-size=\"11\" fill=\"#333\" text-anchor=\"middle\" \
             transform=\"rotate(-90 12 {})\">{}</text>",
            coord(MT + ph / 2.0),
            coord(MT + ph / 2.0),
            esc(y_label)
        );
        // Polylines.
        for (i, s) in series.iter().enumerate() {
            if s.points.is_empty() {
                continue;
            }
            let color = PALETTE[i % PALETTE.len()];
            let mut pts = String::new();
            for &(x, y) in &s.points {
                let _ = write!(pts, "{},{} ", coord(sx(x)), coord(sy(y)));
            }
            let _ = writeln!(
                out,
                "<polyline fill=\"none\" stroke=\"{}\" stroke-width=\"1.5\" points=\"{}\"/>",
                color,
                pts.trim_end()
            );
        }
        out.push_str("</svg>\n");
        // Legend under the chart.
        out.push_str("<p class=\"legend\">");
        for (i, s) in series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            let _ = write!(
                out,
                "<span style=\"color:{}\">\u{25ac} {}</span>",
                color,
                esc(&s.label)
            );
        }
        out.push_str("</p>\n");
    }

    fn render_stacked(&self, out: &mut String, categories: &[String], rows: &[(String, Vec<f64>)]) {
        let rows: Vec<&(String, Vec<f64>)> = rows
            .iter()
            .filter(|(_, vs)| vs.iter().sum::<f64>() > 0.0)
            .collect();
        if rows.is_empty() {
            out.push_str("<p><i>no data</i></p>\n");
            return;
        }
        let bar_h = 18.0;
        let gap = 8.0;
        let label_w = 110.0;
        let bar_w = 560.0;
        let h = rows.len() as f64 * (bar_h + gap) + gap;
        let w = label_w + bar_w + 20.0;
        let _ = writeln!(
            out,
            "<svg width=\"{}\" height=\"{}\" viewBox=\"0 0 {} {}\" \
             xmlns=\"http://www.w3.org/2000/svg\">",
            coord(w),
            coord(h),
            coord(w),
            coord(h)
        );
        for (r, (label, vals)) in rows.iter().enumerate() {
            let y = gap + r as f64 * (bar_h + gap);
            let total: f64 = vals.iter().sum();
            let _ = writeln!(
                out,
                "<text x=\"{}\" y=\"{}\" font-size=\"11\" fill=\"#333\" \
                 text-anchor=\"end\">{}</text>",
                coord(label_w - 6.0),
                coord(y + bar_h - 5.0),
                esc(label)
            );
            let mut x = label_w;
            for (c, &v) in vals.iter().enumerate() {
                let frac = v / total;
                let seg = frac * bar_w;
                if seg > 0.0 {
                    let _ = writeln!(
                        out,
                        "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"{}\"/>",
                        coord(x),
                        coord(y),
                        coord(seg),
                        coord(bar_h),
                        PALETTE[c % PALETTE.len()]
                    );
                }
                x += seg;
            }
        }
        out.push_str("</svg>\n");
        out.push_str("<p class=\"legend\">");
        for (c, cat) in categories.iter().enumerate() {
            let _ = write!(
                out,
                "<span style=\"color:{}\">\u{25a0} {}</span>",
                PALETTE[c % PALETTE.len()],
                esc(cat)
            );
        }
        out.push_str("</p>\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dashboard {
        let mut d = Dashboard::new("test <run>");
        d.fact("seed", "42");
        d.chart(
            "queue depth",
            "KB",
            vec![Series {
                label: "sw0:p2 & peers".into(),
                points: vec![(0.0, 0.0), (50.0, 12.5), (100.0, 7.25)],
            }],
        );
        d.stacked(
            "attribution",
            vec!["send".into(), "pause".into()],
            vec![
                ("flow 0".into(), vec![3.0, 1.0]),
                ("zero".into(), vec![0.0, 0.0]),
            ],
        );
        d.table("totals", vec![("pause_tx".into(), "7".into())]);
        d
    }

    #[test]
    fn render_is_deterministic_and_escaped() {
        let a = small().render();
        let b = small().render();
        assert_eq!(a, b);
        assert!(a.contains("test &lt;run&gt;"), "title is escaped");
        assert!(a.contains("sw0:p2 &amp; peers"), "labels are escaped");
        assert!(a.starts_with("<!DOCTYPE html>"));
        assert!(a.ends_with("</html>\n"));
        assert!(!a.contains("<script"), "no scripts: single static file");
    }

    #[test]
    fn empty_panels_render_placeholders() {
        let mut d = Dashboard::new("empty");
        d.chart("nothing", "y", vec![]);
        d.stacked("zeros", vec!["a".into()], vec![("r".into(), vec![0.0])]);
        let html = d.render();
        assert_eq!(html.matches("<i>no data</i>").count(), 2);
        assert_eq!(d.panel_count(), 2);
    }

    #[test]
    fn number_formatting_is_fixed() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(-0.0), "0");
        assert_eq!(fnum(12.5), "12.5");
        assert_eq!(fnum(1.2345), "1.234");
        assert_eq!(fnum(40.0), "40");
        assert_eq!(fnum(f64::NAN), "0");
        assert_eq!(coord(8.12543), "8.13");
    }

    #[test]
    fn nice_steps_cover_common_ranges() {
        assert_eq!(nice_step(10.0), 2.0);
        assert_eq!(nice_step(50.0), 10.0);
        assert_eq!(nice_step(7.0), 2.0);
        assert_eq!(nice_step(0.4), 0.1);
        assert_eq!(nice_step(0.0), 1.0);
    }

    #[test]
    fn millisecond_axis_kicks_in_for_long_runs() {
        let mut d = Dashboard::new("long");
        d.chart(
            "q",
            "B",
            vec![Series {
                label: "s".into(),
                points: vec![(0.0, 1.0), (400_000.0, 2.0)],
            }],
        );
        assert!(d.render().contains("t (ms)"));
    }
}
