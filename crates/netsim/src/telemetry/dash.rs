//! Dependency-free single-file HTML + inline-SVG dashboards.
//!
//! A [`Dashboard`] is a title, a few key/value facts, and a list of
//! panels — line charts over [`timeline`](super::timeline) tracks,
//! horizontal stacked bars (span attribution), and plain key/value
//! tables. A chart line is an owned [`Series`] or a sampled track the
//! dashboard borrows and draws in place, so building one copies no
//! point. [`Dashboard::write_to`] emits one self-contained HTML file
//! (no scripts, no external assets, loadable from disk offline) straight
//! into its sink; [`Dashboard::render`] is that into one sized buffer.
//!
//! The render is a **pure function** of the panel data with fixed
//! decimal formatting everywhere, so a dashboard built from a
//! deterministic run is byte-identical across machines and
//! `REPRO_THREADS` settings — the CI `artifact-determinism` job double-runs
//! `repro <id> --dash` and `cmp`s the output, and a golden-file test
//! pins the exact bytes for a small fixture (`tests/timeline.rs`).

use super::timeline::{BucketView, Timeline};
use crate::stats::rate_gbps;
use std::fmt;
use std::io::{self, Write};

/// One plotted series: a label and `(x, y)` points. `x` is in
/// microseconds of simulation time.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Points as `(t_us, value)`.
    pub points: Vec<(f64, f64)>,
}

/// Where a chart line's points come from.
#[derive(Debug, Clone)]
enum Points<'a> {
    /// A [`Series`]'s `(t_us, value)` pairs.
    Owned(Vec<(f64, f64)>),
    /// A sampled track drawn in place: each non-empty bucket's `y`
    /// against the bucket's latest sample time.
    Track(&'a Timeline, fn(&BucketView) -> f64),
    /// A delivered-bytes track drawn in place as its goodput in Gbps:
    /// [`rate_gbps`] of its series.
    Goodput(&'a Timeline),
}

/// One polyline of a chart: a legend label and its points.
#[derive(Debug, Clone)]
pub(crate) struct Line<'a> {
    label: String,
    points: Points<'a>,
}

impl<'a> Line<'a> {
    /// A line drawn from `track` in place: `y` of each non-empty bucket.
    pub(crate) fn track(label: String, track: &'a Timeline, y: fn(&BucketView) -> f64) -> Self {
        Line {
            label,
            points: Points::Track(track, y),
        }
    }

    /// A line drawn in place as the goodput of a delivered-bytes track.
    pub(crate) fn goodput(label: String, track: &'a Timeline) -> Self {
        Line {
            label,
            points: Points::Goodput(track),
        }
    }

    /// How many points the line has at most; builds nothing.
    fn len(&self) -> usize {
        match &self.points {
            Points::Owned(points) => points.len(),
            Points::Track(track, _) => track.points(),
            Points::Goodput(track) => track.points().saturating_sub(1),
        }
    }

    /// Hands each `(x, y)` point to `f` in order; builds nothing.
    fn each(&self, mut f: impl FnMut(f64, f64) -> io::Result<()>) -> io::Result<()> {
        match &self.points {
            Points::Owned(points) => points.iter().try_for_each(|&(x, y)| f(x, y)),
            Points::Track(track, y) => track
                .buckets()
                .try_for_each(|b| f(b.last.as_micros_f64(), y(&b))),
            Points::Goodput(track) => {
                let bytes = track.buckets().map(|b| (b.last, track.representative(&b)));
                rate_gbps(bytes).try_for_each(|(t, v)| f(t.as_micros_f64(), v))
            }
        }
    }
}

impl From<Series> for Line<'_> {
    fn from(s: Series) -> Self {
        Line {
            label: s.label,
            points: Points::Owned(s.points),
        }
    }
}

/// Panel body variants.
#[derive(Debug, Clone)]
enum Body<'a> {
    /// A line chart: y-axis label plus one polyline per line.
    Chart {
        y_label: String,
        lines: Vec<Line<'a>>,
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
struct Panel<'a> {
    title: String,
    body: Body<'a>,
}

/// A renderable dashboard, borrowing the tracks it draws in place. See
/// the module docs.
#[derive(Debug, Clone, Default)]
pub struct Dashboard<'a> {
    title: String,
    facts: Vec<(String, String)>,
    panels: Vec<Panel<'a>>,
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

/// Bytes one chart needs beyond its series: the `<svg>` head, at most
/// six gridlines with tick labels per axis, both axes and their labels.
const CHART_BYTES: usize = 4096;

/// Bytes one polyline point takes at most: `"746.00,190.00 "` (the plot
/// area spans x ∈ [ML, W − MR], y ∈ [MT, H − MB]).
const POINT_BYTES: usize = 14;

/// A label number: up to 3 decimals, trailing zeros trimmed, `-0` and
/// non-finite values as `0`. Deterministic (no locale, no
/// shortest-round-trip float formatting), formatted on the stack.
struct Num(f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if !v.is_finite() {
            return f.write_str("0");
        }
        let mut buf = [0u8; 64];
        let mut cur = io::Cursor::new(&mut buf[..]);
        if write!(cur, "{v:.3}").is_err() {
            // Past 1e59 every f64 is whole: no decimals to trim.
            return write!(f, "{v:.0}");
        }
        let len = cur.position() as usize;
        let mut s = &buf[..len];
        if s.contains(&b'.') {
            while let [head @ .., b'0'] = s {
                s = head;
            }
            if let [head @ .., b'.'] = s {
                s = head;
            }
        }
        if s == b"-0" {
            s = b"0";
        }
        f.write_str(std::str::from_utf8(s).expect("formatted digits are ASCII"))
    }
}

/// Minimal HTML/attribute escaping for labels and titles.
struct Esc<'a>(&'a str);

impl fmt::Display for Esc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rest = self.0;
        while let Some(i) = rest.find(['&', '<', '>', '"']) {
            f.write_str(&rest[..i])?;
            f.write_str(match rest.as_bytes()[i] {
                b'&' => "&amp;",
                b'<' => "&lt;",
                b'>' => "&gt;",
                _ => "&quot;",
            })?;
            rest = &rest[i + 1..];
        }
        f.write_str(rest)
    }
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

impl<'a> Dashboard<'a> {
    /// A new dashboard with the given page title.
    pub fn new(title: &str) -> Dashboard<'a> {
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
        self.lines(title, y_label, series.into_iter().map(Line::from).collect());
    }

    /// Adds a line-chart panel of owned or borrowed lines, rendered as
    /// [`Dashboard::chart`] renders its series.
    pub(crate) fn lines(&mut self, title: &str, y_label: &str, lines: Vec<Line<'a>>) {
        self.panels.push(Panel {
            title: title.to_string(),
            body: Body::Chart {
                y_label: y_label.to_string(),
                lines,
            },
        });
    }

    /// Adds a 100%-stacked horizontal-bar panel: each row is normalized
    /// to its own total (rows with an all-zero total are skipped).
    pub(crate) fn stacked(
        &mut self,
        title: &str,
        categories: Vec<String>,
        rows: Vec<(String, Vec<f64>)>,
    ) {
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

    /// Renders the complete single-file HTML document into one buffer
    /// reserved up front from the panels' contents (see `size_hint`).
    pub fn render(&self) -> String {
        let mut out = Vec::with_capacity(self.size_hint());
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the renderer writes UTF-8")
    }

    /// An upper bound on the rendered size while labels need no escaping:
    /// the page head, each panel's fixed part, and [`POINT_BYTES`] per
    /// chart point.
    fn size_hint(&self) -> usize {
        let pairs = |rows: &[(String, String)]| -> usize {
            rows.iter().map(|(k, v)| 40 + k.len() + v.len()).sum()
        };
        let mut n = 1024 + 2 * self.title.len() + pairs(&self.facts);
        for panel in &self.panels {
            n += 16 + panel.title.len();
            n += match &panel.body {
                Body::Chart { y_label, lines } => {
                    let lines = lines
                        .iter()
                        .map(|l| 160 + l.label.len() + POINT_BYTES * l.len());
                    CHART_BYTES + y_label.len() + lines.sum::<usize>()
                }
                Body::Stacked { categories, rows } => {
                    let legend = categories.iter().map(|c| 64 + c.len());
                    let bars = rows.iter().map(|(l, vs)| 128 + l.len() + 96 * vs.len());
                    256 + legend.sum::<usize>() + bars.sum::<usize>()
                }
                Body::Table { rows } => 32 + pairs(rows),
            };
        }
        n
    }

    /// Writes the complete single-file HTML document to `sink` — the one
    /// renderer: [`Dashboard::render`] is this into a sized buffer.
    pub fn write_to<S: io::Write + ?Sized>(&self, sink: &mut S) -> io::Result<()> {
        sink.write_all(b"<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")?;
        writeln!(sink, "<title>{}</title>", Esc(&self.title))?;
        sink.write_all(
            b"<style>\n\
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
        )?;
        writeln!(sink, "<h1>{}</h1>", Esc(&self.title))?;
        if !self.facts.is_empty() {
            sink.write_all(b"<p class=\"facts\">")?;
            for (k, v) in &self.facts {
                write!(sink, "<span><b>{}</b>: {}</span>", Esc(k), Esc(v))?;
            }
            sink.write_all(b"</p>\n")?;
        }
        for panel in &self.panels {
            writeln!(sink, "<h2>{}</h2>", Esc(&panel.title))?;
            match &panel.body {
                Body::Chart { y_label, lines } => write_chart(sink, y_label, lines)?,
                Body::Stacked { categories, rows } => write_stacked(sink, categories, rows)?,
                Body::Table { rows } => {
                    sink.write_all(b"<table>\n")?;
                    for (k, v) in rows {
                        writeln!(sink, "<tr><td>{}</td><td>{}</td></tr>", Esc(k), Esc(v))?;
                    }
                    sink.write_all(b"</table>\n")?;
                }
            }
        }
        sink.write_all(b"</body>\n</html>\n")
    }
}

/// One line chart; SVG coordinates carry two fixed decimals (`{:.2}`).
fn write_chart<S: io::Write + ?Sized>(
    out: &mut S,
    y_label: &str,
    lines: &[Line<'_>],
) -> io::Result<()> {
    // Data bounds. x in µs; switch the axis to ms past 100 000 µs.
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (0.0f64, f64::NEG_INFINITY);
    let mut points = 0usize;
    for line in lines {
        line.each(|x, y| {
            points += 1;
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
            Ok(())
        })?;
    }
    if points == 0 {
        return out.write_all(b"<p><i>no data</i></p>\n");
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
    writeln!(
        out,
        "<svg width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\" \
         xmlns=\"http://www.w3.org/2000/svg\">"
    )?;
    // Gridlines + y ticks.
    let ystep = nice_step(y1 - y0);
    let mut ty = (y0 / ystep).ceil() * ystep;
    while ty <= y1 + 1e-9 {
        let y = sy(ty);
        writeln!(
            out,
            "<line x1=\"{ML:.2}\" y1=\"{y:.2}\" x2=\"{:.2}\" y2=\"{y:.2}\" stroke=\"#eef0f3\"/>",
            W - MR
        )?;
        writeln!(
            out,
            "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"11\" fill=\"#555\" \
             text-anchor=\"end\">{}</text>",
            ML - 6.0,
            y + 4.0,
            Num(ty)
        )?;
        ty += ystep;
    }
    // X ticks.
    let xstep = nice_step((x1 - x0) / xdiv) * xdiv;
    let mut tx = (x0 / xstep).ceil() * xstep;
    while tx <= x1 + 1e-9 {
        let x = sx(tx);
        writeln!(
            out,
            "<line x1=\"{x:.2}\" y1=\"{:.2}\" x2=\"{x:.2}\" y2=\"{:.2}\" stroke=\"#d7dade\"/>",
            MT + ph,
            MT + ph + 4.0
        )?;
        writeln!(
            out,
            "<text x=\"{x:.2}\" y=\"{:.2}\" font-size=\"11\" fill=\"#555\" \
             text-anchor=\"middle\">{}</text>",
            MT + ph + 16.0,
            Num(tx / xdiv)
        )?;
        tx += xstep;
    }
    // Axes.
    writeln!(
        out,
        "<line x1=\"{ML:.2}\" y1=\"{MT:.2}\" x2=\"{ML:.2}\" y2=\"{:.2}\" stroke=\"#111\"/>",
        MT + ph
    )?;
    writeln!(
        out,
        "<line x1=\"{ML:.2}\" y1=\"{:.2}\" x2=\"{:.2}\" y2=\"{:.2}\" stroke=\"#111\"/>",
        MT + ph,
        W - MR,
        MT + ph
    )?;
    // Axis labels.
    writeln!(
        out,
        "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"11\" fill=\"#333\" \
         text-anchor=\"middle\">{}</text>",
        ML + pw / 2.0,
        H - 4.0,
        Esc(x_label)
    )?;
    let mid = MT + ph / 2.0;
    writeln!(
        out,
        "<text x=\"12\" y=\"{mid:.2}\" font-size=\"11\" fill=\"#333\" text-anchor=\"middle\" \
         transform=\"rotate(-90 12 {mid:.2})\">{}</text>",
        Esc(y_label)
    )?;
    // Polylines, point by point into the sink.
    for (i, line) in lines.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let mut sep = None;
        line.each(|x, y| {
            if sep.is_none() {
                write!(
                    out,
                    "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" points=\""
                )?;
            }
            write!(out, "{}{:.2},{:.2}", sep.unwrap_or(""), sx(x), sy(y))?;
            sep = Some(" ");
            Ok(())
        })?;
        if sep.is_some() {
            out.write_all(b"\"/>\n")?;
        }
    }
    out.write_all(b"</svg>\n")?;
    // Legend under the chart.
    out.write_all(b"<p class=\"legend\">")?;
    for (i, line) in lines.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        write!(
            out,
            "<span style=\"color:{color}\">\u{25ac} {}</span>",
            Esc(&line.label)
        )?;
    }
    out.write_all(b"</p>\n")
}

/// One 100%-stacked horizontal-bar panel.
fn write_stacked<S: io::Write + ?Sized>(
    out: &mut S,
    categories: &[String],
    rows: &[(String, Vec<f64>)],
) -> io::Result<()> {
    let rows: Vec<&(String, Vec<f64>)> = rows
        .iter()
        .filter(|(_, vs)| vs.iter().sum::<f64>() > 0.0)
        .collect();
    if rows.is_empty() {
        return out.write_all(b"<p><i>no data</i></p>\n");
    }
    let bar_h = 18.0;
    let gap = 8.0;
    let label_w = 110.0;
    let bar_w = 560.0;
    let h = rows.len() as f64 * (bar_h + gap) + gap;
    let w = label_w + bar_w + 20.0;
    writeln!(
        out,
        "<svg width=\"{w:.2}\" height=\"{h:.2}\" viewBox=\"0 0 {w:.2} {h:.2}\" \
         xmlns=\"http://www.w3.org/2000/svg\">"
    )?;
    for (r, (label, vals)) in rows.iter().enumerate() {
        let y = gap + r as f64 * (bar_h + gap);
        let total: f64 = vals.iter().sum();
        writeln!(
            out,
            "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"11\" fill=\"#333\" \
             text-anchor=\"end\">{}</text>",
            label_w - 6.0,
            y + bar_h - 5.0,
            Esc(label)
        )?;
        let mut x = label_w;
        for (c, &v) in vals.iter().enumerate() {
            let frac = v / total;
            let seg = frac * bar_w;
            if seg > 0.0 {
                writeln!(
                    out,
                    "<rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{seg:.2}\" height=\"{bar_h:.2}\" \
                     fill=\"{}\"/>",
                    PALETTE[c % PALETTE.len()]
                )?;
            }
            x += seg;
        }
    }
    out.write_all(b"</svg>\n")?;
    out.write_all(b"<p class=\"legend\">")?;
    for (c, cat) in categories.iter().enumerate() {
        write!(
            out,
            "<span style=\"color:{}\">\u{25a0} {}</span>",
            PALETTE[c % PALETTE.len()],
            Esc(cat)
        )?;
    }
    out.write_all(b"</p>\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dashboard<'static> {
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
        assert_eq!(d.panels.len(), 2);
    }

    #[test]
    fn number_formatting_is_fixed() {
        let fnum = |v: f64| Num(v).to_string();
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(-0.0), "0");
        assert_eq!(fnum(-0.0001), "0");
        assert_eq!(fnum(12.5), "12.5");
        assert_eq!(fnum(1.2345), "1.234");
        assert_eq!(fnum(40.0), "40");
        assert_eq!(fnum(100.0), "100");
        assert_eq!(fnum(-2.05), "-2.05");
        assert_eq!(fnum(f64::NAN), "0");
        assert_eq!(
            fnum(1e300),
            format!("{:.0}", 1e300),
            "past the stack buffer"
        );
        assert_eq!(
            Esc("a<b>&\"c\"").to_string(),
            "a&lt;b&gt;&amp;&quot;c&quot;"
        );
    }

    /// `render` reserves once: the hint bounds the output, and not by
    /// much once points dominate.
    #[test]
    fn size_hint_bounds_the_render() {
        let d = small();
        assert!(d.render().len() <= d.size_hint());
        let mut big = Dashboard::new("big");
        let points = (0..10_000).map(|i| (i as f64, (i % 97) as f64)).collect();
        big.chart(
            "q",
            "B",
            vec![Series {
                label: "s".into(),
                points,
            }],
        );
        let (len, hint) = (big.render().len(), big.size_hint());
        assert!(
            len <= hint && hint < len + len / 4,
            "{len} bytes, {hint} reserved"
        );
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
