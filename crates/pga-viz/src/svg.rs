//! Minimal SVG writer.
//!
//! Elements are written straight into the caller's buffer as they are
//! built, with correct escaping — no external crates, no DOM, no string
//! per attribute. Every coordinate goes through one number writer,
//! [`fixed2_into`], whose digits come two at a time from the JSON
//! writer's table; a polyline's points are gathered as ASCII bytes on the
//! stack and checked as text a kilobyte at a time.

use std::fmt::{self, Display, Write};

use serde::json::{digits_into, DIGIT_PAIRS};

/// Escapes for XML text content or attribute values whatever is written
/// through it; a piece with nothing to escape is copied as it is.
struct Escaping<'a>(&'a mut String);

impl Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let entity = match b {
                b'&' => "&amp;",
                b'<' => "&lt;",
                b'>' => "&gt;",
                b'"' => "&quot;",
                b'\'' => "&#39;",
                _ => continue,
            };
            // Every escaped byte is ASCII, so `run..i` is on char boundaries.
            self.0.push_str(&s[run..i]);
            self.0.push_str(entity);
            run = i + 1;
        }
        self.0.push_str(&s[run..]);
        Ok(())
    }
}

/// Append `value`'s text to `out`, escaped for XML text content or
/// attribute values.
pub fn escape_into(out: &mut String, value: impl Display) {
    write!(Escaping(out), "{value}").expect("a String takes any write");
}

/// Append `v` to `out` exactly as `format!("{v:.2}")` prints it.
pub fn fixed2_into(out: &mut String, v: f64) {
    let mut buf = [0u8; 12];
    match fixed2_digits(v, &mut buf) {
        Some(len) => out.push_str(std::str::from_utf8(&buf[..len]).expect("ASCII digits")),
        None => write!(out, "{v:.2}").expect("a String takes any write"),
    }
}

/// The fast path of [`fixed2_into`]: writes the digits of `round(|v|·100)`
/// to the start of `buf`, with the sign and the point, and returns their
/// length. Below 2³² the computed product is within 2⁻²² of the exact
/// one, so where its fraction is at least 1e-6 away from .5 both round to
/// the same integer: the one `{:.2}` prints (it rounds the exact value,
/// ties to even). Ties and near-ties, larger magnitudes and non-finite
/// values are `None`, for `write!` to print.
fn fixed2_digits(v: f64, buf: &mut [u8; 12]) -> Option<usize> {
    let scaled = v.abs() * 100.0;
    if scaled.is_nan() || scaled >= 4_294_967_296.0 {
        return None;
    }
    // Below 2³² the cast truncates, and the difference is exact.
    let whole = scaled as u32;
    let fraction = scaled - f64::from(whole);
    if (fraction - 0.5).abs() < 1e-6 {
        return None;
    }
    let n = u64::from(whole) + u64::from(fraction > 0.5);
    // `{:.2}` keeps the sign of a negative value that rounds to zero. The
    // digits start after the sign, or over it when there is none.
    let sign = usize::from(v.is_sign_negative());
    buf[0] = b'-';
    // Up to eight integer digits, the point and two decimals.
    let units = n / 100;
    let point = sign + units.checked_ilog10().map_or(1, |d| d as usize + 1);
    digits_into(units, &mut buf[sign..point]);
    let cents = (n % 100) as usize * 2;
    buf[point] = b'.';
    buf[point + 1..point + 3].copy_from_slice(&DIGIT_PAIRS[cents..cents + 2]);
    Some(point + 3)
}

/// ASCII text gathered on the stack and appended to a `String` a chunk at
/// a time: a run of numbers is checked as UTF-8 once a chunk, not once a
/// number, and allocates nothing of its own.
struct AsciiRun<'a> {
    out: &'a mut String,
    buf: [u8; 1024],
    len: usize,
}

impl<'a> AsciiRun<'a> {
    fn new(out: &'a mut String) -> Self {
        AsciiRun {
            out,
            buf: [0; 1024],
            len: 0,
        }
    }

    /// The free space, at least `n` bytes of it.
    fn room(&mut self, n: usize) -> &mut [u8] {
        if self.len + n > self.buf.len() {
            self.flush();
        }
        &mut self.buf[self.len..]
    }

    fn push(&mut self, b: u8) {
        self.room(1)[0] = b;
        self.len += 1;
    }

    /// Append `v` exactly as `format!("{v:.2}")` prints it.
    fn fixed2(&mut self, v: f64) {
        let room = (&mut self.room(12)[..12]).try_into().expect("12 bytes");
        match fixed2_digits(v, room) {
            Some(len) => self.len += len,
            None => {
                self.flush();
                write!(self.out, "{v:.2}").expect("a String takes any write");
            }
        }
    }

    fn flush(&mut self) {
        let text = std::str::from_utf8(&self.buf[..self.len]).expect("ASCII text");
        self.out.push_str(text);
        self.len = 0;
    }
}

/// An element whose start tag is being written: attributes go straight
/// into the buffer, then the element ends empty ([`Tag::empty`]), with
/// text ([`Tag::text`]) or with children ([`Tag::children`]).
#[must_use = "an element must be ended"]
pub struct Tag<'a> {
    out: &'a mut String,
    name: &'static str,
}

impl<'a> Tag<'a> {
    /// Start a `<name` tag in `out`.
    pub fn start(out: &'a mut String, name: &'static str) -> Self {
        out.push('<');
        out.push_str(name);
        Tag { out, name }
    }

    /// Add an attribute; its value is escaped.
    pub fn attr(self, name: &str, value: impl Display) -> Self {
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        escape_into(self.out, value);
        self.out.push('"');
        self
    }

    /// Add a numeric attribute, with two decimals.
    fn num(self, name: &str, v: f64) -> Self {
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        fixed2_into(self.out, v);
        self.out.push('"');
        self
    }

    /// End the element without content: `/>`.
    pub fn empty(self) {
        self.out.push_str("/>");
    }

    /// End the element with escaped text content.
    pub fn text(self, content: impl Display) {
        self.out.push('>');
        escape_into(self.out, content);
        self.close();
    }

    /// End the element with the children `write` appends; one with no
    /// children ends empty.
    pub fn children(self, write: impl FnOnce(&mut String)) {
        self.out.push('>');
        let start = self.out.len();
        write(self.out);
        if self.out.len() == start {
            self.out.pop();
            self.empty();
        } else {
            self.close();
        }
    }

    fn close(self) {
        self.out.push_str("</");
        self.out.push_str(self.name);
        self.out.push('>');
    }
}

/// Start a complete `<svg>` document of fixed pixel size.
pub fn document(out: &mut String, width: u32, height: u32) -> Tag<'_> {
    Tag::start(out, "svg")
        .attr("xmlns", "http://www.w3.org/2000/svg")
        .attr("width", width)
        .attr("height", height)
        .attr("viewBox", format_args!("0 0 {width} {height}"))
        .attr("role", "img")
}

/// Shorthand constructors used by the charts.
pub mod el {
    use std::fmt::Display;

    use super::{AsciiRun, Tag};

    /// `<g>` group.
    pub fn group(out: &mut String) -> Tag<'_> {
        Tag::start(out, "g")
    }

    /// `<polyline>` through `(x, y)` points.
    pub fn polyline(out: &mut String, points: impl IntoIterator<Item = (f64, f64)>) -> Tag<'_> {
        let tag = Tag::start(out, "polyline");
        tag.out.push_str(" points=\"");
        let mut run = AsciiRun::new(tag.out);
        for (i, (x, y)) in points.into_iter().enumerate() {
            if i > 0 {
                run.push(b' ');
            }
            run.fixed2(x);
            run.push(b',');
            run.fixed2(y);
        }
        run.flush();
        tag.out.push('"');
        tag.attr("fill", "none")
    }

    /// `<line>`.
    pub fn line(out: &mut String, x1: f64, y1: f64, x2: f64, y2: f64) -> Tag<'_> {
        Tag::start(out, "line")
            .num("x1", x1)
            .num("y1", y1)
            .num("x2", x2)
            .num("y2", y2)
    }

    /// `<circle>`.
    pub fn circle(out: &mut String, cx: f64, cy: f64, r: f64) -> Tag<'_> {
        Tag::start(out, "circle")
            .num("cx", cx)
            .num("cy", cy)
            .num("r", r)
    }

    /// `<rect>`.
    pub fn rect(out: &mut String, x: f64, y: f64, w: f64, h: f64) -> Tag<'_> {
        Tag::start(out, "rect")
            .num("x", x)
            .num("y", y)
            .num("width", w)
            .num("height", h)
    }

    /// `<text>` at a position; its content ends it ([`Tag::text`]).
    pub fn text(out: &mut String, x: f64, y: f64) -> Tag<'_> {
        Tag::start(out, "text").num("x", x).num("y", y)
    }

    /// `<title>` (native tooltip).
    pub fn title(out: &mut String, content: impl Display) {
        Tag::start(out, "title").text(content)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(write: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        write(&mut out);
        out
    }

    #[test]
    fn escaping_covers_xml_specials() {
        assert_eq!(
            render(|out| escape_into(out, "a<b>&\"c'")),
            "a&lt;b&gt;&amp;&quot;c&#39;"
        );
        assert_eq!(render(|out| escape_into(out, "plain")), "plain");
    }

    #[test]
    fn empty_element_self_closes() {
        let s = render(|out| Tag::start(out, "rect").attr("x", 1).empty());
        assert_eq!(s, "<rect x=\"1\"/>");
        let s = render(|out| el::group(out).attr("x", 1).children(|_| {}));
        assert_eq!(s, "<g x=\"1\"/>");
    }

    #[test]
    fn nested_elements_render_in_order() {
        let s = render(|out| {
            el::group(out).children(|out| {
                el::line(out, 0.0, 0.0, 1.0, 1.0).empty();
                el::text(out, 5.0, 6.0).text("hi");
            })
        });
        assert!(s.starts_with("<g>"));
        assert!(s.contains("<line"));
        let line_pos = s.find("<line").unwrap();
        let text_pos = s.find("<text").unwrap();
        assert!(line_pos < text_pos);
        assert!(s.ends_with("</g>"));
    }

    #[test]
    fn text_content_is_escaped() {
        let s = render(|out| el::text(out, 0.0, 0.0).text("a<b & c"));
        assert!(s.contains("a&lt;b &amp; c"));
    }

    #[test]
    fn attribute_values_are_escaped() {
        let s = render(|out| Tag::start(out, "text").attr("data-label", "x\"y<z").empty());
        assert!(s.contains("data-label=\"x&quot;y&lt;z\""));
    }

    #[test]
    fn document_has_viewbox_and_ns() {
        let s = render(|out| document(out, 320, 64).empty());
        assert!(s.contains("viewBox=\"0 0 320 64\""));
        assert!(s.contains("xmlns=\"http://www.w3.org/2000/svg\""));
    }

    #[test]
    fn polyline_formats_points() {
        let s = render(|out| el::polyline(out, [(0.0, 1.5), (2.25, 3.0)]).empty());
        assert!(s.contains("points=\"0.00,1.50 2.25,3.00\""));
    }
}
