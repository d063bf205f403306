#![warn(missing_docs)]

//! # simjson — the workspace's one JSON
//!
//! A JSON value, one deterministic renderer and a parser, with no
//! dependencies. `netsim::telemetry` re-exports it as
//! `netsim::telemetry::{Json, fmt_f64}` and `simlint` writes its
//! `--format json` output through it, so a fix to either direction lands
//! once.
//!
//! The run reports written by the experiments binary must be
//! byte-identical across `REPRO_THREADS`, machines, and reruns, so the
//! renderer makes every formatting decision explicit, and makes each in
//! one place — the streaming [`Writer`]:
//!
//! * object keys are rendered in sorted order: [`Json::render`] sorts a
//!   tree's keys regardless of insertion order, and a caller streaming an
//!   object through the [`Writer`] must present them sorted — a key that
//!   is not strictly greater than the previous one at its depth panics;
//! * floats use Rust's shortest-round-trip `{}` formatting, with `.0`
//!   appended to integral values (so `3` renders as `3.0`, never `3`),
//!   `-0.0` normalized to `0.0`, and non-finite values rendered as
//!   `null` (JSON has no NaN/Inf);
//! * output is pretty-printed with two-space indentation, `": "` between
//!   key and value, and `\n` line endings only — down to a container
//!   depth the writer is built with, past which each container is written
//!   on one line with no whitespace inside it. [`Json::render`] and
//!   [`Json::write_to`] never stop indenting; the Chrome trace stops at
//!   its events, so a trace has one line per event.
//!
//! [`Json::render`] and [`Json::write_to`] walk the tree through that
//! writer; a producer whose document is large and already sits in its own
//! records (the Chrome trace of `netsim::telemetry::spans`) drives the
//! writer directly and never builds the tree. Either way the bytes go
//! straight to an [`io::Write`] sink — a `Vec<u8>` for `render`, a
//! buffered file for the run artifacts — so the renderer holds no copy
//! of the document.
//!
//! The parser reads files a user hands to the tools (`repro compare`,
//! `repro chaos --replay`), so it never panics, bounds its recursion at
//! [`MAX_DEPTH`], and rejects numbers that do not fit a finite `f64`.

use std::fmt::Write as _;
use std::io;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser is
/// recursive-descent; without a bound a file of `[` bytes overflows the
/// stack instead of returning an error. Every document this workspace
/// writes nests less than ten deep.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (covers `u64` values above `i64::MAX`).
    UInt(u64),
    /// A float, rendered per the module contract.
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted at render time; duplicate keys keep
    /// their first occurrence.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value from a `&str`.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Pushes a key/value pair onto an object.
    ///
    /// # Panics
    /// Panics if `self` is not [`Json::Obj`].
    pub fn push(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value)),
            _ => panic!("Json::push on non-object"),
        }
    }

    /// Renders with sorted keys and 2-space indentation at every depth,
    /// ending in a single trailing newline.
    pub fn render(&self) -> String {
        let mut w = Writer::new(Vec::new(), usize::MAX);
        w.json(self);
        w.into_string()
    }

    /// Writes exactly the bytes of [`Json::render`] to `sink` as the walk
    /// produces them, so a document headed for a file is never held as a
    /// string. `sink` should be buffered: every token is one write.
    pub fn write_to<W: io::Write + ?Sized>(&self, sink: &mut W) -> io::Result<()> {
        let mut w = Writer::new(sink, usize::MAX);
        w.json(self);
        w.finish().map(drop)
    }

    /// Parses a JSON document (the inverse of [`Json::render`], accepting
    /// any standard JSON, not just this module's pretty-printed shape).
    /// Numbers without `.`/exponent parse as [`Json::UInt`] (or
    /// [`Json::Int`] when negative), everything else as [`Json::Float`] —
    /// matching what the renderer emits so case files round-trip exactly.
    /// Errors carry the byte offset of the first offending character;
    /// nesting deeper than [`MAX_DEPTH`] is an error, not a stack overflow.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object (first occurrence, matching the
    /// renderer's duplicate-key rule). `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer (or a
    /// non-negative signed one).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// The value as a `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Recursive-descent JSON parser state (byte cursor into the input).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain UTF-8 up to the next escape or quote.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so slicing on these boundaries is valid
            // UTF-8 (quotes/backslashes are never UTF-8 continuation bytes).
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            // An escaped non-BMP character is a high
                            // surrogate followed by an escaped low one.
                            // A lone or reversed surrogate becomes
                            // U+FFFD, never an error.
                            if (0xd800..0xdc00).contains(&code)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                let next_escape = self.pos;
                                self.pos += 2;
                                match self.hex4() {
                                    Ok(low) if (0xdc00..0xe000).contains(&low) => {
                                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    }
                                    // Not the other half: the loop's next
                                    // turn reads (or rejects) it.
                                    _ => self.pos = next_escape,
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    /// The four hex digits of a `\u` escape, as a code unit.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if float {
            // `f64::from_str` saturates (`1e999` is `inf`), and the
            // renderer writes non-finite floats as `null`: accepting one
            // would change the document's value on a round trip.
            match text.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(Json::Float(v)),
                _ => Err(format!("invalid number '{text}' at byte {start}")),
            }
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("invalid integer '{text}' at byte {start}"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| format!("invalid integer '{text}' at byte {start}"))
        }
    }
}

/// One open array or object of a [`Writer`].
#[derive(Debug)]
struct Frame {
    object: bool,
    /// Nothing written inside it yet (so it closes as `[]` / `{}`).
    empty: bool,
    /// An object whose key is written and whose value is due.
    keyed: bool,
    /// Where this object's latest key starts in [`Writer::keys`].
    key_start: usize,
}

/// The streaming renderer: the one place that decides indentation, the
/// key/value separator, float and escape formatting (see the module
/// docs). Tokens go to the sink as they are produced; the writer keeps
/// only the open containers and the latest key of each, so its memory
/// does not grow with the document.
///
/// Its one layout choice is made at construction: containers nested
/// deeper than `one_line_past` are written on one line, with no space or
/// line break inside them (the top-level container is at depth one); the
/// line that holds such a container is indented as usual. Pass
/// `usize::MAX` to indent everything, `0` for a one-line document.
///
/// Structure is the caller's duty and is asserted: values inside an
/// object need a [`Writer::key`] first, keys must arrive strictly
/// ascending (the order [`Json::render`] gets by sorting), containers
/// must close in order, and a document is one value. A broken rule
/// panics — it is a bug in the producer, never a property of the data.
///
/// I/O errors are sticky: after the first one nothing more is written,
/// and [`Writer::finish`] returns it.
///
/// ```
/// let doc = |one_line_past| {
///     let mut w = simjson::Writer::new(Vec::new(), one_line_past);
///     w.begin_object();
///     w.key("a");
///     w.u64(1);
///     w.key("b");
///     w.begin_array();
///     w.begin_object();
///     w.key("c");
///     w.f64(2.0);
///     w.end_object();
///     w.end_array();
///     w.end_object();
///     w.into_string()
/// };
/// assert_eq!(
///     doc(usize::MAX),
///     "{\n  \"a\": 1,\n  \"b\": [\n    {\n      \"c\": 2.0\n    }\n  ]\n}\n"
/// );
/// // One line per element of `b`, as the Chrome trace lays out its events.
/// assert_eq!(doc(2), "{\n  \"a\": 1,\n  \"b\": [\n    {\"c\":2.0}\n  ]\n}\n");
/// assert_eq!(doc(0), "{\"a\":1,\"b\":[{\"c\":2.0}]}\n");
/// ```
#[derive(Debug)]
pub struct Writer<W: io::Write> {
    sink: W,
    error: Option<io::Error>,
    stack: Vec<Frame>,
    /// The latest key of every open object, back to back, so checking
    /// key order allocates nothing per object.
    keys: String,
    /// Digits of the number being written.
    scratch: String,
    /// Whether the top-level value has been written.
    done: bool,
    /// Containers deeper than this are written on one line.
    one_line_past: usize,
}

impl<W: io::Write> Writer<W> {
    /// A writer at the start of a document that indents containers down
    /// to depth `one_line_past` and writes deeper ones on one line.
    pub fn new(sink: W, one_line_past: usize) -> Writer<W> {
        Writer {
            sink,
            error: None,
            stack: Vec::new(),
            keys: String::new(),
            scratch: String::new(),
            done: false,
            one_line_past,
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            self.error = self.sink.write_all(bytes).err();
        }
    }

    /// Whether the innermost open container is written on one line.
    fn one_line(&self) -> bool {
        self.stack.len() > self.one_line_past
    }

    /// `\n` plus the indentation of a line inside `depth` containers.
    fn newline(&mut self, depth: usize) {
        const SPACES: &[u8] = &[b' '; 64];
        self.put(b"\n");
        let mut indent = 2 * depth;
        while indent > 0 {
            let run = indent.min(SPACES.len());
            self.put(&SPACES[..run]);
            indent -= run;
        }
    }

    fn escaped(&mut self, s: &str) {
        self.put(b"\"");
        let bytes = s.as_bytes();
        // Runs of plain bytes go out whole; only `"`, `\` and control
        // characters (all single-byte, so the cuts are char boundaries)
        // need an escape.
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let hex;
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1f => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    let (hi, lo) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]);
                    hex = [b'\\', b'u', b'0', b'0', hi, lo];
                    &hex
                }
                _ => continue,
            };
            self.put(&bytes[run..i]);
            self.put(escape);
            run = i + 1;
        }
        self.put(&bytes[run..]);
        self.put(b"\"");
    }

    /// Positions the sink for a value: after a key nothing is due; in an
    /// array the separator and the element's line are.
    fn before_value(&mut self) {
        let depth = self.stack.len();
        let one_line = self.one_line();
        match self.stack.last_mut() {
            None => {
                assert!(!self.done, "a JSON document is one value");
                self.done = true;
            }
            Some(f) if f.object => {
                assert!(f.keyed, "a value inside an object needs a key first");
                f.keyed = false;
            }
            Some(f) => {
                let first = std::mem::replace(&mut f.empty, false);
                if !first {
                    self.put(b",");
                }
                if !one_line {
                    self.newline(depth);
                }
            }
        }
    }

    fn begin(&mut self, object: bool) {
        self.before_value();
        self.put(if object { b"{" } else { b"[" });
        self.stack.push(Frame {
            object,
            empty: true,
            keyed: false,
            key_start: self.keys.len(),
        });
    }

    fn end(&mut self, object: bool) {
        let one_line = self.one_line();
        let f = self.stack.pop().expect("end without a matching begin");
        assert!(
            f.object == object && !f.keyed,
            "containers close in the order they opened, after the last value"
        );
        self.keys.truncate(f.key_start);
        if !f.empty && !one_line {
            self.newline(self.stack.len());
        }
        self.put(if object { b"}" } else { b"]" });
    }

    /// Opens an object; follow with [`Writer::key`] / value pairs.
    pub fn begin_object(&mut self) {
        self.begin(true);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.end(true);
    }

    /// Opens an array; every value until [`Writer::end_array`] is an
    /// element.
    pub fn begin_array(&mut self) {
        self.begin(false);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.end(false);
    }

    /// Writes the key of the next value of the innermost object.
    ///
    /// # Panics
    /// Panics if `key` is not strictly greater than the object's previous
    /// key: streamed objects must keep the sorted-key contract that
    /// [`Json::render`] keeps by sorting.
    pub fn key(&mut self, key: &str) {
        let depth = self.stack.len();
        let one_line = self.one_line();
        let f = self
            .stack
            .last_mut()
            .filter(|f| f.object && !f.keyed)
            .expect("a key belongs in an object, after the previous value");
        let previous = &self.keys[f.key_start..];
        assert!(
            f.empty || previous < key,
            "object keys must be written in strictly ascending order: \
             {key:?} after {previous:?}"
        );
        self.keys.truncate(f.key_start);
        self.keys.push_str(key);
        f.keyed = true;
        let first = std::mem::replace(&mut f.empty, false);
        if !first {
            self.put(b",");
        }
        if !one_line {
            self.newline(depth);
        }
        self.escaped(key);
        self.put(if one_line { b":" } else { b": " });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.before_value();
        self.put(b"null");
    }

    /// Writes `true` / `false`.
    pub fn bool(&mut self, v: bool) {
        self.before_value();
        self.put(if v { b"true" } else { b"false" });
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) {
        self.integer(v);
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, v: i64) {
        self.integer(v);
    }

    fn integer(&mut self, v: impl std::fmt::Display) {
        self.before_value();
        self.scratch.clear();
        let _ = write!(self.scratch, "{v}");
        self.put_scratch();
    }

    /// Writes a float per the module contract (see [`fmt_f64`]).
    pub fn f64(&mut self, v: f64) {
        self.before_value();
        self.scratch.clear();
        push_f64(&mut self.scratch, v);
        self.put_scratch();
    }

    fn put_scratch(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        self.put(scratch.as_bytes());
        self.scratch = scratch;
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, v: &str) {
        self.before_value();
        self.escaped(v);
    }

    /// Writes a whole tree as the next value: keys sorted, the first of
    /// duplicate keys kept.
    pub fn json(&mut self, v: &Json) {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Int(i) => self.i64(*i),
            Json::UInt(u) => self.u64(*u),
            Json::Float(f) => self.f64(*f),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.begin_array();
                for item in items {
                    self.json(item);
                }
                self.end_array();
            }
            Json::Obj(pairs) => {
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                order.sort_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0).then(a.cmp(&b)));
                order.dedup_by(|a, b| pairs[*a].0 == pairs[*b].0);
                self.begin_object();
                for i in order {
                    self.key(&pairs[i].0);
                    self.json(&pairs[i].1);
                }
                self.end_object();
            }
        }
    }

    /// Ends the document with its trailing newline and hands the sink
    /// back, or the first I/O error met on the way.
    ///
    /// # Panics
    /// Panics if a container is still open or no value was written.
    pub fn finish(mut self) -> io::Result<W> {
        assert!(
            self.done && self.stack.is_empty(),
            "finish after exactly one complete value"
        );
        self.put(b"\n");
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.sink),
        }
    }
}

impl Writer<Vec<u8>> {
    /// Finishes a document written to memory and returns it as the
    /// string it is (size the `Vec` beforehand to avoid regrowth).
    pub fn into_string(self) -> String {
        let bytes = self.finish().expect("writing to a Vec<u8> cannot fail");
        String::from_utf8(bytes).expect("the writer emits UTF-8")
    }
}

/// Appends `v` to `out`: the float half of the rendering contract.
fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let v = if v == 0.0 { 0.0 } else { v }; // normalize -0.0
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Deterministic float formatting: shortest round-trip representation,
/// forced to contain a `.` or exponent (`3` → `"3.0"`), `-0.0`
/// normalized to `"0.0"`, non-finite values rendered as `"null"`.
pub fn fmt_f64(v: f64) -> String {
    let mut s = String::new();
    push_f64(&mut s, v);
    s
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::TestRng;

    /// The renderer as it was before [`Writer`]: a recursive walk into a
    /// `String` with its own indent, escape and float code. Kept as the
    /// obviously-correct reference the streaming writer is tested against.
    mod reference {
        use super::Json;
        use std::fmt::Write as _;

        pub fn render(j: &Json) -> String {
            let mut out = String::new();
            write(j, &mut out, 0);
            out.push('\n');
            out
        }

        fn write(j: &Json, out: &mut String, indent: usize) {
            match j {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Int(i) => {
                    let _ = write!(out, "{i}");
                }
                Json::UInt(u) => {
                    let _ = write!(out, "{u}");
                }
                Json::Float(f) => out.push_str(&fmt_f64(*f)),
                Json::Str(s) => write_escaped(out, s),
                Json::Arr(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('\n');
                        push_indent(out, indent + 1);
                        write(item, out, indent + 1);
                    }
                    out.push('\n');
                    push_indent(out, indent);
                    out.push(']');
                }
                Json::Obj(pairs) => {
                    if pairs.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    let mut order: Vec<usize> = (0..pairs.len()).collect();
                    order.sort_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0).then(a.cmp(&b)));
                    out.push('{');
                    let mut first = true;
                    let mut last_key: Option<&str> = None;
                    for &i in &order {
                        let (key, value) = &pairs[i];
                        if last_key == Some(key.as_str()) {
                            continue; // duplicate key: keep first occurrence
                        }
                        last_key = Some(key.as_str());
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        out.push('\n');
                        push_indent(out, indent + 1);
                        write_escaped(out, key);
                        out.push_str(": ");
                        write(value, out, indent + 1);
                    }
                    out.push('\n');
                    push_indent(out, indent);
                    out.push('}');
                }
            }
        }

        fn push_indent(out: &mut String, indent: usize) {
            for _ in 0..indent {
                out.push_str("  ");
            }
        }

        fn write_escaped(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }

        fn fmt_f64(v: f64) -> String {
            if !v.is_finite() {
                return "null".to_string();
            }
            let v = if v == 0.0 { 0.0 } else { v }; // normalize -0.0
            let mut s = format!("{v}");
            if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                s.push_str(".0");
            }
            s
        }
    }

    /// Random trees at most `depth` containers deep, drawn to hit what
    /// the renderer has rules for: duplicate and unsorted keys, empty
    /// containers, non-finite and negative-zero floats, and quotes,
    /// backslashes, control and non-ASCII characters in keys and strings.
    #[derive(Debug)]
    struct Trees {
        depth: usize,
    }

    impl Trees {
        fn text(rng: &mut TestRng) -> String {
            const ALPHABET: [char; 12] = [
                'a',
                'b',
                'z',
                '"',
                '\\',
                '\n',
                '\r',
                '\t',
                '\u{1}',
                '\u{1f}',
                'é',
                '\u{1F600}',
            ];
            (0..rng.below(4))
                .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
                .collect()
        }

        fn tree(rng: &mut TestRng, depth: usize) -> Json {
            const FLOATS: [f64; 8] = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                0.0,
                3.0,
                1e30,
                5e-324,
            ];
            let kinds = if depth == 0 { 6 } else { 8 };
            match rng.below(kinds) {
                0 => Json::Null,
                1 => Json::Bool(rng.below(2) == 0),
                2 => Json::Int(rng.next_u64() as i64),
                3 => Json::UInt(rng.next_u64()),
                4 => match rng.below(2) {
                    0 => Json::Float(FLOATS[rng.below(FLOATS.len() as u64) as usize]),
                    _ => Json::Float(f64::from_bits(rng.next_u64())),
                },
                5 => Json::Str(Trees::text(rng)),
                6 => Json::Arr(
                    (0..rng.below(4))
                        .map(|_| Trees::tree(rng, depth - 1))
                        .collect(),
                ),
                _ => Json::Obj(
                    (0..rng.below(5))
                        .map(|_| (Trees::text(rng), Trees::tree(rng, depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    impl Strategy for Trees {
        type Value = Json;
        fn sample(&self, rng: &mut TestRng) -> Json {
            Trees::tree(rng, self.depth)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The streaming writer renders every tree to the reference's bytes.
        #[test]
        fn render_matches_the_recursive_reference(tree in (Trees { depth: 4 })) {
            let rendered = tree.render();
            prop_assert_eq!(&rendered, &reference::render(&tree));
            let mut streamed = Vec::new();
            tree.write_to(&mut streamed).unwrap();
            prop_assert_eq!(streamed, rendered.into_bytes());
        }

        /// What the renderer writes, the parser reads back to the same
        /// bytes (non-finite floats excepted: they render as `null`).
        #[test]
        fn rendered_trees_reparse_to_the_same_bytes(tree in (Trees { depth: 3 })) {
            let rendered = tree.render();
            prop_assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
        }

        /// Writing containers on one line past any depth changes the
        /// layout only: the document parses to the value the indented
        /// one does, a document past depth 0 is one line, and one past
        /// the tree's depth is the indented document.
        #[test]
        fn one_line_layout_keeps_the_value(tree in (Trees { depth: 4 })) {
            let value = Json::parse(&tree.render()).unwrap();
            for one_line_past in 0..6 {
                let mut w = Writer::new(Vec::new(), one_line_past);
                w.json(&tree);
                let laid_out = w.into_string();
                prop_assert_eq!(&Json::parse(&laid_out).unwrap(), &value);
                match one_line_past {
                    0 => prop_assert_eq!(laid_out.matches('\n').count(), 1),
                    5 => prop_assert_eq!(&laid_out, &tree.render()),
                    _ => {}
                }
            }
        }
    }

    fn panics(f: impl FnOnce(&mut Writer<Vec<u8>>)) -> bool {
        let mut w = Writer::new(Vec::new(), usize::MAX);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut w))).is_err()
    }

    #[test]
    fn writer_panics_on_unsorted_or_repeated_keys() {
        let two_keys = |a: &'static str, b: &'static str| {
            move |w: &mut Writer<Vec<u8>>| {
                w.begin_object();
                w.key(a);
                w.null();
                w.key(b);
                w.null();
                w.end_object();
            }
        };
        assert!(!panics(two_keys("a", "b")));
        assert!(panics(two_keys("b", "a")), "out of order");
        assert!(panics(two_keys("a", "a")), "repeated");
        assert!(!panics(two_keys("", "a")), "the empty key sorts first");
        assert!(panics(two_keys("", "")), "and cannot repeat either");
        // Each depth has its own order: a nested object's keys do not
        // disturb the parent's, and are checked themselves.
        let nested = |inner: [&'static str; 2], after: &'static str| {
            move |w: &mut Writer<Vec<u8>>| {
                w.begin_object();
                w.key("m");
                w.begin_object();
                for k in inner {
                    w.key(k);
                    w.u64(1);
                }
                w.end_object();
                w.key(after);
                w.u64(2);
                w.end_object();
            }
        };
        assert!(!panics(nested(["y", "z"], "n")));
        assert!(panics(nested(["z", "y"], "n")), "inner out of order");
        assert!(panics(nested(["y", "z"], "a")), "outer out of order");
    }

    #[test]
    fn writer_panics_on_broken_structure() {
        assert!(panics(|w| {
            w.begin_object();
            w.u64(1); // no key
        }));
        assert!(panics(|w| {
            w.begin_array();
            w.key("k"); // key in an array
        }));
        assert!(panics(|w| {
            w.begin_object();
            w.key("k");
            w.end_object(); // key without a value
        }));
        assert!(panics(|w| {
            w.begin_array();
            w.end_object(); // wrong closer
        }));
        assert!(panics(|w| {
            w.u64(1);
            w.u64(2); // two documents
        }));
        let mut open = Writer::new(Vec::new(), usize::MAX);
        open.begin_array();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| open.finish())).is_err());
    }

    #[test]
    fn writer_reports_the_first_sink_error() {
        /// Accepts `left` bytes, then fails every write.
        struct Full {
            left: usize,
        }
        impl io::Write for Full {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if buf.len() > self.left {
                    return Err(io::Error::other("disk full"));
                }
                self.left -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let doc = Json::from(vec![1u64, 2, 3]);
        let err = doc.write_to(&mut Full { left: 4 }).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert!(doc.write_to(&mut Full { left: 1 << 10 }).is_ok());
    }

    #[test]
    fn keys_render_sorted() {
        let j = Json::obj(vec![
            ("zeta", Json::UInt(1)),
            ("alpha", Json::UInt(2)),
            ("mid", Json::Null),
        ]);
        assert_eq!(
            j.render(),
            "{\n  \"alpha\": 2,\n  \"mid\": null,\n  \"zeta\": 1\n}\n"
        );
    }

    #[test]
    fn float_formatting_is_fixed() {
        assert_eq!(fmt_f64(3.0), "3.0");
        assert_eq!(fmt_f64(-0.0), "0.0");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(1e30), "1000000000000000000000000000000.0");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(-2.5), "-2.5");
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn nested_structure_renders_stably() {
        let j = Json::obj(vec![
            ("arr", Json::Arr(vec![Json::UInt(1), Json::Bool(false)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(vec![])),
        ]);
        let expected = "{\n  \"arr\": [\n    1,\n    false\n  ],\n  \"empty_arr\": [],\n  \"empty_obj\": {}\n}\n";
        assert_eq!(j.render(), expected);
    }

    #[test]
    fn duplicate_keys_keep_first() {
        let j = Json::obj(vec![("k", Json::UInt(1)), ("k", Json::UInt(2))]);
        assert_eq!(j.render(), "{\n  \"k\": 1\n}\n");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let j = Json::obj(vec![
            (
                "arr",
                Json::Arr(vec![Json::UInt(1), Json::Bool(false), Json::Null]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(vec![])),
            ("neg", Json::Int(-42)),
            ("pi", Json::Float(3.5)),
            ("s", Json::Str("a\"b\\c\nd\u{1}tab\t".to_string())),
            ("u", Json::UInt(u64::MAX)),
        ]);
        // The shape of simlint's baseline: strings, counts and null
        // inside an array inside an object.
        let baseline_like = Json::obj(vec![
            ("a", Json::UInt(3)),
            (
                "b",
                Json::Arr(vec![Json::Str("x\"y".to_string()), Json::Null]),
            ),
            ("c", Json::Bool(true)),
        ]);
        for doc in [j, baseline_like] {
            let parsed = Json::parse(&doc.render()).unwrap();
            assert_eq!(parsed, doc);
            // Render → parse → render is a fixpoint.
            assert_eq!(parsed.render(), doc.render());
        }
    }

    #[test]
    fn parse_classifies_numbers() {
        let j = Json::parse("[0, 17, -3, 2.5, 1e3, -0.25]").unwrap();
        let arr = j.as_arr().unwrap();
        assert_eq!(arr[0], Json::UInt(0));
        assert_eq!(arr[1], Json::UInt(17));
        assert_eq!(arr[2], Json::Int(-3));
        assert_eq!(arr[3], Json::Float(2.5));
        assert_eq!(arr[4], Json::Float(1000.0));
        assert_eq!(arr[5], Json::Float(-0.25));
    }

    #[test]
    fn parse_accessors_navigate_objects() {
        let j = Json::parse("{\"a\": {\"b\": [1, \"two\"]}, \"n\": 9}").unwrap();
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(9));
        let b = j.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(b.as_arr().unwrap()[1].as_str(), Some("two"));
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        // Files handed to `repro compare`, `repro chaos --replay` and
        // simlint's baseline loader: every one must come back as `Err`,
        // never a panic or a stack overflow.
        let deep_arrays = "[".repeat(300_000);
        let deep_objects = "{\"a\":".repeat(100_000);
        let just_too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let cases: &[(&str, &str)] = &[
            ("deep arrays", &deep_arrays),
            ("deep objects", &deep_objects),
            ("one past the depth cap", &just_too_deep),
            ("trailing data", "{\"a\": 1} trailing"),
            ("trailing data after object", "{} x"),
            ("truncated object", "{\"a\""),
            ("missing value", "{\"a\": }"),
            ("trailing comma", "[1,]"),
            ("truncated string", "\"unterminated"),
            ("bad escape", "\"bad \\x escape\""),
            ("truncated escape", "\"\\"),
            ("truncated \\u escape", "\"\\u00"),
            ("float past f64::MAX", "1e999"),
            ("float past f64::MIN", "-1e999"),
            ("lone minus", "-"),
            ("two minuses", "--1"),
            ("bad literal", "nul"),
            ("empty input", ""),
        ];
        for &(name, input) in cases {
            assert!(Json::parse(input).is_err(), "{name} must be rejected");
        }
        // `f64::from_str` saturates to infinity, which renders as `null`:
        // rejected like any other bad number, with its location.
        assert_eq!(
            Json::parse("[1, 1e999]").unwrap_err(),
            "invalid number '1e999' at byte 4"
        );
        // Underflow is a finite value (zero) and round-trips as one.
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Float(0.0));
        let err = Json::parse(&deep_arrays).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
    }

    #[test]
    fn parse_accepts_nesting_up_to_the_cap() {
        let doc = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&doc).is_ok());
        // Siblings do not accumulate depth.
        let wide = format!("[{}]", vec!["[[]]"; 1000].join(","));
        assert_eq!(Json::parse(&wide).unwrap().as_arr().unwrap().len(), 1000);
    }

    #[test]
    fn parse_unescapes_unicode() {
        let j = Json::parse("\"\\u0041\\u00e9\\n\"").unwrap();
        assert_eq!(j.as_str(), Some("Aé\n"));
    }

    #[test]
    fn parse_combines_escaped_surrogate_pairs() {
        let parsed = |text: &str| Json::parse(text).unwrap().as_str().unwrap().to_string();
        // The standard escape of U+1F600, alone and between other text.
        assert_eq!(parsed(r#""\ud83d\ude00""#), "\u{1F600}");
        assert_eq!(parsed(r#""a\uD83D\uDE00b""#), "a\u{1F600}b");
        // Lone, reversed or interrupted halves are U+FFFD each — never an
        // error, never a panic — and what follows them is still read.
        assert_eq!(parsed(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(parsed(r#""\ude00""#), "\u{fffd}");
        assert_eq!(parsed(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
        assert_eq!(parsed(r#""\ud83dx""#), "\u{fffd}x");
        assert_eq!(parsed(r#""\ud83d\n""#), "\u{fffd}\n");
        assert_eq!(parsed(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(parsed(r#""\ud83d\ud83d\ude00""#), "\u{fffd}\u{1F600}");
        // A malformed escape after a high surrogate is still malformed.
        assert!(Json::parse(r#""\ud83d\u12""#).is_err());
        assert!(Json::parse(r#""\ud83d\uzzzz""#).is_err());
        // The renderer writes non-BMP characters raw; they round-trip.
        let smile = Json::Str("\u{1F600}".to_string());
        assert_eq!(Json::parse(&smile.render()).unwrap(), smile);
    }
}
