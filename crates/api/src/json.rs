//! A zero-dependency JSON value type with a writer, a parser and a
//! borrowed span walker.
//!
//! The wire contract is built programmatically (no serialization
//! framework): DTOs in [`crate::dto`] encode into [`Json`] values and the
//! parser lets the server, the [`crate::client`], and tests read payloads
//! back without pulling in serde.
//!
//! [`Json::parse`] and [`Walker`] are one lexer: the parser is the
//! walker building a tree as it goes, so they accept exactly the same
//! documents. Both run in time linear in the document (a string is
//! copied in runs between escapes, never a character at a time) and
//! refuse nesting deeper than [`MAX_DEPTH`] with an ordinary error —
//! a request body chooses neither the parse time per byte nor the
//! recursion depth.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;

/// Deepest array/object nesting a document may have.
pub const MAX_DEPTH: usize = 128;

/// Keys one object may hold before its duplicate check moves from a
/// scan of the keys seen so far to a hash set: every DTO stays under
/// it (and so allocation-free), a hostile object stays linear.
const SCANNED_KEYS: usize = 16;

/// A JSON value. Objects keep insertion order via a `Vec` of pairs, so
/// emitted documents are stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integers — the server never emits floats.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an integer value from any integer type that fits.
    pub fn int(n: impl TryInto<i64>) -> Json {
        Json::Int(n.try_into().unwrap_or(i64::MAX))
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is a number.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
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

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a JSON document. Numbers with fractions/exponents are
    /// accepted but truncated to integers (the server never emits them).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut walker = Walker::new(text);
        let v = walker.tree()?;
        walker.finish()?;
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    v.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a string literal: the runs between characters that
/// need an escape go out whole.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[run..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

/// Convenience conversion: `(name, count)` histograms → JSON objects.
pub fn histogram<K: fmt::Display>(pairs: &[(K, usize)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, n)| (k.to_string(), Json::int(*n)))
            .collect(),
    )
}

/// A cursor over one JSON document that reads it without building it:
/// [`Walker::object`] and [`Walker::array`] hand each field or element
/// to a callback, which consumes it — [`Walker::skip_value`] for its
/// exact bytes, [`Walker::string`] for decoded text, or another
/// `object`/`array` to descend. Nothing is allocated for a document
/// whose keys hold no escapes and whose objects have at most a handful
/// of keys.
///
/// Every error is final: a walker that returned one is not positioned
/// on anything.
#[derive(Debug)]
pub struct Walker<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// The keys read so far of every object being walked, innermost
    /// last; each object checks a new key against its own tail.
    keys: Vec<Cow<'a, str>>,
    /// Bytes the string scanner visited; the linearity test reads it.
    #[cfg(test)]
    scanned: usize,
    /// Key comparisons plus set probes of the duplicate-key check.
    #[cfg(test)]
    key_checks: usize,
}

impl<'a> Walker<'a> {
    /// A walker positioned on the document's value.
    pub fn new(text: &'a str) -> Walker<'a> {
        let mut walker = Walker {
            text,
            pos: 0,
            depth: 0,
            keys: Vec::new(),
            #[cfg(test)]
            scanned: 0,
            #[cfg(test)]
            key_checks: 0,
        };
        walker.skip_ws();
        walker
    }

    /// The byte offset of the cursor in the document.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// The byte under the cursor — the first of the next value when
    /// called from a field or element callback.
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Checks that nothing but whitespace follows the walked value.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    /// Walks the object under the cursor: `field` is called with each
    /// key, the cursor on that key's value, and must consume exactly
    /// that value. A repeated key is an error.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Walker<'a>, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'{')?;
        let base = self.keys.len();
        let mut many: Option<HashSet<Cow<'a, str>>> = None;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            return self.close();
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            #[cfg(test)]
            {
                self.key_checks += many.as_ref().map_or(self.keys.len() - base, |_| 1);
            }
            let fresh = match &mut many {
                Some(set) => set.insert(key.clone()),
                None if self.keys[base..].contains(&key) => false,
                None => {
                    self.keys.push(key.clone());
                    if self.keys.len() - base > SCANNED_KEYS {
                        many = Some(self.keys.drain(base..).collect());
                    }
                    true
                }
            };
            if !fresh {
                return Err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            field(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.keys.truncate(base);
                    return self.close();
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// Walks the array under the cursor: `element` is called with the
    /// cursor on each element and must consume exactly that value.
    pub fn array(
        &mut self,
        mut element: impl FnMut(&mut Walker<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            return self.close();
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => return self.close(),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Consumes the value under the cursor, checking it as
    /// [`Json::parse`] would, and returns its exact bytes.
    pub fn skip_value(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        match self.peek() {
            Some(b'{') => self.object(|w, _| w.skip_value().map(drop))?,
            Some(b'[') => self.array(|w| w.skip_value().map(drop))?,
            Some(b'"') => drop(self.scan_string()?),
            _ => drop(self.scalar()?),
        }
        Ok(&self.text[start..self.pos])
    }

    /// Consumes the string under the cursor and decodes it; borrowed
    /// from the document unless it holds an escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let (raw, escaped) = self.scan_string()?;
        if escaped {
            unescape(raw).map(Cow::Owned)
        } else {
            Ok(Cow::Borrowed(raw))
        }
    }

    /// [`Json::parse`]: the walk that keeps what it reads.
    fn tree(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object(|w, key| {
                    pairs.push((key.into_owned(), w.tree()?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|w| {
                    items.push(w.tree()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            _ => self.scalar(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    /// Enters an array or object, one level deeper.
    fn open(&mut self, bracket: u8) -> Result<(), String> {
        self.expect(bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos - 1
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Leaves an array or object over its closing bracket.
    fn close(&mut self) -> Result<(), String> {
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// `null`, `true`, `false` or a number.
    fn scalar(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Consumes a string literal and returns the text between its
    /// quotes, escapes checked but not decoded, and whether it has any.
    /// The input is a `str`, and a run ends on an ASCII `"` or `\`, so
    /// every run is whole characters.
    fn scan_string(&mut self) -> Result<(&'a str, bool), String> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut escaped = false;
        loop {
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            #[cfg(test)]
            {
                self.scanned += run.map_or(bytes.len() - self.pos, |run| run + 1);
            }
            match run {
                Some(run) => self.pos += run,
                None => return Err("unterminated string".to_string()),
            }
            if bytes[self.pos] == b'"' {
                let raw = &self.text[start..self.pos];
                self.pos += 1;
                return Ok((raw, escaped));
            }
            escaped = true;
            self.pos += escape(bytes, self.pos)?.1;
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if let Ok(n) = text.parse::<i64>() {
            Ok(Json::Int(n))
        } else if let Ok(f) = text.parse::<f64>() {
            Ok(Json::Int(f as i64))
        } else {
            Err(format!("bad number {text:?}"))
        }
    }
}

/// Decodes the escape sequence whose backslash is `bytes[at]`: the
/// character it stands for and the bytes it spans.
fn escape(bytes: &[u8], at: usize) -> Result<(char, usize), String> {
    let c = match bytes.get(at + 1) {
        Some(b'"') => '"',
        Some(b'\\') => '\\',
        Some(b'/') => '/',
        Some(b'n') => '\n',
        Some(b'r') => '\r',
        Some(b't') => '\t',
        Some(b'u') => {
            let hex = bytes.get(at + 2..at + 6).ok_or("truncated \\u escape")?;
            let code =
                u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?, 16)
                    .map_err(|_| "bad \\u escape")?;
            return Ok((char::from_u32(code).unwrap_or('\u{FFFD}'), 6));
        }
        other => return Err(format!("bad escape {other:?}")),
    };
    Ok((c, 2))
}

/// Decodes the text between a string literal's quotes, run by run.
fn unescape(raw: &str) -> Result<String, String> {
    let bytes = raw.as_bytes();
    let mut out = String::with_capacity(raw.len());
    let mut run = 0;
    while let Some(len) = bytes[run..].iter().position(|&b| b == b'\\') {
        out.push_str(&raw[run..run + len]);
        let (c, span) = escape(bytes, run + len)?;
        out.push(c);
        run += len + span;
    }
    out.push_str(&raw[run..]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_escaped_and_ordered() {
        let j = Json::obj([
            ("b", Json::int(1usize)),
            ("a", Json::str("x\"y\nz")),
            ("list", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(j.to_string(), r#"{"b":1,"a":"x\"y\nz","list":[null,true]}"#);
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let j = Json::obj([
            ("total", Json::int(42usize)),
            ("name", Json::str("CSP Random")),
            ("neg", Json::Int(-7)),
            (
                "nested",
                Json::obj([("flag", Json::Bool(false)), ("null", Json::Null)]),
            ),
            ("arr", Json::Arr(vec![Json::int(1usize), Json::int(2usize)])),
        ]);
        let text = j.to_string();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1,\"a\":2}").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"n":3,"s":"x","b":true,"a":[1]}"#).unwrap();
        assert_eq!(j.get("n").and_then(Json::as_int), Some(3));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(j.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("a").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn unicode_escapes() {
        let parsed = Json::parse(r#""grün""#).unwrap();
        assert_eq!(parsed.as_str(), Some("grün"));
        // Control characters are escaped on output.
        assert_eq!(Json::str("a\u{7}b").to_string(), r#""a\u0007b""#);
    }

    #[test]
    fn histogram_builder() {
        let h = histogram(&[("CSP".to_string(), 3), ("CQ".to_string(), 1)]);
        assert_eq!(h.to_string(), r#"{"CSP":3,"CQ":1}"#);
    }

    #[test]
    fn escapes_at_run_boundaries_decode() {
        for (text, want) in [
            (r#""\\""#, "\\"),
            (r#""a\"b""#, "a\"b"),
            (r#""éx""#, "éx"),
            (r#""x😀""#, "x😀"),
            (r#""\u00e9""#, "é"),
            (r#""\n€\t""#, "\n€\t"),
            (r#""\ud800""#, "\u{FFFD}"),
            (r#""""#, ""),
        ] {
            assert_eq!(Json::parse(text), Ok(Json::str(want)), "{text}");
        }
        // A raw control character inside a string is accepted as is.
        assert_eq!(Json::parse("\"a\nb\""), Ok(Json::str("a\nb")));
        for (text, why) in [
            (r#""abc"#, "unterminated string"),
            (r#""abc\"#, "bad escape None"),
            (r#""abc\""#, "unterminated string"),
            (r#""\x""#, "bad escape Some(120)"),
            (r#""\u12"#, "truncated \\u escape"),
            (r#""\u12g4""#, "bad \\u escape"),
        ] {
            assert_eq!(Json::parse(text), Err(why.to_string()), "{text}");
        }
    }

    #[test]
    fn nesting_is_capped_with_an_ordinary_error() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        assert!(Json::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested("{\"a\":", "}", MAX_DEPTH)).is_ok());
        for doc in [
            nested("[", "]", MAX_DEPTH + 1),
            nested("{\"a\":", "}", MAX_DEPTH + 1),
            "[".repeat(20_000),
            "{\"a\":".repeat(20_000),
        ] {
            let e = Json::parse(&doc).unwrap_err();
            assert!(e.starts_with("nesting deeper than 128 levels"), "{e}");
        }
    }

    /// Linear time is a claim about work, so the test counts it: what
    /// `Json::parse` visits and compares at two document sizes a decade
    /// apart. The parser this replaced rescanned the tail of a string
    /// per character and the keys of an object per key.
    #[test]
    fn parse_time_is_linear_in_the_document() {
        fn parse(doc: &str) -> (Result<Json, String>, usize, usize) {
            let mut walker = Walker::new(doc);
            let parsed = walker.tree();
            (parsed, walker.scanned, walker.key_checks)
        }
        for n in [100_000, 1_000_000] {
            let long = format!("\"{}\"", "x".repeat(n));
            let (parsed, scanned, _) = parse(&long);
            assert_eq!(parsed.unwrap().as_str().map(str::len), Some(n));
            assert!(scanned <= long.len(), "one long string: {scanned}");

            let many = format!("[{}\"é\\n\"]", "\"ab\",".repeat(n / 5));
            let (parsed, scanned, _) = parse(&many);
            assert_eq!(parsed.unwrap().as_arr().map(<[Json]>::len), Some(n / 5 + 1));
            assert!(scanned <= many.len(), "many short strings: {scanned}");

            let mut keys = String::from("{");
            for i in 0..n {
                keys.push_str(&format!("\"k{i}\":0,"));
            }
            keys.push_str("\"k0\":0}");
            let (parsed, scanned, key_checks) = parse(&keys);
            assert_eq!(
                parsed,
                Err("duplicate key \"k0\"".to_string()),
                "the last of {n} keys repeats the first"
            );
            assert!(scanned <= keys.len(), "many keys: {scanned}");
            assert!(key_checks <= 2 * n, "{n} keys: {key_checks} checks");
        }
    }

    /// Splitmix: the seeded coin the generators below draw from.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A string of the characters a string literal treats specially,
    /// and their neighbours.
    fn hostile_string(state: &mut u64) -> String {
        const ALPHABET: [&str; 20] = [
            "\"", "\\", "/", "\n", "\r", "\t", "\0", "\u{7}", "\u{1f}", " ", "\u{7f}", "a", "Z",
            "é", "€", "😀", "\\u0041", "\\\"", "u", "{",
        ];
        (0..mix(state) % 12)
            .map(|_| ALPHABET[(mix(state) % ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn tree(state: &mut u64, depth: usize) -> Json {
        let leafs_only = depth == 0;
        match mix(state) % if leafs_only { 4 } else { 6 } {
            0 => Json::Null,
            1 => Json::Bool(mix(state) & 1 == 0),
            2 => Json::Int(mix(state) as i64 >> (mix(state) % 64)),
            3 => Json::Str(hostile_string(state)),
            4 => Json::Arr(
                (0..mix(state) % 5)
                    .map(|_| tree(state, depth - 1))
                    .collect(),
            ),
            _ => {
                // More fields than the duplicate check scans, sometimes.
                let fields = mix(state) % if mix(state).is_multiple_of(8) { 40 } else { 5 };
                let mut pairs: Vec<(String, Json)> = Vec::new();
                for _ in 0..fields {
                    let key = hostile_string(state);
                    if pairs.iter().all(|(k, _)| *k != key) {
                        pairs.push((key, tree(state, depth - 1)));
                    }
                }
                Json::Obj(pairs)
            }
        }
    }

    /// The string writer as it was before it wrote runs: one `write!`
    /// per character. The reference the run writer is held to.
    struct PerCharacter<'s>(&'s str);

    impl fmt::Display for PerCharacter<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("\"")?;
            for c in self.0.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\r' => f.write_str("\\r")?,
                    '\t' => f.write_str("\\t")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => write!(f, "{c}")?,
                }
            }
            f.write_str("\"")
        }
    }

    /// What the walker makes of a document, its value discarded.
    fn walk(doc: &str) -> Result<(), String> {
        let mut walker = Walker::new(doc);
        let span = walker.skip_value()?;
        walker.finish()?;
        assert_eq!(span, doc.trim_matches([' ', '\t', '\n', '\r']));
        Ok(())
    }

    /// One character of `doc` deleted, doubled or replaced.
    fn damaged(doc: &str, state: &mut u64) -> String {
        let chars: Vec<char> = doc.chars().collect();
        if chars.is_empty() {
            return "]".to_string();
        }
        let at = (mix(state) % chars.len() as u64) as usize;
        let mut out: Vec<char> = chars[..at].to_vec();
        match mix(state) % 3 {
            0 => {}
            1 => out.extend([chars[at], chars[at]]),
            _ => out.push(
                ['"', '\\', ',', ':', '{', '}', '[', ']', '0', 'x', ' ']
                    [(mix(state) % 11) as usize],
            ),
        }
        out.extend(&chars[at + 1..]);
        out.into_iter().collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn written_documents_parse_back_to_the_same_tree(seed in proptest::prelude::any::<u64>()) {
            let mut state = seed;
            let v = tree(&mut state, 4);
            proptest::prop_assert_eq!(Json::parse(&v.to_string()), Ok(v));
        }

        #[test]
        fn the_run_writer_equals_the_per_character_writer(seed in proptest::prelude::any::<u64>()) {
            let mut state = seed;
            let s = hostile_string(&mut state) + &hostile_string(&mut state);
            proptest::prop_assert_eq!(Json::str(s.as_str()).to_string(), PerCharacter(&s).to_string());
        }

        #[test]
        fn the_walker_accepts_exactly_what_the_parser_accepts(seed in proptest::prelude::any::<u64>()) {
            let mut state = seed;
            let mut doc = tree(&mut state, 4).to_string();
            // Wrap it up to and past the depth cap, half of the time.
            if mix(&mut state) & 1 == 0 {
                let levels = MAX_DEPTH - 6 + (mix(&mut state) % 5) as usize;
                doc = format!("{}{doc}{}", " [".repeat(levels), "] ".repeat(levels));
            }
            proptest::prop_assert_eq!(walk(&doc), Json::parse(&doc).map(drop), "{}", doc);
            for _ in 0..4 {
                let doc = damaged(&doc, &mut state);
                proptest::prop_assert_eq!(walk(&doc), Json::parse(&doc).map(drop), "{}", doc);
            }
        }
    }
}
