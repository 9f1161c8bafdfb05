//! Minimal hand-rolled JSON support: string escaping, number and object
//! formatting, and a small strict tree parser (validation is a parse
//! that drops the tree) — kept
//! dependency-free on purpose (this crate must cost nothing when unused
//! and pull nothing in). The parser backs the ledger round-trip tests
//! and the `cargo xtask bench-diff` regression gate.

/// Escapes `s` as the contents of a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values,
/// which JSON cannot represent). The form is the shortest decimal that
/// parses back to the same `f64`, so a finite value survives a write and
/// a [`parse`] bit for bit.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // `{}` prints integral floats without a decimal point, which is
        // still a valid JSON number, so no fixup is needed.
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A JSON object of `(key, rendered value)` fields, in order; keys are
/// escaped, values are written as given.
pub fn object_of<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let fields: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("\"{}\":{v}", escape(k.as_ref())))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Validates that `s` is one well-formed JSON value (strict recursive
/// descent; no extensions). Returns the byte offset of the first error.
pub fn validate(s: &str) -> Result<(), usize> {
    parse(s).map(|_| ())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), usize> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(*pos)
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), usize> {
    if b.get(*pos) != Some(&b'"') {
        return Err(*pos);
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        for i in 1..=4 {
                            if !b.get(*pos + i).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(*pos + i);
                            }
                        }
                        *pos += 5;
                    }
                    _ => return Err(*pos),
                }
            }
            0x00..=0x1f => return Err(*pos),
            _ => *pos += 1,
        }
    }
    Err(*pos)
}

/// A parsed JSON value (see [`parse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, parsed as `f64`.
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys in source order (duplicates retained).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object (first occurrence); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields in source order, if this is an object.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Deepest container nesting [`parse`] accepts. Every document this
/// workspace writes nests a few levels; the bound keeps a hostile input
/// (a serve frame, a model header) from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses `s` as one well-formed JSON value (strict recursive descent;
/// no extensions; at most [`MAX_DEPTH`] nested containers). Returns the
/// byte offset of the first error.
pub fn parse(s: &str) -> Result<Value, usize> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    let v = pvalue(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos == b.len() {
        Ok(v)
    } else {
        Err(pos)
    }
}

/// Parses one value; `depth` counts the containers it sits in.
fn pvalue(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, usize> {
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(*pos),
        Some(b'{') => pobject(b, pos, depth + 1),
        Some(b'[') => parray(b, pos, depth + 1),
        Some(b'"') => pstring(b, pos).map(Value::Str),
        Some(b't') => literal(b, pos, b"true").map(|()| Value::Bool(true)),
        Some(b'f') => literal(b, pos, b"false").map(|()| Value::Bool(false)),
        Some(b'n') => literal(b, pos, b"null").map(|()| Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => pnum(b, pos),
        _ => Err(*pos),
    }
}

fn pobject(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, usize> {
    let mut fields = Vec::new();
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = pstring(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(*pos);
        }
        *pos += 1;
        skip_ws(b, pos);
        let val = pvalue(b, pos, depth)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(*pos),
        }
    }
}

fn parray(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, usize> {
    let mut items = Vec::new();
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(pvalue(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(*pos),
        }
    }
}

/// Parses a string literal, decoding escapes (including `\uXXXX` with
/// surrogate pairs; unpaired surrogates become U+FFFD).
fn pstring(b: &[u8], pos: &mut usize) -> Result<String, usize> {
    let start = *pos;
    string(b, pos)?; // validate + find the closing quote
    let raw = &b[start + 1..*pos - 1];
    let mut out = String::with_capacity(raw.len());
    let mut i = 0usize;
    while i < raw.len() {
        if raw[i] != b'\\' {
            // copy a run of plain bytes (UTF-8 passes through untouched)
            let run = i;
            while i < raw.len() && raw[i] != b'\\' {
                i += 1;
            }
            out.push_str(std::str::from_utf8(&raw[run..i]).map_err(|_| start + run)?);
            continue;
        }
        i += 1;
        match raw.get(i) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let mut code = hex4(raw, i + 1).ok_or(start + i)? as u32;
                i += 4;
                if (0xD800..0xDC00).contains(&code) {
                    // high surrogate: consume a following \uXXXX low half
                    if raw.get(i + 1) == Some(&b'\\') && raw.get(i + 2) == Some(&b'u') {
                        if let Some(lo) = hex4(raw, i + 3) {
                            if (0xDC00..0xE000).contains(&(lo as u32)) {
                                code = 0x10000 + ((code - 0xD800) << 10) + (lo as u32 - 0xDC00);
                                i += 6;
                            }
                        }
                    }
                }
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            _ => return Err(start + i),
        }
        i += 1;
    }
    Ok(out)
}

fn hex4(raw: &[u8], at: usize) -> Option<u16> {
    let chunk = raw.get(at..at + 4)?;
    let text = std::str::from_utf8(chunk).ok()?;
    u16::from_str_radix(text, 16).ok()
}

fn pnum(b: &[u8], pos: &mut usize) -> Result<Value, usize> {
    let start = *pos;
    num(b, pos)?;
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| start)?;
    text.parse::<f64>().map(Value::Num).map_err(|_| start)
}

fn num(b: &[u8], pos: &mut usize) -> Result<(), usize> {
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| -> bool {
        let start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > start
    };
    if !digits(b, pos) {
        return Err(*pos);
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(*pos);
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(*pos);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_format_validly() {
        for v in [0.0, -1.5, 1e-9, 12345.678, f64::NAN, f64::INFINITY] {
            let rendered = format!("[{}]", number(v));
            assert!(validate(&rendered).is_ok(), "{rendered}");
        }
    }

    #[test]
    fn validates_wellformed_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e3",
            r#"{"a":[1,2,{"b":"c\n"}],"d":true}"#,
            r#"  { "x" : null }  "#,
        ] {
            assert!(validate(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null"), Ok(Value::Null));
        assert_eq!(parse(" true "), Ok(Value::Bool(true)));
        assert_eq!(parse("-1.5e2"), Ok(Value::Num(-150.0)));
        assert_eq!(parse(r#""a\nb""#), Ok(Value::Str("a\nb".into())));
        let v = parse(r#"{"rows":[{"acc":92.5,"fa":3}],"quick":false}"#).unwrap();
        let rows = v.get("rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows[0].get("acc").and_then(Value::as_f64), Some(92.5));
        assert_eq!(rows[0].get("fa").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("quick").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_unescapes_unicode() {
        assert_eq!(parse(r#""Aé""#), Ok(Value::Str("Aé".into())));
        // surrogate pair → astral char; lone surrogate → replacement
        assert_eq!(
            parse("\"\\ud83d\\ude00\""),
            Ok(Value::Str("\u{1F600}".into()))
        );
        assert_eq!(parse("\"\\ud800x\""), Ok(Value::Str("\u{FFFD}x".into())));
    }

    #[test]
    fn parse_roundtrips_escape_and_number() {
        let original = "weird \"name\"\twith\nbreaks";
        let rendered = format!("\"{}\"", escape(original));
        assert_eq!(parse(&rendered), Ok(Value::Str(original.into())));
        let rendered = format!("[{}]", number(1234.5678));
        let v = parse(&rendered).unwrap();
        assert_eq!(v.as_arr().and_then(|a| a[0].as_f64()), Some(1234.5678));
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        for bad in ["", "{", "[1,]", "{'a':1}", r#"{"a":}"#, "tru", "1 2"] {
            assert!(parse(bad).is_err(), "{bad}");
            assert!(validate(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected_at_its_byte_offset() {
        // One complete value followed by anything non-whitespace must
        // fail, and the reported offset must point at the garbage — the
        // ledger reader surfaces that offset in its diagnostics.
        for (text, at) in [
            (r#"{"a":1}x"#, 7),
            ("[1] [2]", 4),
            ("null,", 4),
            ("42abc", 2),
            ("true  x", 6),
            (r#""done" 0"#, 7),
        ] {
            assert_eq!(parse(text), Err(at), "{text}");
            assert_eq!(validate(text), Err(at), "{text}");
        }
    }

    #[test]
    fn malformed_surrogate_pairs_decode_to_replacement_chars() {
        // Unpairable surrogate halves decode to U+FFFD rather than
        // producing invalid UTF-8 or aborting the parse.
        let cases = [
            ("\"\\udc00\"", "\u{FFFD}"),                // lone low half
            ("\"\\ud800\\ud800\"", "\u{FFFD}\u{FFFD}"), // high + high
            ("\"\\ud83d\"", "\u{FFFD}"),                // high at end of string
            ("\"\\ud83d\\u0041\"", "\u{FFFD}A"),        // high + non-surrogate
            ("\"a\\udfff z\"", "a\u{FFFD} z"),          // low half mid-string
        ];
        for (text, want) in cases {
            assert_eq!(parse(text), Ok(Value::Str(want.into())), "{text}");
        }
        // A truncated \u escape is a hard error, not a replacement.
        assert!(parse("\"\\ud83\"").is_err());
        assert!(parse("\"\\u00\"").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest(r#"{"a":"#, "}", MAX_DEPTH)).is_ok());
        // One level past the bound fails at the opening bracket that
        // crosses it; 200,000 levels fail the same way instead of
        // overflowing the stack.
        assert_eq!(parse(&nest("[", "]", MAX_DEPTH + 1)), Err(MAX_DEPTH));
        assert_eq!(
            parse(&nest(r#"{"a":"#, "}", MAX_DEPTH + 1)),
            Err(5 * MAX_DEPTH)
        );
        assert_eq!(parse(&"[".repeat(200_000)), Err(MAX_DEPTH));
        assert_eq!(validate(&"{\"a\":".repeat(200_000)), Err(5 * MAX_DEPTH));
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{'a':1}",
            r#"{"a":}"#,
            "01a",
            "tru",
            r#"{"a":1} extra"#,
            "\"unterminated",
        ] {
            assert!(validate(bad).is_err(), "{bad}");
        }
    }
}
