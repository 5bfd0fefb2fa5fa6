//! A minimal dependency-free JSON parser.
//!
//! Exists so the trace validator can check exported documents by
//! actually parsing them (rather than substring matching) without
//! pulling in serde. Supports the full JSON grammar with the usual
//! in-memory value tree; numbers are kept as `f64` plus the raw lexeme
//! so integer timestamps survive exactly.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; the raw lexeme is preserved alongside the parsed
    /// value.
    Num(f64, String),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys keep insertion order is *not* required by the
    /// validator, so a sorted map is fine.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n, _) => Some(*n),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable message (with byte offset) on malformed
/// input or trailing garbage.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { text: input, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.err(&format!("expected '{text}'"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let lexeme = &self.text[start..self.pos];
        match lexeme.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n, lexeme.to_string())),
            _ => self.err("malformed number"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex =
                                self.text.get(self.pos + 1..self.pos + 5).ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogates are not produced by our writer;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape.
                    // Both delimiters are ASCII, so `pos` stays on a
                    // char boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
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
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
        assert_eq!(parse("3.5").unwrap().as_f64(), Some(3.5));
        assert_eq!(parse("-12e2").unwrap().as_f64(), Some(-1200.0));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":"x\ny"},[]],"c":{}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(arr[2], Json::Arr(vec![]));
        assert_eq!(v.get("c").unwrap(), &Json::Obj(BTreeMap::new()));
    }

    #[test]
    fn unescapes_unicode() {
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap().as_str(), Some("Aé"));
    }

    /// `string` used to re-validate the whole remainder as UTF-8 for
    /// every character: quadratic, a minute on a 3.5 MB trace.
    #[test]
    fn string_heavy_documents_parse_in_linear_time() {
        let item = format!("\"{}é\\n\"", "x".repeat(4096));
        let doc = format!("[{}]", vec![item; 1024].join(","));
        assert!(doc.len() >= 4 << 20);
        let parsed = parse(&doc).unwrap();
        let items = parsed.as_arr().unwrap();
        assert_eq!(items.len(), 1024);
        assert_eq!(items[1023].as_str().map(str::len), Some(4096 + 2 + 1));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "12 34", "nul", "{\"a\":}"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn number_lexeme_is_preserved() {
        match parse("1234.567").unwrap() {
            Json::Num(n, raw) => {
                assert_eq!(n, 1234.567);
                assert_eq!(raw, "1234.567");
            }
            other => panic!("expected number, got {other:?}"),
        }
    }
}
