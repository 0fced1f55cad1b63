//! A minimal JSON reader/writer for the `mighty serve` wire protocol.
//!
//! The workspace has a zero-third-party-deps invariant, so the
//! line-delimited JSON protocol is parsed by this small
//! recursive-descent parser instead of `serde`. It implements the full JSON value
//! grammar (objects, arrays, strings with escapes, numbers, booleans,
//! null) with a nesting-depth cap, which is all a one-request-per-line
//! protocol needs; serialization goes through [`escape_str`] plus the
//! hand-rolled writers in the serve module, matching the style
//! `bench::to_json` already uses for the trajectory file.

use std::collections::BTreeMap;

/// Maximum nesting depth accepted by the parser — far above anything
/// the protocol produces, low enough that a hostile request cannot
/// overflow the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object keys are kept in a `BTreeMap`: protocol
/// objects are tiny and deterministic iteration keeps everything
/// reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (the protocol only uses integers that fit `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (the protocol is one value per line).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The string value of object member `key`, if present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The numeric value of object member `key`, if present.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value of object member `key`, if present.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// Object member lookup (`None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Take each run of plain bytes in one step. A run ends at an
            // ASCII byte or at the end of input, and the input is a
            // `&str`, so every run is whole UTF-8.
            let start = self.pos;
            while self.peek().is_some_and(is_plain) {
                self.pos += 1;
            }
            if self.pos > start {
                let run = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8")?;
                out.push_str(run);
            }
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code =
                                self.hex4(self.pos, "truncated \\u escape", "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs: the protocol never emits
                            // them, but accept well-formed ones.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let lo = self.hex4(
                                        self.pos + 2,
                                        "truncated surrogate",
                                        "bad surrogate",
                                    )?;
                                    self.pos += 6;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err("bad surrogate pair".into());
                                    }
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).ok_or("bad surrogate pair")?
                                } else {
                                    return Err("lone surrogate".into());
                                }
                            } else {
                                char::from_u32(code).ok_or("bad \\u code point")?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(format!("bad escape `\\{}`", other as char));
                        }
                    }
                }
                Some(_) => return Err("raw control character in string".into()),
            }
        }
    }

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize, truncated: &str, bad: &str) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or(truncated)?;
        let hex = std::str::from_utf8(hex).map_err(|_| bad)?;
        u32::from_str_radix(hex, 16).map_err(|_| bad.into())
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
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
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Whether byte `b` stands for itself inside a JSON string: everything
/// except `"`, `\` and the control bytes below 0x20. Every byte of a
/// multi-byte UTF-8 character is plain.
fn is_plain(b: u8) -> bool {
    b >= 0x20 && b != b'"' && b != b'\\'
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included). Verilog payloads ride through this, so newlines, quotes
/// and control characters all round-trip. Runs of plain bytes are
/// copied whole.
pub fn escape_str(s: &str) -> String {
    // Room for the escapes of a netlist: a newline every few dozen bytes.
    let mut out = String::with_capacity(s.len() + s.len() / 8 + 2);
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if is_plain(b) {
            continue;
        }
        // `b` is ASCII, so `i` is a character boundary.
        out.push_str(&s[start..i]);
        start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
    }
    out.push_str(&s[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    use mig_netlist::SplitMix64;

    #[test]
    fn parses_protocol_shaped_requests() {
        let v = Json::parse(
            r#"{"id": 7, "netlist": "module m;\nendmodule\n", "flow": "size*2; rewrite", "effort": 2, "progress": true}"#,
        )
        .unwrap();
        assert_eq!(v.get_num("id"), Some(7.0));
        assert_eq!(v.get_str("flow"), Some("size*2; rewrite"));
        assert_eq!(v.get_str("netlist"), Some("module m;\nendmodule\n"));
        assert_eq!(v.get_bool("progress"), Some(true));
        assert_eq!(v.get_str("missing"), None);
    }

    #[test]
    fn parses_scalars_arrays_and_nesting() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e1").unwrap(), Json::Num(-125.0));
        let v = Json::parse(r#"[1, [2, {"a": []}], "x"]"#).unwrap();
        match &v {
            Json::Arr(items) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash \u{1} end";
        let wire = format!("\"{}\"", escape_str(nasty));
        assert_eq!(Json::parse(&wire).unwrap(), Json::Str(nasty.to_string()));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9""#).unwrap(),
            Json::Str("Aé".to_string())
        );
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".to_string())
        );
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "[1,",
            "\"unterminated",
            "tru",
            "01a",
            "{} trailing",
            "\"\\q\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udbff\\uffff\"",
            "nul",
            "--3",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
        // Depth bomb: must error, not blow the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    /// The char-at-a-time string scanner the codec used before it took
    /// plain runs whole: it validated the rest of the input for every
    /// plain character, O(n²) in the string. Kept as the lockstep
    /// reference, verbatim but for one check: a high surrogate followed
    /// by a `\u` escape outside DC00–DFFF is `bad surrogate pair`. The
    /// old arithmetic underflowed there, a panic in debug builds and a
    /// wrong character in release.
    fn reference_string(p: &mut Parser) -> Result<String, String> {
        p.expect(b'"')?;
        let mut out = String::new();
        loop {
            match p.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    let esc = p.peek().ok_or("unterminated escape")?;
                    p.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = p
                                .bytes
                                .get(p.pos..p.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            p.pos += 4;
                            // Surrogate pairs: the protocol never emits
                            // them, but accept well-formed ones.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if p.bytes.get(p.pos) == Some(&b'\\')
                                    && p.bytes.get(p.pos + 1) == Some(&b'u')
                                {
                                    let lo = p
                                        .bytes
                                        .get(p.pos + 2..p.pos + 6)
                                        .ok_or("truncated surrogate")?;
                                    let lo =
                                        std::str::from_utf8(lo).map_err(|_| "bad surrogate")?;
                                    let lo =
                                        u32::from_str_radix(lo, 16).map_err(|_| "bad surrogate")?;
                                    p.pos += 6;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err("bad surrogate pair".into());
                                    }
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).ok_or("bad surrogate pair")?
                                } else {
                                    return Err("lone surrogate".into());
                                }
                            } else {
                                char::from_u32(code).ok_or("bad \\u code point")?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(format!("bad escape `\\{}`", other as char));
                        }
                    }
                }
                Some(b) if b < 0x20 => return Err("raw control character in string".into()),
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest =
                        std::str::from_utf8(&p.bytes[p.pos..]).map_err(|_| "invalid utf-8")?;
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    p.pos += ch.len_utf8();
                }
            }
        }
    }

    /// The char-at-a-time escaper, kept as the lockstep reference.
    fn reference_escape_str(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// One random piece of string-literal body: plain ASCII, 2-, 3- and
    /// 4-byte UTF-8, every escape (surrogate pairs, lone and mismatched
    /// surrogates, bad and truncated ones), raw control bytes, or the
    /// closing quote, possibly with trailing data.
    fn random_piece(rng: &mut SplitMix64, out: &mut String) {
        const PLAIN: &[&str] = &[
            "a",
            "module m;",
            " ",
            "/",
            "~",
            "é",
            "ß",
            "€",
            "中",
            "😀",
            "𝄞",
        ];
        const ESCAPES: &[&str] = &[
            "\\\"",
            "\\\\",
            "\\/",
            "\\b",
            "\\f",
            "\\n",
            "\\r",
            "\\t",
            "\\q",
            "\\é",
            "\\u0041",
            "\\u00e9",
            "\\u00E9",
            "\\u20ac",
            "\\u0000",
            "\\u+041",
            "\\u12",
            "\\u12g4",
            "\\ud83d\\ude00",
            "\\uD834\\uDD1E",
            "\\ud800",
            "\\udc00",
            "\\ud800\\u0041",
            "\\udbff\\uffff",
            "\\ud800\\udc",
            "\\ud800\\n",
            "\\ud800x",
            "\\u00é",
        ];
        match rng.gen_range(0..100) {
            0..=49 => out.push_str(PLAIN[rng.gen_range(0..PLAIN.len())]),
            50..=59 => {
                // Any scalar value, 1 to 4 bytes of UTF-8.
                let hi = [0x80, 0x800, 0x10000, 0x110000][rng.gen_range(0..4)];
                let c = loop {
                    if let Some(c) = char::from_u32(rng.gen_range(0x20..hi) as u32) {
                        break c;
                    }
                };
                out.push(c);
            }
            60..=89 => out.push_str(ESCAPES[rng.gen_range(0..ESCAPES.len())]),
            90..=95 => out.push(char::from(rng.gen_range(0..0x20) as u8)),
            96..=97 => out.push('"'),
            _ => out.push_str("\"\\"),
        }
    }

    #[test]
    fn string_scanner_matches_the_char_at_a_time_reference() {
        let mut rng = SplitMix64::seed_from_u64(0x5EED_0025);
        let (mut ok, mut err) = (0, 0);
        for _ in 0..20_000 {
            let mut text = String::from("\"");
            for _ in 0..rng.gen_range(0..24) {
                random_piece(&mut rng, &mut text);
            }
            if rng.gen_bool(0.7) {
                text.push('"');
            }
            let mut new = Parser {
                bytes: text.as_bytes(),
                pos: 0,
            };
            let mut old = Parser {
                bytes: text.as_bytes(),
                pos: 0,
            };
            let got = new.string();
            let want = reference_string(&mut old);
            assert_eq!(got, want, "on {text:?}");
            if got.is_ok() {
                assert_eq!(new.pos, old.pos, "on {text:?}");
                ok += 1;
            } else {
                err += 1;
            }
        }
        // Both outcomes are well represented.
        assert!(ok > 2_000 && err > 2_000, "{ok} accepted, {err} rejected");
    }

    #[test]
    fn escape_matches_the_reference_and_round_trips() {
        let mut rng = SplitMix64::seed_from_u64(0xE5C_0025);
        for _ in 0..5_000 {
            let mut s = String::new();
            for _ in 0..rng.gen_range(0..32) {
                let hi = [0x20, 0x80, 0x800, 0x10000, 0x110000][rng.gen_range(0..5)];
                match rng.gen_range(0..4) {
                    0 => s.push(['"', '\\', '\n', '\r', '\t'][rng.gen_range(0..5)]),
                    _ => {
                        if let Some(c) = char::from_u32(rng.gen_range(0..hi) as u32) {
                            s.push(c);
                        }
                    }
                }
            }
            let escaped = escape_str(&s);
            assert_eq!(escaped, reference_escape_str(&s), "on {s:?}");
            let wire = format!("\"{escaped}\"");
            assert_eq!(Json::parse(&wire), Ok(Json::Str(s)));
        }
    }

    #[test]
    fn a_4_mib_string_parses_in_linear_time() {
        // The reference scanner needs minutes for this; a linear one
        // takes milliseconds even unoptimized.
        let line = "  assign w17 = (a & b) | \"é€😀\" ;\n";
        let mut netlist = String::new();
        while netlist.len() < 4 << 20 {
            netlist.push_str(line);
        }
        let wire = format!("{{\"id\": 1, \"netlist\": \"{}\"}}", escape_str(&netlist));
        let start = Instant::now();
        let v = Json::parse(&wire).unwrap();
        let took = start.elapsed();
        assert_eq!(v.get_str("netlist"), Some(netlist.as_str()));
        assert!(took < Duration::from_secs(5), "4 MiB parsed in {took:?}");
    }
}
