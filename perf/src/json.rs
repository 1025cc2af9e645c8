//! Minimal typed JSON: numbers stay numbers, and an object refuses a key
//! it already holds, so every document this benchmark writes has unique
//! keys.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    /// A finite number; [`Json::num`] rejects NaN and infinities.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Object),
}

/// An insertion-ordered object whose keys are unique.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object(Vec<(String, Json)>);

impl Json {
    /// A number.
    ///
    /// # Panics
    /// Panics on a non-finite value, which JSON cannot represent.
    pub fn num(v: f64) -> Json {
        assert!(v.is_finite(), "JSON cannot hold the non-finite number {v}");
        Json::Num(v)
    }

    /// A string.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact serialization on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `Display` for f64 prints the shortest string that reads back
            // to the same value, never in exponent form.
            Json::Num(v) => write!(out, "{v}").expect("writing to a String"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(obj) => {
                out.push('{');
                for (i, (k, v)) in obj.0.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl Object {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `key`, builder style.
    ///
    /// # Panics
    /// Panics when `key` is already present: two values under one key is a
    /// bug in the code that assembles the document.
    pub fn with(mut self, key: &str, value: Json) -> Self {
        self.insert(key, value);
        self
    }

    /// Add `key`.
    ///
    /// # Panics
    /// Panics when `key` is already present (see [`Object::with`]).
    pub fn insert(&mut self, key: &str, value: Json) {
        assert!(
            self.0.iter().all(|(k, _)| k != key),
            "duplicate key {key:?} in JSON object"
        );
        self.0.push((key.to_string(), value));
    }

    /// The value under `key`.
    #[cfg(test)]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Keys in insertion order.
    #[cfg(test)]
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(k, _)| k.as_str())
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a JSON document (test support: reading `BENCHMARK.json` and
/// checking rendered output). `null` is not accepted; nothing here uses it.
#[cfg(test)]
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

#[cfg(test)]
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut obj = Object::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(obj));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    if obj.get(&key).is_some() {
                        return Err(format!("duplicate key {key:?}"));
                    }
                    self.eat(b':')?;
                    let v = self.value()?;
                    obj.insert(&key, v);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(obj));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("dangling escape")?;
                    self.i += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            let ch = char::from_u32(code).ok_or("bad \\u escape")?;
                            out.extend_from_slice(ch.to_string().as_bytes());
                            self.i += 4;
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "duplicate key \"latency_ms_p50\"")]
    fn objects_refuse_a_repeated_key() {
        let _ = Object::new()
            .with("latency_ms_p50", Json::num(1.0))
            .with("latency_ms_p50", Json::num(2.0));
    }

    #[test]
    fn numbers_render_as_numbers_with_all_digits() {
        let doc = Json::Obj(
            Object::new()
                .with("schema", Json::num(1.0))
                .with("value", Json::num(0.1 + 0.2))
                .with("tiny", Json::num(1.5e-7))
                .with("name", Json::str("a \"b\"\n")),
        );
        let text = doc.render();
        assert_eq!(
            text,
            "{\"schema\": 1, \"value\": 0.30000000000000004, \"tiny\": 0.00000015, \
             \"name\": \"a \\\"b\\\"\\n\"}"
        );
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn the_parser_rejects_duplicate_keys() {
        assert!(parse("{\"a\": 1, \"a\": 2}").is_err());
        assert!(parse("{\"a\": [1, 2, {\"b\": false}]}").is_ok());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_numbers_are_refused() {
        let _ = Json::num(f64::NAN);
    }
}
