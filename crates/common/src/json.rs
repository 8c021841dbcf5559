//! Minimal JSON document builder for machine-readable output.
//!
//! The bench binaries emit one JSON line per run/interval so harnesses
//! can track series and percentiles without scraping text tables. There
//! is no external JSON dependency in this workspace, so this module
//! provides a tiny value tree + renderer.
//! Escaping covers the control/quote/backslash set; floats render with
//! enough precision to round-trip typical metric magnitudes.

use std::fmt::Write as _;

/// A JSON value tree. Object fields keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert/append a field (objects only; panics otherwise — misuse is
    /// a programming error, not a runtime condition).
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Obj(fields) => fields.push((key.into(), value.into())),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Builder-style field insertion.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Json>) -> Self {
        self.set(key, value);
        self
    }

    /// The value under `key`, added as an empty object if absent (objects
    /// only; panics otherwise, as [`Json::set`] does).
    pub fn entry(&mut self, key: &str) -> &mut Json {
        let Json::Obj(fields) = self else { panic!("Json::entry on a non-object") };
        let i = match fields.iter().position(|(k, _)| k == key) {
            Some(i) => i,
            None => {
                fields.push((key.to_owned(), Json::obj()));
                fields.len() - 1
            }
        };
        &mut fields[i].1
    }

    /// Render to a compact single-line JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // Shortest representation that round-trips f64.
                    let _ = write!(out, "{v}");
                    // `{}` prints integral floats without a dot; keep JSON
                    // number form (a bare `5` is still valid JSON, fine).
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
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

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
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

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = Json::obj()
            .with("experiment", "exp1")
            .with("tpmc", 1234.5)
            .with("series", Json::Arr(vec![Json::U64(1), Json::U64(2)]))
            .with("nested", Json::obj().with("p50_ns", 42u64));
        assert_eq!(
            doc.render(),
            r#"{"experiment":"exp1","tpmc":1234.5,"series":[1,2],"nested":{"p50_ns":42}}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let doc = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(doc.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }
}
