//! The workspace's one JSON writer (the build environment has no serde).
//!
//! Every document the repo emits — the [`crate::Sheet`]s of the
//! `reproduce` reports and the Chrome trace — is written through
//! [`JsonWriter`], which alone places separators, tracks nesting and
//! escapes strings. Output is byte-identical for identical call
//! sequences, which the CI baseline and the artefact `cmp`s rely on.

use std::fmt::Write as _;

/// A streaming JSON writer: fields are emitted in call order, with no
/// whitespace.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open object/array: whether a value was already
    /// written at that level (so the next one needs a comma).
    has_value: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer. Open a root object or array first.
    pub fn new() -> Self {
        Self {
            // No document the repo writes is under a few KiB, and the
            // trace export paid 6 % for growing there from nothing (E31).
            buf: String::with_capacity(16 * 1024),
            ..Self::default()
        }
    }

    /// Appends `s` as a quoted, escaped JSON string — the only place in
    /// the workspace that escapes one.
    pub fn quote_into(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Places the separator for one more value — a named field when
    /// `key` is given, an array element / root value otherwise — and
    /// returns the buffer for the caller to append that value's JSON
    /// text to (a fixed-shape template, a number in a chosen format).
    /// The caller vouches that what it appends is one valid JSON value.
    pub fn raw(&mut self, key: Option<&str>) -> &mut String {
        if let Some(top) = self.has_value.last_mut() {
            if *top {
                self.buf.push(',');
            }
            *top = true;
        }
        if let Some(key) = key {
            Self::quote_into(key, &mut self.buf);
            self.buf.push(':');
        }
        &mut self.buf
    }

    /// Opens an object — as a named field when `key` is given, as an
    /// array element / root value otherwise.
    pub fn begin_obj(&mut self, key: Option<&str>) -> &mut Self {
        self.raw(key).push('{');
        self.has_value.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.has_value.pop();
        self.buf.push('}');
        self
    }

    /// Opens an array — named or positional, like [`JsonWriter::begin_obj`].
    pub fn begin_arr(&mut self, key: Option<&str>) -> &mut Self {
        self.raw(key).push('[');
        self.has_value.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.has_value.pop();
        self.buf.push(']');
        self
    }

    /// Writes a string field (escaped).
    pub fn str_field(&mut self, key: &str, v: &str) -> &mut Self {
        Self::quote_into(v, self.raw(Some(key)));
        self
    }

    /// Writes an unsigned integer field.
    pub fn u64_field(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.raw(Some(key)), "{v}");
        self
    }

    /// Returns the accumulated document.
    ///
    /// # Panics
    ///
    /// Panics if objects/arrays are still open (a writer bug at the call
    /// site, not a data condition).
    pub fn finish(self) -> String {
        assert!(
            self.has_value.is_empty(),
            "JsonWriter finished with {} unclosed scopes",
            self.has_value.len()
        );
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_writer_builds_nested_documents() {
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.begin_obj(Some("workload"))
            .str_field("experiment", "redis")
            .u64_field("ops", 5000);
        let _ = write!(w.raw(Some("mreq")), "{}", 1.25);
        w.end_obj().begin_arr(Some("rows"));
        for i in 0..2u64 {
            w.begin_obj(None).u64_field("i", i).end_obj();
        }
        w.end_arr();
        let _ = write!(w.raw(Some("mbps")), "{:.3}", 2.5);
        w.end_obj();
        assert_eq!(
            w.finish(),
            "{\"workload\":{\"experiment\":\"redis\",\"ops\":5000,\"mreq\":1.25},\
             \"rows\":[{\"i\":0},{\"i\":1}],\"mbps\":2.500}"
        );
    }

    #[test]
    fn json_writer_escapes_strings() {
        let mut w = JsonWriter::new();
        w.begin_obj(None)
            .str_field("k\"1", "a\\b\nc\u{1}")
            .end_obj();
        assert_eq!(w.finish(), "{\"k\\\"1\":\"a\\\\b\\nc\\u0001\"}");
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn json_writer_panics_on_unclosed_scope() {
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        let _ = w.finish();
    }

    #[test]
    fn raw_elements_take_their_commas_from_the_writer() {
        let mut w = JsonWriter::new();
        w.begin_arr(None);
        w.raw(None).push_str("{\"ph\":\"X\"}");
        w.begin_obj(None).u64_field("i", 1).end_obj();
        w.raw(None).push_str("[2]");
        w.end_arr();
        assert_eq!(w.finish(), "[{\"ph\":\"X\"},{\"i\":1},[2]]");
    }

    /// A type that writes itself into someone else's document: as a named
    /// field of the open object, as an array element, or as the root.
    #[test]
    fn nested_embeds_land_as_field_element_or_root() {
        fn embed(w: &mut JsonWriter, key: Option<&str>) {
            w.begin_obj(key).u64_field("x", 1).end_obj();
        }
        let mut w = JsonWriter::new();
        embed(&mut w, None);
        assert_eq!(w.finish(), "{\"x\":1}");

        let mut w = JsonWriter::new();
        w.begin_obj(None).u64_field("before", 0);
        embed(&mut w, Some("stats"));
        w.begin_arr(Some("all"));
        embed(&mut w, None);
        embed(&mut w, None);
        w.end_arr().end_obj();
        assert_eq!(
            w.finish(),
            "{\"before\":0,\"stats\":{\"x\":1},\"all\":[{\"x\":1},{\"x\":1}]}"
        );
    }
}
