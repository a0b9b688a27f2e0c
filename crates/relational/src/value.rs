//! Attribute values.
//!
//! The paper's expressions are "arithmetic, string" over attributes and
//! constants (Section 3.2); values are hashed "treated as a string" when
//! computing value-level identifiers (Section 4.2). [`Value::canonical`]
//! provides that string form.

use std::fmt;

use crate::error::{RelationalError, Result};

/// The type of an attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Str => write!(f, "STRING"),
        }
    }
}

/// A single attribute value.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// String value.
    Str(String),
}

impl Value {
    /// The value's type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Str(_) => DataType::Str,
        }
    }

    /// The canonical string form used for value-level hashing
    /// (`Hash(R + A + v)` — "when the value of an attribute is numeric,
    /// this value is also treated as a string").
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.canonical_into(&mut out);
        out
    }

    /// Appends the canonical form to `out` without allocating an
    /// intermediate string. Hot paths that already hold a buffer (or a
    /// [`crate::Tuple`], which caches its canonical forms) should prefer
    /// this over [`Value::canonical`].
    pub fn canonical_into(&self, out: &mut String) {
        let _ = self.write_canonical(out); // writing to a `String` cannot fail
    }

    /// Writes the canonical form to any formatter sink (a `String`, a
    /// `Formatter`, an encoder's byte buffer).
    pub fn write_canonical<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        ValueRef::from(self).write_canonical(out)
    }

    /// Length in bytes of the canonical form, without producing it.
    pub fn canonical_len(&self) -> usize {
        ValueRef::from(self).canonical_len()
    }

    /// Integer content, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(_) => None,
        }
    }

    /// String content, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Int(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ValueRef::from(self).fmt(f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A [`Value`] borrowed: an integer, or a string's text. It is what a
/// canonical form reads back as ([`ValueRef::parse_canonical`]) without
/// copying the string, and it compares, hashes, prints and writes its
/// canonical form exactly as the [`Value`] it stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueRef<'a> {
    /// Integer value.
    Int(i64),
    /// String value.
    Str(&'a str),
}

impl<'a> ValueRef<'a> {
    /// Reads a canonical form ([`Value::canonical`]) back: `i:` and the
    /// integer in decimal, or `s:` and the string. Only what
    /// [`Value::write_canonical`] writes is accepted — `i:+7` and `i:07`
    /// are errors — so forms and values correspond one to one.
    pub fn parse_canonical(form: &'a str) -> Result<ValueRef<'a>> {
        let malformed = |offset, detail: &str| RelationalError::ParseError {
            offset,
            detail: format!("{detail} in the canonical value {form:?}"),
        };
        match form.split_at_checked(2) {
            Some(("s:", text)) => Ok(ValueRef::Str(text)),
            Some(("i:", digits)) => {
                let value = digits
                    .parse()
                    .map(ValueRef::Int)
                    .map_err(|_| malformed(2, "no integer"))?;
                if value.canonical_len() != form.len() {
                    return Err(malformed(2, "a non-canonical integer"));
                }
                Ok(value)
            }
            _ => Err(malformed(0, "no `i:` or `s:` type tag")),
        }
    }

    /// See [`Value::write_canonical`].
    pub fn write_canonical<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        match self {
            ValueRef::Int(i) => write!(out, "i:{i}"),
            ValueRef::Str(s) => {
                out.write_str("s:")?;
                out.write_str(s)
            }
        }
    }

    /// See [`Value::canonical_len`].
    pub fn canonical_len(self) -> usize {
        2 + match self {
            ValueRef::Int(i) => {
                let digits = i
                    .unsigned_abs()
                    .checked_ilog10()
                    .map_or(1, |d| d as usize + 1);
                digits + usize::from(i < 0)
            }
            ValueRef::Str(s) => s.len(),
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    #[inline]
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Int(i) => ValueRef::Int(*i),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

impl From<ValueRef<'_>> for Value {
    fn from(v: ValueRef<'_>) -> Self {
        match v {
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Str(s) => Value::Str(s.to_string()),
        }
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// A logical timestamp (the simulator's synchronized clock; the paper assumes
/// NTP-synchronized real clocks, see DESIGN.md "Substitutions").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(pub u64);

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_disambiguates_types() {
        assert_ne!(
            Value::Int(42).canonical(),
            Value::Str("42".into()).canonical()
        );
    }

    #[test]
    fn canonical_is_injective_on_ints() {
        assert_ne!(Value::Int(1).canonical(), Value::Int(11).canonical());
        assert_ne!(Value::Int(-1).canonical(), Value::Int(1).canonical());
    }

    #[test]
    fn canonical_len_is_the_length_of_the_canonical_form() {
        let ints = [0, 1, -1, 9, 10, -10, 99, 100, i64::MAX, i64::MIN];
        let values = ints
            .into_iter()
            .map(Value::Int)
            .chain(["", "x", "a+s:b", "héllo"].map(Value::from));
        for v in values {
            assert_eq!(v.canonical_len(), v.canonical().len(), "{v}");
        }
    }

    #[test]
    fn a_canonical_form_reads_back_as_its_value() {
        let long = "x".repeat(23);
        let ints = [0, 7, -1, 10, i64::MAX, i64::MIN].map(Value::Int);
        let strs = ["", "+", ":", "a+s:b", "i:7", "héllo", &long].map(Value::from);
        for v in ints.into_iter().chain(strs) {
            let form = v.canonical();
            let back = ValueRef::parse_canonical(&form).unwrap();
            assert_eq!(back, ValueRef::from(&v), "{form}");
            assert_eq!(Value::from(back), v, "{form}");
            assert_eq!(
                (back.to_string(), back.canonical_len()),
                (v.to_string(), form.len())
            );
        }
        assert_eq!(Value::Int(i64::MIN).canonical().len(), 22);
        assert!(Value::from(long.as_str()).canonical().len() > 22);
    }

    #[test]
    fn a_malformed_canonical_form_is_an_error() {
        for (form, offset) in [
            ("x:1", 0),
            ("i", 0),
            ("", 0),
            ("I:1", 0),
            ("é", 0),
            ("i:abc", 2),
            ("i:", 2),
            ("i:+7", 2),
            ("i:07", 2),
            ("i:-0", 2),
            ("i:9223372036854775808", 2),
        ] {
            match ValueRef::parse_canonical(form) {
                Err(RelationalError::ParseError { offset: at, .. }) => {
                    assert_eq!(at, offset, "{form}")
                }
                other => panic!("{form:?} read back as {other:?}"),
            }
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7), Value::Int(7));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Int(7).as_str(), None);
    }

    #[test]
    fn timestamps_order() {
        assert!(Timestamp(1) < Timestamp(2));
    }
}
