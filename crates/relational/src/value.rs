//! Attribute values.
//!
//! The paper's expressions are "arithmetic, string" over attributes and
//! constants (Section 3.2); values are hashed "treated as a string" when
//! computing value-level identifiers (Section 4.2). [`Value::canonical`]
//! provides that string form.

use std::fmt;

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
        match self {
            Value::Int(i) => write!(out, "i:{i}"),
            Value::Str(s) => {
                out.write_str("s:")?;
                out.write_str(s)
            }
        }
    }

    /// Length in bytes of the canonical form, without producing it.
    pub fn canonical_len(&self) -> usize {
        2 + match self {
            Value::Int(i) => {
                let digits = i
                    .unsigned_abs()
                    .checked_ilog10()
                    .map_or(1, |d| d as usize + 1);
                digits + usize::from(*i < 0)
            }
            Value::Str(s) => s.len(),
        }
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
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
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
