//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this workspace vendors a minimal,
//! API-compatible implementation of exactly the serde surface the codebase uses: the
//! `Serialize` derive macro and (through `serde_json`) JSON output. Instead of serde's
//! visitor architecture, everything funnels through a concrete [`Value`] tree: `Serialize`
//! renders a value into a tree, which `serde_json` writes. Nothing is deserialized: the
//! workspace writes reports, fixtures and figures and reads none back into a typed value,
//! and what JSON it does read (the hot-path baseline, the benchmark's own output) it walks
//! as a [`Value`].
//!
//! Representation choices (documented because artifacts on disk depend on them):
//! * structs → JSON objects keyed by field name;
//! * tuple structs and pairs → JSON arrays;
//! * unit enum variants → the variant name as a string;
//! * data-carrying enum variants → a single-key object `{"Variant": ...}`;
//! * `Option` → the value or `null`.

pub use serde_derive::Serialize;

/// A serialization or JSON parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn custom(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// The serialized form of any value: a JSON-shaped tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer too large for `i64`.
    U64(u64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered set of key/value pairs (insertion order preserved).
    Object(Vec<(String, Value)>),
}

/// A `null` with a `'static` lifetime, handed out for missing object fields.
pub static NULL_VALUE: Value = Value::Null;

impl Value {
    /// Looks up a field of an object; missing fields resolve to `null`.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(pairs) => Ok(pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or(&NULL_VALUE)),
            other => Err(Error::custom(format!(
                "expected object with field `{name}`, found {}",
                other.kind()
            ))),
        }
    }

    /// A short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) => "integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Renders `self` into a [`Value`] tree.
pub trait Serialize {
    /// The value-tree form of `self`.
    fn to_value(&self) -> Value;
}

// --- primitive impls -------------------------------------------------------------------

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize, u8, u16, u32, usize);

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        if *self <= i64::MAX as u64 {
            Value::I64(*self as i64)
        } else {
            Value::U64(*self)
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

// --- composite impls -------------------------------------------------------------------

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_serializes_as_its_value_or_null() {
        assert_eq!(Some(7u32).to_value(), Value::I64(7));
        assert_eq!(Option::<u32>::None.to_value(), Value::Null);
    }

    #[test]
    fn missing_field_is_null() {
        let obj = Value::Object(vec![("a".into(), Value::I64(1))]);
        assert_eq!(obj.field("b").unwrap(), &Value::Null);
        assert_eq!(obj.field("a").unwrap(), &Value::I64(1));
    }

    /// A `u64` past `i64::MAX` keeps every bit, as `U64`.
    #[test]
    fn big_u64_round_trip() {
        let big = u64::MAX - 3;
        assert_eq!(big.to_value(), Value::U64(big));
        assert_eq!(7u64.to_value(), Value::I64(7));
    }
}
