//! Offline, API-compatible subset of the `serde` crate.
//!
//! The build environment has no access to a crate registry, so the
//! workspace vendors the interface the Armus sources rely on: the
//! [`Serialize`]/[`Deserialize`] traits and their derive macros. Instead
//! of serde's visitor architecture, this subset round-trips through an
//! owned [`Value`] tree (the shape `serde_json` needs), which keeps the
//! hand-written derive in `serde_derive` small. Externally it behaves like
//! serde with JSON: structs become maps, newtype structs are transparent,
//! unit enum variants become strings and newtype variants one-entry maps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing data tree — the wire format of this serde subset.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer.
    UInt(u64),
    /// Signed integer (only produced for negative numbers).
    Int(i64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Map with string keys, insertion-ordered.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a [`Value::Map`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A short name of the variant, for error messages.
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// Error produced when a [`Value`] does not match the requested type.
#[derive(Debug)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// Builds an error with the given message.
    pub fn new(message: impl Into<String>) -> DeError {
        DeError { message: message.into() }
    }

    /// A "found X, expected Y" error.
    pub fn mismatch(expected: &str, found: &Value) -> DeError {
        DeError::new(format!("expected {expected}, found {}", found.kind()))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Types that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Serializes `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes a value of `Self` out of `value`.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

// --- primitive impls -------------------------------------------------------

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let raw = match value {
                    Value::UInt(n) => *n,
                    Value::Int(n) if *n >= 0 => *n as u64,
                    other => return Err(DeError::mismatch("unsigned integer", other)),
                };
                <$t>::try_from(raw).map_err(|_| {
                    DeError::new(format!("{raw} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_serde_uint!(u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Float(x) => Ok(*x),
            Value::UInt(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            other => Err(DeError::mismatch("number", other)),
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::mismatch("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::mismatch("sequence", other)),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Seq(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            other => Err(DeError::mismatch("tuple sequence", other)),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(Vec::<u64>::from_value(&vec![1u64, 2, 3].to_value()).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn mismatches_are_reported() {
        assert!(u64::from_value(&Value::Str("x".into())).is_err());
        assert!(bool::from_value(&Value::UInt(1)).is_err());
        assert!(u64::from_value(&Value::Int(-1)).is_err());
    }

    #[test]
    fn map_lookup() {
        let v = Value::Map(vec![("a".into(), Value::UInt(1))]);
        assert_eq!(v.get("a"), Some(&Value::UInt(1)));
        assert_eq!(v.get("b"), None);
    }
}
