//! Offline stand-in for `serde`.
//!
//! This workspace must build without network access to crates.io, so the
//! real serde cannot be fetched. This shim keeps the same import surface
//! (`use serde::{Serialize, Deserialize}` plus the derive macros) but uses a
//! much simpler model: every serializable value converts to and from a
//! [`Value`] tree, and `serde_json` (also shimmed in `compat/`) renders that
//! tree to JSON text with a *stable canonical encoding* — map entries keep
//! field declaration order and floats format via Rust's shortest-roundtrip
//! `{:?}`, so equal values always produce byte-identical JSON. The
//! experiment engine's content-addressed result cache keys on exactly that
//! property.

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// A JSON-shaped value tree: the data model every `Serialize` type lowers
/// into and every `Deserialize` type is rebuilt from.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All integers, signed or unsigned (i128 covers the full u64 range).
    Int(i128),
    Float(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Declaration-ordered key/value pairs (order is part of the canonical
    /// encoding; no sorting, no deduplication).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Look up a map entry by key.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::custom(format!("missing field `{name}`"))),
            other => Error::expected("a map", other),
        }
    }

    /// Reject a map key that is not one of `fields`, naming it. A derived
    /// `Deserialize` calls this after looking up every declared field, so
    /// a missing field is reported before an unknown one.
    pub fn deny_unknown_fields(&self, fields: &[&str]) -> Result<(), Error> {
        let Value::Map(entries) = self else { return Error::expected("a map", self) };
        match entries.iter().find(|(k, _)| !fields.contains(&k.as_str())) {
            Some((k, _)) => {
                let expected: Vec<String> = fields.iter().map(|f| format!("`{f}`")).collect();
                Err(Error::custom(format!(
                    "unknown field `{k}`, expected one of {}",
                    expected.join(", ")
                )))
            }
            None => Ok(()),
        }
    }

    /// View as a sequence.
    pub fn seq(&self) -> Result<&[Value], Error> {
        match self {
            Value::Seq(items) => Ok(items),
            other => Error::expected("a sequence", other),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a bool",
            Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::Str(_) => "a string",
            Value::Seq(_) => "a sequence",
            Value::Map(_) => "a map",
        }
    }
}

/// Serialization/deserialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl Error {
    pub fn custom(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }

    fn expected<T>(what: &str, got: &Value) -> Result<T, Error> {
        Err(Error(format!("expected {what}, found {}", got.kind())))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Lower `self` into the [`Value`] data model.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Rebuild `Self` from the [`Value`] data model.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i).map_err(|_| {
                        Error::custom(format!(
                            "integer {i} out of range for {}", stringify!($t)
                        ))
                    }),
                    other => Error::expected("an integer", other),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(x) => Ok(*x as $t),
                    // JSON has one number type: accept integer tokens too.
                    Value::Int(i) => Ok(*i as $t),
                    // Non-finite floats round-trip through JSON null.
                    Value::Null => Ok(<$t>::NAN),
                    other => Error::expected("a number", other),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Error::expected("a bool", other),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Error::expected("a string", other),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

/// `&'static str` deserialization leaks the parsed string. Only used for
/// static-table types (e.g. benchmark profiles) in tests; fine for a shim.
impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            other => Error::expected("a string", other),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.seq()?.iter().map(Deserialize::from_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v.seq()?;
        if items.len() != N {
            return Err(Error::custom(format!(
                "expected an array of {N} elements, found {}",
                items.len()
            )));
        }
        let parsed: Vec<T> = items.iter().map(Deserialize::from_value).collect::<Result<_, _>>()?;
        parsed.try_into().map_err(|_| Error::custom("array length changed during conversion"))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $idx:tt),+) => $n:expr;)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.seq()?;
                if items.len() != $n {
                    return Err(Error::custom(format!(
                        "expected a tuple of {} elements, found {}", $n, items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0) => 1;
    (A: 0, B: 1) => 2;
    (A: 0, B: 1, C: 2) => 3;
    (A: 0, B: 1, C: 2, D: 3) => 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_field_lookup() {
        let v = Value::Map(vec![("a".into(), Value::Int(1))]);
        assert_eq!(v.field("a").unwrap(), &Value::Int(1));
        assert!(v.field("b").is_err());
    }

    #[test]
    fn unknown_fields_are_named() {
        let v = Value::Map(vec![("a".into(), Value::Int(1)), ("c".into(), Value::Int(2))]);
        assert!(v.deny_unknown_fields(&["a", "c"]).is_ok());
        let e = v.deny_unknown_fields(&["a", "b"]).unwrap_err().to_string();
        assert_eq!(e, "unknown field `c`, expected one of `a`, `b`");
        assert!(Value::Int(1).deny_unknown_fields(&[]).is_err());
    }

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(f64::from_value(&0.25f64.to_value()).unwrap(), 0.25);
        assert_eq!(f64::from_value(&Value::Int(3)).unwrap(), 3.0);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(String::from_value(&"hi".to_string().to_value()).unwrap(), "hi");
        assert!(u8::from_value(&Value::Int(300)).is_err());
    }

    #[test]
    fn compound_roundtrips() {
        let v = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::from_value(&v.to_value()).unwrap(), v);
        let a = [0.5f64, 1.5];
        assert_eq!(<[f64; 2]>::from_value(&a.to_value()).unwrap(), a);
        let t = (1u64, 2.5f64, 3u64);
        assert_eq!(<(u64, f64, u64)>::from_value(&t.to_value()).unwrap(), t);
        let o: Option<u64> = None;
        assert_eq!(Option::<u64>::from_value(&o.to_value()).unwrap(), None);
    }

    #[test]
    fn nonfinite_floats_roundtrip_via_null() {
        let v = f64::NAN.to_value();
        // The JSON writer maps non-finite to null; Deserialize accepts it.
        assert!(f64::from_value(&Value::Null).unwrap().is_nan());
        assert!(matches!(v, Value::Float(_)));
    }
}
