//! Thin helpers over `edist::metrics::json` (the repo's own no-deps
//! JSON value) for the rep reports and results files.

pub use edist::metrics::json::Value;

/// An object from `(key, value)` pairs (an array literal or a `Vec`).
pub fn obj<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A number.
pub fn num(x: f64) -> Value {
    Value::Num(x)
}

/// A string.
pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// A `u64` as 16 hex digits (JSON numbers are `f64` and would round it).
pub fn hex(x: u64) -> Value {
    Value::Str(format!("{x:016x}"))
}

/// An array of numbers.
pub fn nums(xs: &[f64]) -> Value {
    Value::Arr(xs.iter().copied().map(Value::Num).collect())
}

/// Field `key` of `v` as a number; `NaN` when absent or not a number.
pub fn f(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// Field `key` of `v` as a string; empty when absent.
pub fn s<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Field `key` of `v` as a number array; empty when absent.
pub fn arr(v: &Value, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}
