//! JSON in and out through the vendored `serde` data model.
//!
//! `serde::Value` itself implements neither trait, so [`Tree`] carries a value
//! through `serde_json::{from_str, to_string}` unchanged.

pub use serde::Value;

struct Tree(Value);

impl serde::Serialize for Tree {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl serde::Deserialize for Tree {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Tree(v.clone()))
    }
}

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Tree>(text)
        .map(|t| t.0)
        .map_err(|e| e.to_string())
}

/// Render compact JSON on one line.
pub fn render(v: &Value) -> String {
    serde_json::to_string(&Tree(v.clone())).expect("every number was made finite by `num`")
}

/// A number as measured, with all its digits; a non-finite one (a ratio of an
/// empty sample) becomes `null` rather than an unparseable token.
pub fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::F64(x)
    } else {
        Value::Null
    }
}

pub fn int(x: u64) -> Value {
    Value::U64(x)
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn obj<K: Into<String>>(entries: Vec<(K, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Field `key` of an object, `None` when absent or not an object.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.field(key).ok()
}

/// A path of nested fields.
pub fn at<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| get(v, key))
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

#[cfg(test)]
pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Map(entries) => entries,
        _ => &[],
    }
}

#[cfg(test)]
pub fn items(v: &Value) -> &[Value] {
    match v {
        Value::Seq(items) => items,
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_round_trip_with_all_digits() {
        let doc = obj(vec![
            ("correct", Value::Bool(true)),
            ("attempted", int(81)),
            (
                "metrics",
                obj(vec![(
                    "lu_s_p50",
                    obj(vec![("value", num(0.118_234_567_891)), ("unit", text("s"))]),
                )]),
            ),
            ("missing", num(f64::NAN)),
        ]);
        let line = render(&doc);
        assert!(!line.contains('\n'));
        let back = parse(&line).unwrap();
        assert_eq!(
            as_f64(at(&back, &["metrics", "lu_s_p50", "value"]).unwrap()),
            Some(0.118_234_567_891)
        );
        assert_eq!(
            as_str(at(&back, &["metrics", "lu_s_p50", "unit"]).unwrap()),
            Some("s")
        );
        assert_eq!(as_f64(get(&back, "attempted").unwrap()), Some(81.0));
        assert_eq!(get(&back, "missing"), Some(&Value::Null));
        assert!(get(&back, "absent").is_none());
        assert_eq!(entries(&back).len(), 4);
        assert!(parse("{\"a\":").is_err());
    }
}
