//! SQL runtime values shared by the parser's literal nodes and the
//! in-memory database engine.

use std::cmp::Ordering;
use std::fmt;

/// A SQL value: the dynamic type flowing through expression evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL `NULL`.
    Null,
    /// A 64-bit integer.
    Int(i64),
    /// A double-precision float.
    Float(f64),
    /// A string (MySQL's VARCHAR/TEXT family, un-escaped).
    Str(String),
}

impl Value {
    /// MySQL-style truthiness: `NULL` and zero are false, everything else
    /// true. Strings coerce through their numeric prefix, so `'1x'` is
    /// true and `'abc'` is false — the coercion SQLi tautologies rely on.
    ///
    /// # Examples
    ///
    /// ```
    /// use joza_sqlparse::Value;
    ///
    /// assert!(Value::Int(1).is_truthy());
    /// assert!(!Value::Int(0).is_truthy());
    /// assert!(!Value::Null.is_truthy());
    /// assert!(!Value::Str("abc".into()).is_truthy());
    /// assert!(Value::Str("1".into()).is_truthy());
    /// ```
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => numeric_prefix(s) != 0.0,
        }
    }

    /// Coerces to a float the way MySQL does in numeric context.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Null => 0.0,
            Value::Int(i) => *i as f64,
            Value::Float(f) => *f,
            Value::Str(s) => numeric_prefix(s),
        }
    }

    /// Coerces to an integer (truncating).
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            other => other.as_f64() as i64,
        }
    }

    /// Renders the value as MySQL would in a string context. `NULL`
    /// becomes the empty string (callers that need the literal `NULL`
    /// should check [`Value::is_null`] first).
    pub fn as_str(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Str(s) => s.clone(),
        }
    }

    /// Whether this value is SQL `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// MySQL comparison semantics: `NULL` compares as unknown (`None`);
    /// number-vs-string comparisons coerce to numbers; string-vs-string is
    /// case-insensitive (MySQL's default collation).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(
                a.bytes()
                    .map(|c| c.to_ascii_lowercase())
                    .cmp(b.bytes().map(|c| c.to_ascii_lowercase())),
            ),
            _ => self.as_f64().partial_cmp(&other.as_f64()),
        }
    }

    /// SQL equality (`=`), three-valued: `None` means unknown (NULL).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.compare(other).map(|o| o == Ordering::Equal)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            other => f.write_str(&other.as_str()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
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

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Int(i64::from(v))
    }
}

/// Parses the leading numeric prefix of a string, MySQL-style.
/// `"42abc"` → 42.0, `"  3.5"` → 3.5, `"abc"` → 0.0.
fn numeric_prefix(s: &str) -> f64 {
    let t = s.trim_start();
    let bytes = t.as_bytes();
    let mut end = 0;
    let mut seen_digit = false;
    let mut seen_dot = false;
    while end < bytes.len() {
        let b = bytes[end];
        if b.is_ascii_digit() {
            seen_digit = true;
        } else if (b == b'-' || b == b'+') && end == 0 {
            // sign is fine at the start
        } else if b == b'.' && !seen_dot {
            seen_dot = true;
        } else {
            break;
        }
        end += 1;
    }
    if !seen_digit {
        return 0.0;
    }
    t[..end].parse().unwrap_or(0.0)
}

fn format_float(f: f64) -> String {
    if f == f.trunc() && f.abs() < 1e15 {
        format!("{}", f as i64)
    } else {
        format!("{f}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_matches_mysql() {
        assert!(Value::Str("1 OR junk".into()).is_truthy());
        assert!(Value::Float(0.5).is_truthy());
        assert!(!Value::Str("".into()).is_truthy());
        assert!(!Value::Float(0.0).is_truthy());
    }

    #[test]
    fn numeric_prefix_coercion() {
        assert_eq!(Value::Str("42abc".into()).as_f64(), 42.0);
        assert_eq!(Value::Str("-3.5x".into()).as_f64(), -3.5);
        assert_eq!(Value::Str("abc".into()).as_f64(), 0.0);
        assert_eq!(Value::Str("  7".into()).as_f64(), 7.0);
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Null), None);
    }

    #[test]
    fn mixed_comparisons_coerce() {
        assert_eq!(Value::Str("5".into()).sql_eq(&Value::Int(5)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Str("1 OR 1".into())), Some(true));
    }

    #[test]
    fn string_comparison_case_insensitive() {
        assert_eq!(Value::Str("Admin".into()).sql_eq(&Value::Str("admin".into())), Some(true));
        // Byte order of the ASCII-lowercased strings: `_` (0x5F) sorts
        // before `A`, which folds to `a` (0x61); a prefix sorts first;
        // non-ASCII bytes compare unfolded.
        let s = |x: &str| Value::Str(x.into());
        assert_eq!(s("_").compare(&s("A")), Some(Ordering::Less));
        assert_eq!(s("Ab").compare(&s("aB")), Some(Ordering::Equal));
        assert_eq!(s("ab").compare(&s("ABC")), Some(Ordering::Less));
        assert_eq!(s("b").compare(&s("Ab")), Some(Ordering::Greater));
        assert_eq!(s("é").compare(&s("É")), Some(Ordering::Greater));
    }

    #[test]
    fn display_and_as_str() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Null.as_str(), "");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Float(2.0).as_str(), "2");
        assert_eq!(Value::Float(2.5).as_str(), "2.5");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(true), Value::Int(1));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(3i64).as_i64(), 3);
    }
}
