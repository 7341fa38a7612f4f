//! Minimal `--key value` command-line parsing for the experiment binaries
//! (no CLI crate in the approved offline dependency set).

use std::collections::HashMap;
use std::str::FromStr;

/// Reject a flag value the binary cannot run: print an `error:` line and
/// exit with code 2, as for a malformed value.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parsed `--key value` arguments. Bare `--flag` (no value) stores `"true"`.
#[derive(Debug, Clone, Default)]
pub struct Args {
    map: HashMap<String, String>,
}

impl FromIterator<String> for Args {
    /// Parse from an explicit argument iterator (testable).
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Args {
        let mut map = HashMap::new();
        let mut iter = iter.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().unwrap(),
                    _ => "true".to_owned(),
                };
                map.insert(key.to_owned(), value);
            } else {
                eprintln!("warning: ignoring positional argument {arg:?}");
            }
        }
        Args { map }
    }
}

impl Args {
    /// Parse from the process arguments.
    pub fn parse() -> Args {
        std::env::args().skip(1).collect()
    }

    /// Typed lookup with default. Exits with a message on a malformed value
    /// (an experiment binary should fail loudly, not guess).
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> T {
        match self.map.get(key) {
            None => default,
            Some(raw) => raw
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("--{key} {raw:?} is not a valid value"))),
        }
    }

    /// String lookup with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.map.get(key).cloned().unwrap_or_else(|| default.to_owned())
    }

    /// Whether a flag was passed at all.
    pub fn has(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    /// Comma-separated list lookup.
    pub fn get_list(&self, key: &str, default: &[&str]) -> Vec<String> {
        match self.map.get(key) {
            None => default.iter().map(|s| s.to_string()).collect(),
            Some(raw) => raw.split(',').map(|s| s.trim().to_owned()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::from_iter(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn typed_and_defaults() {
        let a = args(&["--m", "5000", "--eps", "0.2", "--full"]);
        assert_eq!(a.get("m", 0u64), 5000);
        assert_eq!(a.get("eps", 0.1f64), 0.2);
        assert_eq!(a.get("k", 30usize), 30);
        assert!(a.has("full"));
        assert!(!a.has("absent"));
    }

    #[test]
    fn lists() {
        let a = args(&["--nets", "alarm, link"]);
        assert_eq!(a.get_list("nets", &["x"]), vec!["alarm", "link"]);
        assert_eq!(a.get_list("other", &["x", "y"]), vec!["x", "y"]);
    }

    #[test]
    fn flag_followed_by_flag() {
        let a = args(&["--verbose", "--k", "5"]);
        assert_eq!(a.get_str("verbose", ""), "true");
        assert_eq!(a.get("k", 0usize), 5);
    }
}
