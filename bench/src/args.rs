//! `--key value` argument parsing shared by every subcommand.

use std::collections::BTreeMap;

/// Positional words plus `--key value` flags. A flag followed by another
/// flag (or by nothing) is boolean and reads as `"1"`, so both
/// `run --trace` and the driver's `run --trace 1` work.
#[derive(Debug, Default)]
pub struct Args {
    /// Words that are not flags or flag values, in order.
    pub positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses a token list (without the program name).
    pub fn parse(tokens: &[String]) -> Args {
        let mut args = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            match tokens[i].strip_prefix("--") {
                Some(key) => {
                    let value = tokens.get(i + 1).filter(|v| !v.starts_with("--"));
                    i += 1 + usize::from(value.is_some());
                    args.flags
                        .insert(key.to_string(), value.map_or("1".into(), String::clone));
                }
                None => {
                    args.positional.push(tokens[i].clone());
                    i += 1;
                }
            }
        }
        args
    }

    /// The flag's value, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// The flag's value or an error naming it.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// The flag parsed as `T`, or `default` when absent.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: '{v}'")),
        }
    }

    /// True when the flag is present and not `0`.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn flags_values_and_booleans() {
        let a = parse("run --seed 42 --trace --workload serve_warm x.json");
        assert_eq!(a.positional, ["run", "x.json"]);
        assert_eq!(a.num("seed", 0u64), Ok(42));
        assert!(a.flag("trace"));
        assert_eq!(a.get("workload"), Some("serve_warm"));
        assert!(!parse("run --trace 0").flag("trace"));
        assert!(parse("run --trace 1").flag("trace"));
        assert!(parse("run").num::<u64>("seed", 7) == Ok(7));
        assert!(parse("run --seed x").num::<u64>("seed", 7).is_err());
        assert!(parse("run").require("seed").is_err());
    }
}
