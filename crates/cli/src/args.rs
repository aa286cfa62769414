//! A small, dependency-free command-line argument parser.
//!
//! Supports `--flag`, `--key value`, `--key=value` and positional
//! arguments, with typed accessors and unknown-option detection.

use std::collections::HashMap;
use std::fmt;

/// Parsed command-line arguments.
#[derive(Clone, Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// An argument-parsing or validation error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments. `known_flags` lists options that take no
    /// value and `known_options` those that take one (a name may be in
    /// both: `--cache` is a flag, `--cache=PATH` an option). Any other
    /// `--name` is an error naming it.
    pub fn parse<I, S>(
        raw: I,
        known_flags: &[&str],
        known_options: &[&str],
    ) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let unknown = |name: &str| ArgError(format!("unknown option --{name}"));
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if let Some((key, value)) = name.split_once('=') {
                    if !known_options.contains(&key) {
                        return Err(unknown(key));
                    }
                    args.options.insert(key.to_owned(), value.to_owned());
                } else if known_flags.contains(&name) {
                    args.flags.push(name.to_owned());
                } else if known_options.contains(&name) {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgError(format!("--{name} expects a value")))?;
                    args.options.insert(name.to_owned(), value);
                } else {
                    return Err(unknown(name));
                }
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    /// The positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Whether `--name` was given as a flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The raw value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A typed option with a default.
    ///
    /// # Errors
    ///
    /// Fails if the value is present but does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("invalid value for --{name}: `{v}`"))),
        }
    }

    /// A required typed option.
    ///
    /// # Errors
    ///
    /// Fails if missing or unparsable.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        let v = self
            .get(name)
            .ok_or_else(|| ArgError(format!("missing required option --{name}")))?;
        v.parse()
            .map_err(|_| ArgError(format!("invalid value for --{name}: `{v}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_positional_options_and_flags() {
        let args = Args::parse(
            ["input.trace", "--rate", "0.03", "--counters", "--seed=7"],
            &["counters"],
            &["rate", "seed"],
        )
        .unwrap();
        assert_eq!(args.positional(), &["input.trace".to_string()]);
        assert!(args.flag("counters"));
        assert_eq!(args.get("rate"), Some("0.03"));
        assert_eq!(args.get_or("seed", 0u64).unwrap(), 7);
    }

    #[test]
    fn typed_accessors_validate() {
        let args = Args::parse(["--rate", "abc"], &[], &["rate"]).unwrap();
        assert!(args.get_or("rate", 0.5f64).is_err());
        assert_eq!(args.get_or("missing", 3u32).unwrap(), 3);
        assert!(args.require::<u32>("missing").is_err());
    }

    #[test]
    fn dangling_option_is_an_error() {
        assert!(Args::parse(["--rate"], &[], &["rate"]).is_err());
    }
}
