//! A small `--flag value` argument parser.
//!
//! The CLI has exactly the option shapes below, so a bespoke parser keeps
//! the binary dependency-free: a leading subcommand, `--key value` options
//! (repeatable), and `--key` boolean switches.

use std::collections::HashMap;
use std::fmt;

/// CLI failures with user-facing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// Build an error from anything displayable.
    pub fn new(msg: impl fmt::Display) -> Self {
        Self(msg.to_string())
    }
}

/// Parsed command line: subcommand + options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: String,
    /// An optional nested subcommand (second non-flag token), e.g.
    /// `explain feature-attribution`. Empty when absent.
    pub subcommand: String,
    /// `--key value` options; repeated keys accumulate in order.
    options: HashMap<String, Vec<String>>,
    /// `--key` switches with no value.
    switches: Vec<String>,
}

/// Known boolean switches (everything else expects a value).
const SWITCHES: &[&str] = &["help", "tsv"];

impl Args {
    /// Parse raw arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, CliError> {
        let mut args = Args::default();
        let mut it = raw.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if SWITCHES.contains(&key) {
                    args.switches.push(key.to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| CliError::new(format!("--{key} requires a value")))?;
                    args.options.entry(key.to_string()).or_default().push(value);
                }
            } else if args.command.is_empty() {
                args.command = tok;
            } else if args.subcommand.is_empty() {
                args.subcommand = tok;
            } else {
                return Err(CliError::new(format!("unexpected argument: {tok}")));
            }
        }
        Ok(args)
    }

    /// First value of an option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .get(key)
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    /// All values of a repeatable option.
    pub fn get_all(&self, key: &str) -> &[String] {
        self.options.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::new(format!("missing required option --{key}")))
    }

    /// Optional integer with default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::new(format!("--{key} must be an integer, got {v:?}"))),
        }
    }

    /// Required integer option.
    pub fn require_usize(&self, key: &str) -> Result<usize, CliError> {
        self.require(key)?
            .parse()
            .map_err(|_| CliError::new(format!("--{key} must be an integer")))
    }

    /// Boolean switch presence.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, CliError> {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse("rank --query covid --k 10").unwrap();
        assert_eq!(a.command, "rank");
        assert_eq!(a.get("query"), Some("covid"));
        assert_eq!(a.get_usize("k", 5).unwrap(), 10);
    }

    #[test]
    fn repeatable_options_accumulate() {
        let a = parse("builder --replace covid=flu --replace outbreak=cold").unwrap();
        assert_eq!(a.get_all("replace").len(), 2);
        assert_eq!(a.get_all("replace")[1], "outbreak=cold");
    }

    #[test]
    fn switches_take_no_value() {
        let a = parse("generate --tsv --docs 5").unwrap();
        assert!(a.has("tsv"));
        assert_eq!(a.get_usize("docs", 0).unwrap(), 5);
    }

    #[test]
    fn errors() {
        assert!(parse("rank --query").is_err());
        assert!(parse("rank extra junk").is_err());
        let a = parse("rank --k pony").unwrap();
        assert!(a.get_usize("k", 1).is_err());
        assert!(a.require("query").is_err());
    }

    #[test]
    fn nested_subcommand_parses() {
        let a = parse("explain feature-attribution --query covid --lambda 0.5").unwrap();
        assert_eq!(a.command, "explain");
        assert_eq!(a.subcommand, "feature-attribution");
        assert_eq!(a.get("query"), Some("covid"));
        assert_eq!(a.get("lambda"), Some("0.5"));
    }

    #[test]
    fn empty_input() {
        let a = parse("").unwrap();
        assert!(a.command.is_empty());
        assert!(!a.has("help"));
    }
}
