//! A small hand-rolled argument parser (the workspace's dependency budget
//! excludes clap): positional subcommands plus `--key value` / `--flag`
//! options.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand, its positionals, and options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag argument), if any.
    pub command: Option<String>,
    /// Positional arguments after the subcommand.
    pub positionals: Vec<String>,
    /// `--key value` options and boolean `--flag`s (value `""`).
    pub options: BTreeMap<String, String>,
}

/// Errors produced while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// An option was given twice.
    DuplicateOption(String),
    /// An option expecting a value was last on the line... values are
    /// optional in this grammar, so this only fires for `--` itself.
    BareDoubleDash,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DuplicateOption(k) => write!(f, "option --{k} given more than once"),
            Self::BareDoubleDash => write!(f, "unexpected bare `--`"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses an argument list (excluding `argv[0]`).
///
/// Grammar: the first bare word is the subcommand; later bare words are
/// positionals; `--key value` binds the next bare word as the value unless
/// it starts with `--`, in which case `key` is a boolean flag.
///
/// # Errors
///
/// Returns [`ParseError`] on duplicate options or a bare `--`.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<ParsedArgs, ParseError> {
    let mut out = ParsedArgs::default();
    let mut iter = args.into_iter().peekable();
    while let Some(arg) = iter.next() {
        if let Some(key) = arg.strip_prefix("--") {
            if key.is_empty() {
                return Err(ParseError::BareDoubleDash);
            }
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().unwrap_or_default(),
                _ => String::new(),
            };
            if out.options.insert(key.to_string(), value).is_some() {
                return Err(ParseError::DuplicateOption(key.to_string()));
            }
        } else if out.command.is_none() {
            out.command = Some(arg);
        } else {
            out.positionals.push(arg);
        }
    }
    Ok(out)
}

impl ParsedArgs {
    /// Returns an option's value, if present and non-empty.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.options
            .get(key)
            .map(String::as_str)
            .filter(|v| !v.is_empty())
    }

    /// Returns whether a boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Fails on the first option that is in none of the `known` groups —
    /// every option name `command` reads — so a typo (`--mesure`) or a
    /// retired option is an error, never a silent run with defaults.
    ///
    /// # Errors
    ///
    /// Returns a message naming the option and the command.
    pub fn reject_unknown(&self, command: &str, known: &[&[&str]]) -> Result<(), String> {
        let is_known = |key: &str| known.iter().any(|group| group.contains(&key));
        match self.options.keys().find(|key| !is_known(key)) {
            None => Ok(()),
            Some(key) => Err(format!("unknown option --{key} for `{command}`")),
        }
    }

    /// Parses an option as a number, with a default.
    ///
    /// # Errors
    ///
    /// Returns a message naming the option on parse failure.
    pub fn opt_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> ParsedArgs {
        parse(s.split_whitespace().map(String::from)).expect("parse")
    }

    #[test]
    fn subcommand_and_positionals() {
        let a = p("run gems pythia");
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.positionals, vec!["gems", "pythia"]);
    }

    #[test]
    fn options_and_flags() {
        let a = p("run w --measure 100000 --verbose --mtps 600");
        assert_eq!(a.opt("measure"), Some("100000"));
        assert_eq!(a.opt("mtps"), Some("600"));
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.opt("verbose"), None, "flags have empty values");
    }

    #[test]
    fn numeric_parsing_with_default() {
        let a = p("run --measure 5000");
        assert_eq!(a.opt_num("measure", 1u64), Ok(5000));
        assert_eq!(a.opt_num("warmup", 7u64), Ok(7));
        let bad = p("run --measure xyz");
        assert!(bad.opt_num("measure", 1u64).is_err());
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        const BUDGET: &[&str] = &["warmup", "measure"];
        let ok = p("run w p --warmup 2000 --measure 50 --report-json f.json");
        assert_eq!(
            ok.reject_unknown("run", &[BUDGET, &["report-json"]]),
            Ok(())
        );
        assert_eq!(p("storage").reject_unknown("storage", &[]), Ok(()));
        // A typo is an error that names the option and the command, flag
        // or valued alike.
        let typo = p("run w p --warmup 2000 --mesure 50");
        assert_eq!(
            typo.reject_unknown("run", &[BUDGET]),
            Err("unknown option --mesure for `run`".to_string())
        );
        let flag = p("storage --verbose");
        assert_eq!(
            flag.reject_unknown("storage", &[]),
            Err("unknown option --verbose for `storage`".to_string())
        );
    }

    #[test]
    fn duplicate_option_rejected() {
        let e = parse("run --a 1 --a 2".split_whitespace().map(String::from));
        assert_eq!(e, Err(ParseError::DuplicateOption("a".into())));
    }

    #[test]
    fn empty_line_is_empty() {
        let a = p("");
        assert_eq!(a.command, None);
        assert!(a.positionals.is_empty());
    }

    #[test]
    fn option_before_subcommand_consumes_next_word() {
        // Grammar: `--key value` binds the next bare word, so an option
        // before the subcommand swallows it; flags must come after
        // positionals (or before another `--option`).
        let a = p("--quiet run w");
        assert_eq!(a.opt("quiet"), Some("run"));
        assert_eq!(a.command.as_deref(), Some("w"));
        // A flag directly followed by another option stays boolean, while
        // the second option binds the following bare word.
        let a = p("--quiet --fast run w");
        assert!(a.flag("quiet"));
        assert_eq!(a.opt("quiet"), None);
        assert_eq!(a.opt("fast"), Some("run"));
        assert_eq!(a.command.as_deref(), Some("w"));
    }
}
