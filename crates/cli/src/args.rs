//! Minimal dependency-free argument parsing for the `dbtf` binary.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt::Display;
use std::str::FromStr;

/// Parsed command line: a subcommand path plus `--flag value` options.
///
/// Every lookup records the name it read, so a command can refuse, with
/// [`ParsedArgs::reject_unread`], whatever it never reads.
#[derive(Debug, Default)]
pub struct ParsedArgs {
    /// Positional words before the first `--flag` (the subcommand path).
    pub command: Vec<String>,
    /// `--name value` pairs in command-line order.
    options: Vec<(String, String)>,
    flags: Vec<String>,
    read_options: RefCell<HashSet<String>>,
    read_flags: RefCell<HashSet<String>>,
}

/// A parse/validation failure with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Splits `raw`, the value of `--name`, on `sep` into `T`s; with `count`,
/// there must be exactly that many.
pub fn split_list<T: FromStr>(
    name: &str,
    raw: &str,
    sep: char,
    count: Option<usize>,
) -> Result<Vec<T>, ArgError> {
    let parts: Vec<T> = raw
        .split(sep)
        .map(|p| p.trim().parse())
        .collect::<Result<_, _>>()
        .map_err(|_| ArgError(format!("invalid value for --{name}: {raw:?}")))?;
    match count {
        Some(n) if parts.len() != n => Err(ArgError(format!(
            "--{name} needs {n} {sep:?}-separated values, got {raw:?}"
        ))),
        _ => Ok(parts),
    }
}

impl ParsedArgs {
    /// Parses `args` (without the program name): leading bare words form
    /// the subcommand; `--name value` pairs become options; a `--name`
    /// followed by another `--…` or nothing is a boolean flag.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut parsed = ParsedArgs::default();
        let mut iter = args.into_iter().peekable();
        while let Some(word) = iter.peek() {
            if word.starts_with("--") {
                break;
            }
            parsed.command.push(iter.next().unwrap());
        }
        while let Some(word) = iter.next() {
            let Some(name) = word.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument {word:?} after options"
                )));
            };
            if name.is_empty() {
                return Err(ArgError("empty option name `--`".into()));
            }
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    if parsed.options.iter().any(|(n, _)| n == name) {
                        return Err(ArgError(format!("option --{name} given twice")));
                    }
                    let value = iter.next().unwrap();
                    parsed.options.push((name.to_string(), value));
                }
                _ => parsed.flags.push(name.to_string()),
            }
        }
        Ok(parsed)
    }

    /// A required `--name value` option, parsed as `T`.
    pub fn require<T: FromStr>(&self, name: &str) -> Result<T, ArgError>
    where
        T::Err: Display,
    {
        self.get_opt(name)?
            .ok_or_else(|| ArgError(format!("missing required option --{name}")))
    }

    /// An optional `--name value`, parsed as `T`, defaulting to `default`.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: Display,
    {
        Ok(self.get_opt(name)?.unwrap_or(default))
    }

    /// An optional `--name value`, parsed as `T` if given.
    pub fn get_opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, ArgError>
    where
        T::Err: Display,
    {
        self.get_str(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|e| ArgError(format!("invalid value for --{name} {raw:?}: {e}")))
            })
            .transpose()
    }

    /// An optional string option.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.read_options.borrow_mut().insert(name.to_string());
        self.options
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether bare `--name` was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.read_flags.borrow_mut().insert(name.to_string());
        self.flags.iter().any(|f| f == name)
    }

    /// A required comma-separated list, e.g. `--candidates 2,4,8`; with
    /// `count`, exactly that many values.
    pub fn require_list<T: FromStr>(
        &self,
        name: &str,
        count: Option<usize>,
    ) -> Result<Vec<T>, ArgError> {
        let raw: String = self.require(name)?;
        split_list(name, &raw, ',', count)
    }

    /// A required comma-separated triple, e.g. `--dims 64,64,64`.
    pub fn require_triple(&self, name: &str) -> Result<[usize; 3], ArgError> {
        let v = self.require_list(name, Some(3))?;
        Ok([v[0], v[1], v[2]])
    }

    /// Refuses the first option or flag the command has not read: a
    /// misspelt or misplaced option is an error, never silently dropped.
    /// A command calls this once it has read all of its options, before
    /// it does any work.
    pub fn reject_unread(&self) -> Result<(), ArgError> {
        let (options, flags) = (self.read_options.borrow(), self.read_flags.borrow());
        let command = self.command.join(" ");
        let unread = |name: &str| ArgError(format!("{command} does not read --{name}"));
        if let Some((name, value)) = self.options.iter().find(|(n, _)| !options.contains(n)) {
            return Err(if flags.contains(name) {
                ArgError(format!("--{name} takes no value, got {value:?}"))
            } else {
                unread(name)
            });
        }
        if let Some(name) = self.flags.iter().find(|n| !flags.contains(*n)) {
            return Err(if options.contains(name) {
                ArgError(format!("--{name} needs a value"))
            } else {
                unread(name)
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<ParsedArgs, ArgError> {
        ParsedArgs::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn subcommand_and_options() {
        let a = parse(&["generate", "random", "--dims", "4,5,6", "--density", "0.1"]).unwrap();
        assert_eq!(a.command, vec!["generate", "random"]);
        assert_eq!(a.require_triple("dims").unwrap(), [4, 5, 6]);
        assert_eq!(a.get("density", 0.0f64).unwrap(), 0.1);
        assert_eq!(a.get("missing", 7u32).unwrap(), 7);
    }

    #[test]
    fn boolean_flags() {
        let a = parse(&["stats", "--input", "x.txt", "--binary"]).unwrap();
        assert!(a.has_flag("binary"));
        assert!(!a.has_flag("other"));
        assert_eq!(a.get_str("input"), Some("x.txt"));
    }

    #[test]
    fn missing_required() {
        let a = parse(&["factorize"]).unwrap();
        let err = a.require::<usize>("rank").unwrap_err();
        assert!(err.0.contains("--rank"));
    }

    #[test]
    fn bad_value() {
        let a = parse(&["factorize", "--rank", "ten"]).unwrap();
        assert!(a.require::<usize>("rank").is_err());
    }

    #[test]
    fn duplicate_option_rejected() {
        assert!(parse(&["x", "--a", "1", "--a", "2"]).is_err());
    }

    #[test]
    fn stray_positional_rejected() {
        assert!(parse(&["x", "--a", "1", "oops", "more"]).is_err());
    }

    #[test]
    fn lists_and_triples() {
        let a = parse(&["select-rank", "--candidates", "2, 4,8"]).unwrap();
        assert_eq!(
            a.require_list::<usize>("candidates", None).unwrap(),
            vec![2, 4, 8]
        );
        let bad = parse(&["x", "--dims", "1,2", "--empty", ""]).unwrap();
        assert!(bad.require_triple("dims").is_err());
        assert!(bad.require_list::<usize>("empty", None).is_err());
        assert_eq!(
            split_list::<u64>("topk", "2: 7", ':', Some(2)).unwrap(),
            [2, 7]
        );
        let err = split_list::<u64>("topk", "2:7:1", ':', Some(2)).unwrap_err();
        assert!(err.0.contains("--topk") && err.0.contains("2:7:1"), "{err}");
    }

    #[test]
    fn unread_options_and_flags_are_refused() {
        let a = parse(&["factorize", "--iter", "3", "--rank", "2"]).unwrap();
        assert_eq!(a.get("rank", 0usize).unwrap(), 2);
        let err = a.reject_unread().unwrap_err();
        assert_eq!(err.0, "factorize does not read --iter");
        assert!(a.get_str("iter").is_some() && a.reject_unread().is_ok());

        let a = parse(&["factorize", "--resume", "yes", "--workers"]).unwrap();
        assert!(!a.has_flag("resume"));
        assert_eq!(a.get("workers", 16usize).unwrap(), 16);
        assert!(a
            .reject_unread()
            .unwrap_err()
            .0
            .contains("--resume takes no value"));
        a.get_str("resume");
        assert_eq!(a.reject_unread().unwrap_err().0, "--workers needs a value");
    }
}
