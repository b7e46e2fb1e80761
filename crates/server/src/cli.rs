//! Command-line parsing shared by the workspace's binaries.
//!
//! A binary's usage text is its flag list: every `--flag` it names is
//! accepted and takes one value. An unknown flag, a flag without a
//! value, or a value that does not parse prints the message and the
//! usage text and exits with status 2; nothing falls back to a default.

use std::collections::HashMap;
use std::str::FromStr;

/// Parsed command-line arguments.
pub struct Args {
    name: &'static str,
    usage: &'static str,
    flags: HashMap<String, String>,
    /// Arguments that are neither flags nor flag values, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parses `args` (the process's arguments after the program name)
    /// against the flags that `usage` names.
    pub fn parse(
        name: &'static str,
        usage: &'static str,
        args: impl IntoIterator<Item = String>,
    ) -> Self {
        let mut out = Self {
            name,
            usage,
            flags: HashMap::new(),
            positional: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                out.positional.push(arg);
            } else if !usage.split([' ', '[', ']', '\n']).any(|w| w == arg) {
                out.usage_error(&format!("unknown flag {arg:?}"));
            } else if let Some(value) = args.next() {
                out.flags.insert(arg, value);
            } else {
                out.usage_error(&format!("{arg} needs a value"));
            }
        }
        out
    }

    /// The raw value of flag `name`, if given.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Flag `name` read by `parse`, if given; a value `parse` refuses
    /// is a usage error.
    pub fn parsed<T>(&self, name: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let v = self.raw(name)?;
        Some(parse(v).unwrap_or_else(|| self.usage_error(&format!("bad {name} value {v:?}"))))
    }

    /// Flag `name` parsed with [`FromStr`], or `default` when the flag
    /// is absent; a value that does not parse is a usage error.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> T {
        self.parsed(name, |v| v.parse().ok()).unwrap_or(default)
    }

    /// Prints `msg` and the usage text, then exits with status 2.
    pub fn usage_error(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}\n{}", self.name, self.usage);
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_flags_take_values_and_the_rest_is_positional() {
        let args = ["--port", "7", "get", "--tenant", "3", "k"];
        let args = Args::parse(
            "test",
            "usage: test [--port P] [--tenant T]",
            args.map(String::from),
        );
        assert_eq!(args.get_or::<u16>("--port", 0), 7);
        assert_eq!(args.parsed("--tenant", |v| v.parse::<u16>().ok()), Some(3));
        assert_eq!(args.get_or("--host", 5u8), 5);
        assert_eq!(args.positional, ["get", "k"]);
    }
}
