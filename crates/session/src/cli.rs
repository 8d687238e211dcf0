//! The workspace's one command-line mechanism.
//!
//! A binary declares its command line as data — a `const` [`Cli`] whose flag
//! table is the union of the [`Flag`] groups it actually reads — and parsing
//! ([`Cli::parse`]), `--help` ([`Cli::usage`]) and the README tables
//! ([`markdown_table`], checked row by row by `doc_check`) derive from it.
//!
//! Outside input gets one failure behaviour everywhere ([`Cli::parse_env`]):
//! a one-line error naming the offending flag plus the usage on stderr and
//! exit status 2; `--help`/`-h` prints the usage on stdout and exits 0; nothing
//! panics. A bug in the *program* — two groups declaring one flag name,
//! reading a flag the table does not declare — panics on the first call.
//!
//! Deliberately small: long flags only (plus `-h`), a value is the next
//! argument (no `=` syntax), no environment fallback, a repeated flag is an
//! error rather than "last wins".

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// One command-line flag: its synopsis as usage text writes it — `--quick`
/// for a switch, `--reps N` for an option taking one value — and its one-line
/// meaning, shown by `--help` and in the README table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag(pub &'static str, pub &'static str);

impl Flag {
    /// The flag as typed: `--reps`.
    pub fn name(&self) -> &'static str {
        self.0.split(' ').next().unwrap_or_default()
    }

    /// Whether the flag takes a value (its synopsis names one).
    fn takes_value(&self) -> bool {
        self.0.contains(' ')
    }
}

/// Why a command line was rejected: one line, naming the offending flag.
pub type Error = String;

/// One binary's command line, declared once as data.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Binary name, as shown in usage and error text.
    pub bin: &'static str,
    /// The flag groups this binary reads; its table is their union.
    pub groups: &'static [&'static [Flag]],
    /// Positional arguments as the usage line writes them (`""` for none);
    /// one whitespace-separated word per accepted positional.
    pub positionals: &'static str,
    /// Free-form description printed below the flag list (`""` for none).
    pub about: &'static str,
}

impl Cli {
    /// A command line of flags only; set the other fields by struct update.
    pub const fn new(bin: &'static str, groups: &'static [&'static [Flag]]) -> Cli {
        Cli { bin, groups, positionals: "", about: "" }
    }

    /// Parse `argv` (without the program name) against the table.
    ///
    /// # Panics
    /// If two groups declare the same flag name — a bug in the table, caught
    /// by the first invocation of the binary.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Parsed, Error> {
        let flags: Vec<&'static Flag> = self.groups.iter().flat_map(|g| g.iter()).collect();
        let find = |name: &str| flags.iter().copied().find(|f| f.name() == name);
        for (i, f) in flags.iter().enumerate() {
            let first = flags.iter().position(|g| g.name() == f.name());
            assert_eq!(first, Some(i), "flag `{}` is declared twice", f.name());
        }
        let max_positionals = self.positionals.split_whitespace().count();
        let (mut given, mut positionals) = (Vec::new(), Vec::new());
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with('-') {
                if positionals.len() == max_positionals {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                positionals.push(arg);
                continue;
            }
            let flag = find(&arg).ok_or_else(|| format!("unknown flag `{arg}`"))?;
            if given.iter().any(|(name, _)| *name == flag.name()) {
                return Err(format!("flag `{arg}` given more than once"));
            }
            // A declared flag is never taken for a value: `--out --quick` is
            // a missing value.
            let value = match flag.takes_value().then(|| argv.next()) {
                None => None,
                Some(Some(v)) if find(&v).is_none() => Some(v),
                Some(_) => return Err(format!("flag `{arg}` needs a value ({})", flag.0)),
            };
            given.push((flag.name(), value));
        }
        Ok(Parsed { flags, given, positionals })
    }

    /// The usage text: synopsis, one line per flag, then [`Cli::about`].
    pub fn usage(&self) -> String {
        const HELP: &[Flag] = &[Flag("-h, --help", "print this help and exit")];
        let rows: Vec<&Flag> = self.groups.iter().chain([&HELP]).flat_map(|g| g.iter()).collect();
        let width = rows.iter().map(|f| f.0.len()).max().unwrap_or(0);
        let mut out = format!("usage: {} [FLAGS] {}", self.bin, self.positionals);
        out.truncate(out.trim_end().len());
        out.push_str("\n\nflags:\n");
        for Flag(synopsis, help) in rows {
            let _ = writeln!(out, "  {synopsis:<width$}  {help}");
        }
        if !self.about.is_empty() {
            let _ = write!(out, "\n{}\n", self.about);
        }
        out
    }

    /// The entry point of every binary: parse the process's command line,
    /// then let `build` read the typed values. `--help`/`-h` anywhere prints
    /// the usage on stdout and exits 0; a command line rejected by the table
    /// or by `build` prints the one-line error plus the usage on stderr and
    /// exits 2.
    pub fn parse_env<T>(&self, build: impl FnOnce(&Parsed) -> Result<T, Error>) -> T {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", self.usage());
            std::process::exit(0)
        }
        self.parse(argv).and_then(|parsed| build(&parsed)).unwrap_or_else(|msg| {
            eprint!("{}: {msg}\n\n{}", self.bin, self.usage());
            std::process::exit(2)
        })
    }
}

/// Render `(flag synopsis, meaning)` rows — what `doc_check` reads back out
/// of a binary's `--help` — as the markdown table README documents it with.
pub fn markdown_table(rows: impl Iterator<Item = (String, String)>) -> String {
    let mut out = String::from("| Flag | Meaning |\n| --- | --- |\n");
    for (synopsis, help) in rows {
        let _ = writeln!(out, "| `{synopsis}` | {help} |");
    }
    out
}

/// The flags and positionals of one accepted command line.
#[derive(Debug, Clone)]
pub struct Parsed {
    flags: Vec<&'static Flag>,
    given: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Parsed {
    /// Whether the binary's table declares `name` (shared option structs
    /// fill only the groups a binary reads).
    pub fn declares(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f.name() == name)
    }

    /// The raw occurrence of `name`: `None` when not given.
    fn given(&self, name: &str) -> Option<&Option<String>> {
        assert!(self.declares(name), "flag `{name}` is read but not declared in the table");
        self.given.iter().find(|(n, _)| *n == name).map(|(_, value)| value)
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    /// The value of option `name`, parsed as `T`; `None` when not given.
    pub fn get<T>(&self, name: &str) -> Result<Option<T>, Error>
    where
        T: FromStr,
        T::Err: Display,
    {
        let Some(Some(raw)) = self.given(name) else { return Ok(None) };
        let parsed = raw.parse().map_err(|e| format!("invalid value `{raw}` for `{name}`: {e}"))?;
        Ok(Some(parsed))
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRID: &[Flag] =
        &[Flag("--quick", "reduced grid"), Flag("--reps N", "repetitions (default 1)")];
    const OUT: &[Flag] = &[Flag("--out DIR", "output directory")];
    const CLI: Cli =
        Cli { positionals: "COMMAND [HASH]", about: "A demo.", ..Cli::new("demo", &[GRID, OUT]) };

    fn parse(args: &[&str]) -> Result<Parsed, Error> {
        CLI.parse(args.iter().map(|s| s.to_string()))
    }

    fn usage_error(args: &[&str]) -> String {
        parse(args).expect_err("must be rejected")
    }

    #[test]
    fn typed_getters_read_switches_values_and_defaults() {
        let p = parse(&["--reps", "3", "--quick"]).unwrap();
        assert!(p.switch("--quick"));
        assert_eq!(p.get::<usize>("--reps"), Ok(Some(3)));
        assert_eq!(p.get::<String>("--out"), Ok(None));
        let p = parse(&[]).unwrap();
        assert!(!p.switch("--quick"));
        assert_eq!(p.get::<usize>("--reps").unwrap().unwrap_or(1), 1);
        assert!(p.declares("--out") && !p.declares("--jobs"));
    }

    #[test]
    fn unknown_flag_is_named() {
        assert!(usage_error(&["--bogus"]).contains("`--bogus`"));
        // No `=` syntax and no short flags other than `-h`.
        assert!(usage_error(&["--reps=3"]).contains("`--reps=3`"));
        assert!(usage_error(&["-q"]).contains("`-q`"));
    }

    #[test]
    fn missing_value_is_named() {
        let msg = usage_error(&["--quick", "--reps"]);
        assert!(msg.contains("`--reps`") && msg.contains("needs a value"), "{msg}");
        // A declared flag is not a value; anything else is, dashes included.
        let msg = usage_error(&["--out", "--quick"]);
        assert!(msg.contains("`--out`") && msg.contains("needs a value"), "{msg}");
        let p = parse(&["--out", "--odd-dir", "--reps", "-1"]).unwrap();
        assert_eq!(p.get::<String>("--out"), Ok(Some("--odd-dir".into())));
        assert!(p.get::<usize>("--reps").is_err() && p.get::<i64>("--reps") == Ok(Some(-1)));
    }

    #[test]
    fn unparsable_value_is_named_with_the_parser_reason() {
        let p = parse(&["--reps", "many"]).unwrap();
        let msg = p.get::<usize>("--reps").expect_err("must not parse");
        assert!(msg.contains("`many`") && msg.contains("`--reps`"), "{msg}");
        assert!(msg.contains("invalid digit"), "{msg}");
    }

    #[test]
    fn repeated_flag_is_an_error() {
        assert!(usage_error(&["--reps", "1", "--reps", "2"]).contains("more than once"));
        assert!(usage_error(&["--quick", "--quick"]).contains("`--quick`"));
    }

    #[test]
    fn positionals_are_collected_up_to_the_declared_count() {
        let p = parse(&["show", "--quick", "00ab"]).unwrap();
        assert_eq!(p.positionals(), ["show", "00ab"]);
        assert!(usage_error(&["show", "00ab", "extra"]).contains("`extra`"));
        let none = Cli { positionals: "", ..CLI };
        assert!(none.parse(["stray".to_string()]).unwrap_err().contains("`stray`"));
    }

    #[test]
    #[should_panic(expected = "flag `--reps` is declared twice")]
    fn two_groups_declaring_one_flag_panic_on_first_parse() {
        const CLASH: &[Flag] = &[Flag("--reps COUNT", "again")];
        let cli = Cli { groups: &[GRID, CLASH], ..CLI };
        let _ = cli.parse(Vec::new());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn reading_an_undeclared_flag_panics() {
        parse(&[]).unwrap().switch("--jobs");
    }

    #[test]
    fn usage_and_markdown_render_every_row_of_the_table() {
        let usage = CLI.usage();
        assert!(usage.starts_with("usage: demo [FLAGS] COMMAND [HASH]\n\nflags:\n"));
        let bare = Cli::new("demo", &[GRID]).usage();
        assert!(bare.starts_with("usage: demo [FLAGS]\n\n") && bare.ends_with("exit\n"));
        assert!(usage.contains("  --quick     reduced grid\n"));
        assert!(usage.contains("  --reps N    repetitions (default 1)\n"));
        assert!(usage.contains("  -h, --help  print this help and exit\n"));
        assert!(usage.ends_with("exit\n\nA demo.\n"));
        let rows = [("--quick", "reduced grid"), ("--reps N", "repetitions (default 1)")];
        assert_eq!(
            markdown_table(rows.iter().map(|(s, h)| (s.to_string(), h.to_string()))),
            "| Flag | Meaning |\n| --- | --- |\n| `--quick` | reduced grid |\n\
             | `--reps N` | repetitions (default 1) |\n"
        );
    }
}
