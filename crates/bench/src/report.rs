//! Report emission for the harness binaries.
//!
//! Every harness module produces a [`Table`] — a titled grid of cells
//! plus optional structured `extras` (geomeans, raw counter snapshots).
//! A [`Table`] is rendered through the [`Emit`] trait, which has three
//! backends: [`Text`] (the legacy aligned table), [`Json`] (one
//! machine-readable object), and [`Csv`]. Binaries pick a backend with
//! [`Format::from_args`], so every `src/bin/` tool accepts `--json` and
//! `--csv` flags.

use isa_obs::Json as Value;
use isa_obs::ToJson;

/// Version of the JSON object [`Table::to_json`] emits. Bumped on any
/// breaking change to the key layout (see DESIGN.md "Report JSON
/// schema"); consumers of `BENCH_*.json` should check it.
pub const SCHEMA_VERSION: u64 = 1;

/// A titled table of string cells plus structured extras.
#[derive(Debug, Clone)]
pub struct Table {
    /// Report title (the `=== title ===` banner in text mode).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Body rows; each row has one cell per header.
    pub rows: Vec<Vec<String>>,
    /// Structured footer values (geomeans, raw counter snapshots, …)
    /// keyed by name. Text mode prints `key: value` lines; JSON mode
    /// embeds the values verbatim.
    pub extras: Vec<(String, Value)>,
    /// The seed the run was generated from, for seed-deterministic
    /// harnesses. Emitted top-level in JSON so two artifacts can be
    /// compared for reproducibility.
    pub seed: Option<u64>,
    /// The run configuration (harts, request counts, quantum, …):
    /// everything a consumer needs to re-run the exact experiment.
    pub config: Vec<(String, Value)>,
}

impl Table {
    /// Start an empty table with a title and headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            extras: Vec::new(),
            seed: None,
            config: Vec::new(),
        }
    }

    /// Build a table from pre-rendered rows.
    pub fn with_rows(title: &str, headers: &[&str], rows: &[Vec<String>]) -> Table {
        let mut t = Table::new(title, headers);
        t.rows = rows.to_vec();
        t
    }

    /// Append one body row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        self.rows.push(cells);
        self
    }

    /// Attach a structured footer value.
    pub fn extra(&mut self, key: &str, value: Value) -> &mut Table {
        self.extras.push((key.to_string(), value));
        self
    }

    /// Record the run seed (emitted top-level in JSON).
    pub fn seed(&mut self, seed: u64) -> &mut Table {
        self.seed = Some(seed);
        self
    }

    /// Record one run-configuration entry (emitted in the top-level
    /// `config` block in JSON).
    pub fn config(&mut self, key: &str, value: Value) -> &mut Table {
        self.config.push((key.to_string(), value));
        self
    }

    /// The table as one JSON object (what the [`Json`] backend prints).
    ///
    /// Key layout (the stable contract — see DESIGN.md "Report JSON
    /// schema"): `schema_version` always comes first; `seed` and
    /// `config` appear when the harness recorded them; `extras` appears
    /// when non-empty.
    pub fn to_json(&self) -> Value {
        let rows = Value::arr(
            self.rows
                .iter()
                .map(|r| Value::arr(r.iter().map(|c| Value::Str(c.clone())))),
        );
        let mut pairs = vec![
            ("schema_version".to_string(), Value::U64(SCHEMA_VERSION)),
            ("title".to_string(), Value::Str(self.title.clone())),
        ];
        if let Some(seed) = self.seed {
            pairs.push(("seed".to_string(), Value::U64(seed)));
        }
        if !self.config.is_empty() {
            pairs.push(("config".to_string(), Value::Obj(self.config.clone())));
        }
        pairs.push(("headers".to_string(), self.headers.to_json()));
        pairs.push(("rows".to_string(), rows));
        if !self.extras.is_empty() {
            pairs.push(("extras".to_string(), Value::Obj(self.extras.clone())));
        }
        Value::Obj(pairs)
    }
}

/// A rendering backend for [`Table`].
pub trait Emit {
    /// Render the table to a printable string.
    fn emit(&self, t: &Table) -> String;
}

/// The legacy aligned plain-text table.
pub struct Text;

impl Emit for Text {
    fn emit(&self, t: &Table) -> String {
        let mut widths: Vec<usize> = t.headers.iter().map(|h| h.len()).collect();
        for row in &t.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n=== {} ===\n", t.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&t.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &t.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        if let Some(seed) = t.seed {
            out.push_str(&format!("seed: {seed}\n"));
        }
        for (k, v) in &t.config {
            out.push_str(&format!("config.{k}: {v}\n"));
        }
        for (k, v) in &t.extras {
            match v {
                Value::F64(x) => out.push_str(&format!("{k}: {x:.4}\n")),
                other => out.push_str(&format!("{k}: {other}\n")),
            }
        }
        out
    }
}

/// One pretty-printed JSON object per table.
pub struct Json;

impl Emit for Json {
    fn emit(&self, t: &Table) -> String {
        let mut s = t.to_json().pretty();
        s.push('\n');
        s
    }
}

/// RFC-4180-ish CSV: header row, body rows, extras as `#` comments.
pub struct Csv;

impl Emit for Csv {
    fn emit(&self, t: &Table) -> String {
        fn cell(c: &str) -> String {
            if c.contains([',', '"', '\n']) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &t.headers
                .iter()
                .map(|h| cell(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &t.rows {
            out.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        if let Some(seed) = t.seed {
            out.push_str(&format!("# seed={seed}\n"));
        }
        for (k, v) in &t.config {
            out.push_str(&format!("# config.{k}={v}\n"));
        }
        for (k, v) in &t.extras {
            out.push_str(&format!("# {k}={v}\n"));
        }
        out
    }
}

/// Output format selected on a binary's command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Aligned plain text (default).
    Text,
    /// One JSON object per table (`--json`).
    Json,
    /// Comma-separated values (`--csv`).
    Csv,
}

impl Format {
    /// Pick the format from the process arguments: `--json`, `--csv`,
    /// or text when neither flag is present.
    pub fn from_args() -> Format {
        Format::parse(std::env::args().skip(1))
    }

    /// Pick the format from an explicit argument list (testable core of
    /// [`Format::from_args`]).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Format {
        let mut fmt = Format::Text;
        for a in args {
            match a.as_str() {
                "--json" => fmt = Format::Json,
                "--csv" => fmt = Format::Csv,
                _ => {}
            }
        }
        fmt
    }

    /// Render `t` with this format's backend.
    pub fn emit(&self, t: &Table) -> String {
        match self {
            Format::Text => Text.emit(t),
            Format::Json => Json.emit(t),
            Format::Csv => Csv.emit(t),
        }
    }
}

/// What kind of value a declared flag carries.
#[derive(Debug, Clone)]
enum FlagKind {
    /// A bare switch (`--no-bbcache`).
    Bool,
    /// An integer value, decimal or `0x` hex; `default` of `None`
    /// means the flag is optional with no fallback.
    U64 { default: Option<u64> },
    /// A free-form string value (paths, names).
    Str,
}

/// One declared flag: name, value kind, and the help line.
#[derive(Debug, Clone)]
struct FlagSpec {
    name: &'static str,
    kind: FlagKind,
    help: &'static str,
}

/// A parse failure: the offending token and what was expected.
/// [`Cli::parse_env`] prints it with the generated usage and exits
/// non-zero; [`Cli::try_parse`] returns it for tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// The declarative flag registry every bench binary builds its command
/// line from — the redesign of the old stringly `flag()`/`value()`
/// lookups, which silently defaulted malformed values (`--harts foo`
/// used to mean `--harts <default>`).
///
/// Each binary declares its flags once; parsing then rejects unknown
/// flags, missing values, and malformed integers with a non-zero exit
/// and a generated `--help` listing. The common flags `--json`,
/// `--csv` and `--help` are declared for every binary; `--no-bbcache`,
/// `--no-jit` and `--profile <path>` only by the binaries that act on
/// them ([`Cli::with_no_bbcache`], [`Cli::with_no_jit`],
/// [`Cli::with_profile`]), so the others reject them as unknown.
///
/// ```
/// use isa_grid_bench::report::Cli;
/// let args = Cli::new("demo", "an example binary")
///     .flag_u64("--harts", 4, "harts to simulate")
///     .try_parse(vec!["--harts".into(), "8".into()])
///     .unwrap();
/// assert_eq!(args.u64("--harts"), 8);
/// assert!(Cli::new("demo", "x").try_parse(vec!["--bogus".into()]).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Cli {
    bin: &'static str,
    about: &'static str,
    flags: Vec<FlagSpec>,
    positional: Option<(&'static str, &'static str)>,
}

impl Cli {
    /// Start a registry for binary `bin`, pre-declaring the common
    /// flags (`--json`, `--csv`, `--help`).
    pub fn new(bin: &'static str, about: &'static str) -> Cli {
        Cli {
            bin,
            about,
            flags: vec![
                FlagSpec {
                    name: "--json",
                    kind: FlagKind::Bool,
                    help: "emit one JSON object instead of text",
                },
                FlagSpec {
                    name: "--csv",
                    kind: FlagKind::Bool,
                    help: "emit CSV instead of text",
                },
            ],
            positional: None,
        }
    }

    fn declare(mut self, name: &'static str, kind: FlagKind, help: &'static str) -> Cli {
        assert!(
            self.flags.iter().all(|f| f.name != name),
            "flag {name} declared twice"
        );
        self.flags.push(FlagSpec { name, kind, help });
        self
    }

    /// Opt in to `--no-bbcache` (run without the basic-block cache).
    pub fn with_no_bbcache(self) -> Cli {
        self.flag_bool("--no-bbcache", "disable the simulator's basic-block cache")
    }

    /// Opt in to `--no-jit` (run without the superblock JIT).
    pub fn with_no_jit(self) -> Cli {
        self.flag_bool("--no-jit", "disable the superblock JIT (keep the bbcache)")
    }

    /// Opt in to `--profile <path>` (see [`crate::profile`]).
    pub fn with_profile(self) -> Cli {
        self.flag_str("--profile", "write a Perfetto profile to <value>")
    }

    /// Declare a bare switch.
    pub fn flag_bool(self, name: &'static str, help: &'static str) -> Cli {
        self.declare(name, FlagKind::Bool, help)
    }

    /// Declare an integer-valued flag with a default.
    pub fn flag_u64(self, name: &'static str, default: u64, help: &'static str) -> Cli {
        self.declare(
            name,
            FlagKind::U64 {
                default: Some(default),
            },
            help,
        )
    }

    /// Declare an optional integer-valued flag (absent means `None`).
    pub fn flag_u64_opt(self, name: &'static str, help: &'static str) -> Cli {
        self.declare(name, FlagKind::U64 { default: None }, help)
    }

    /// Declare an optional string-valued flag (paths, names).
    pub fn flag_str(self, name: &'static str, help: &'static str) -> Cli {
        self.declare(name, FlagKind::Str, help)
    }

    /// Declare the single positional argument the binary accepts.
    pub fn positional(mut self, name: &'static str, help: &'static str) -> Cli {
        self.positional = Some((name, help));
        self
    }

    /// The generated `--help` listing.
    pub fn help(&self) -> String {
        let mut out = format!("{} — {}\n\nusage: {}", self.bin, self.about, self.bin);
        if let Some((p, _)) = self.positional {
            out.push_str(&format!(" <{p}>"));
        }
        out.push_str(" [flags]\n\nflags:\n");
        let mut lines: Vec<(String, &str)> = Vec::new();
        for f in &self.flags {
            let lhs = match f.kind {
                FlagKind::Bool => f.name.to_string(),
                FlagKind::U64 { default: Some(d) } => format!("{} <n={d}>", f.name),
                FlagKind::U64 { default: None } => format!("{} <n>", f.name),
                FlagKind::Str => format!("{} <value>", f.name),
            };
            lines.push((lhs, f.help));
        }
        lines.push(("--help".to_string(), "print this listing and exit"));
        if let Some((p, help)) = self.positional {
            lines.push((format!("<{p}>"), help));
        }
        let w = lines.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (lhs, help) in lines {
            out.push_str(&format!("  {lhs:<w$}  {help}\n"));
        }
        out
    }

    /// Parse the process arguments. `--help` prints the listing and
    /// exits 0; unknown flags and malformed values print the error plus
    /// the listing to stderr and exit 2.
    pub fn from_env(self) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", self.help());
            std::process::exit(0);
        }
        let help = self.help();
        match self.try_parse(argv) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}\n\n{help}");
                std::process::exit(2);
            }
        }
    }

    /// Alias for [`Cli::from_env`] (reads the process arguments).
    pub fn parse_env(self) -> Args {
        self.from_env()
    }

    /// Parse an explicit argument list (testable core of
    /// [`Cli::from_env`]): every declared flag gets a validated slot,
    /// anything undeclared or malformed is an error.
    pub fn try_parse(self, argv: Vec<String>) -> Result<Args, CliError> {
        let mut bools: Vec<(&'static str, bool)> = Vec::new();
        let mut u64s: Vec<(&'static str, Option<u64>)> = Vec::new();
        let mut strs: Vec<(&'static str, Option<String>)> = Vec::new();
        for f in &self.flags {
            match f.kind {
                FlagKind::Bool => bools.push((f.name, false)),
                FlagKind::U64 { default } => u64s.push((f.name, default)),
                FlagKind::Str => strs.push((f.name, None)),
            }
        }
        let mut positional: Option<String> = None;
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            if let Some(spec) = self.flags.iter().find(|f| f.name == tok) {
                match spec.kind {
                    FlagKind::Bool => {
                        bools.iter_mut().find(|(n, _)| n == &spec.name).unwrap().1 = true;
                    }
                    FlagKind::U64 { .. } => {
                        let v = argv
                            .get(i + 1)
                            .ok_or_else(|| CliError(format!("{tok}: expected an integer value")))?;
                        let n = parse_u64(v).ok_or_else(|| {
                            CliError(format!("{tok}: expected an integer, got {v:?}"))
                        })?;
                        u64s.iter_mut().find(|(n2, _)| n2 == &spec.name).unwrap().1 = Some(n);
                        i += 1;
                    }
                    FlagKind::Str => {
                        let v = argv
                            .get(i + 1)
                            .ok_or_else(|| CliError(format!("{tok}: expected a value")))?;
                        strs.iter_mut().find(|(n, _)| n == &spec.name).unwrap().1 = Some(v.clone());
                        i += 1;
                    }
                }
            } else if tok.starts_with('-') {
                return Err(CliError(format!("unknown flag {tok}")));
            } else if self.positional.is_some() {
                if positional.is_some() {
                    return Err(CliError(format!("unexpected extra argument {tok:?}")));
                }
                positional = Some(tok.clone());
            } else {
                return Err(CliError(format!("unexpected argument {tok:?}")));
            }
            i += 1;
        }
        let flag_on = |name: &str| bools.iter().any(|(n, v)| *n == name && *v);
        let format = if flag_on("--csv") {
            Format::Csv
        } else if flag_on("--json") {
            Format::Json
        } else {
            Format::Text
        };
        let profile = strs
            .iter()
            .find(|(n, _)| *n == "--profile")
            .and_then(|(_, v)| v.clone());
        Ok(Args {
            format,
            bbcache: !flag_on("--no-bbcache"),
            jit: !flag_on("--no-jit"),
            profile,
            bools,
            u64s,
            strs,
            positional,
        })
    }
}

/// The validated command line a [`Cli`] registry parsed: common flags
/// as fields, declared binary-specific flags behind typed getters.
/// Asking for an undeclared flag is a programming error and panics —
/// malformed *input* can never get this far.
#[derive(Debug, Clone)]
pub struct Args {
    /// Output format (`--json` / `--csv`, aligned text otherwise).
    pub format: Format,
    /// Basic-block cache enabled (i.e. `--no-bbcache` absent).
    pub bbcache: bool,
    /// Superblock JIT enabled (i.e. `--no-jit` absent).
    pub jit: bool,
    /// Where to write the Perfetto profile (`--profile <path>`).
    pub profile: Option<String>,
    bools: Vec<(&'static str, bool)>,
    u64s: Vec<(&'static str, Option<u64>)>,
    strs: Vec<(&'static str, Option<String>)>,
    positional: Option<String>,
}

impl Args {
    /// Whether a declared switch is present.
    pub fn flag(&self, name: &str) -> bool {
        self.bools
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("switch {name} was not declared"))
            .1
    }

    /// A declared integer flag's value (its default when absent).
    ///
    /// # Panics
    ///
    /// Panics if the flag was declared without a default and is absent
    /// (use [`Args::u64_opt`] for those), or was never declared.
    pub fn u64(&self, name: &str) -> u64 {
        self.u64_opt(name)
            .unwrap_or_else(|| panic!("flag {name} has no value and no default"))
    }

    /// A declared optional integer flag's value.
    pub fn u64_opt(&self, name: &str) -> Option<u64> {
        self.u64s
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("integer flag {name} was not declared"))
            .1
    }

    /// A declared string flag's value.
    pub fn str_opt(&self, name: &str) -> Option<&str> {
        self.strs
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("string flag {name} was not declared"))
            .1
            .as_deref()
    }

    /// The fault-plan seed (`--fault-seed N`), when declared and given.
    pub fn fault_seed(&self) -> Option<u64> {
        self.u64_opt("--fault-seed")
    }

    /// The fault rate in events per million commits (`--fault-rate N`),
    /// when declared and given.
    pub fn fault_rate(&self) -> Option<u64> {
        self.u64_opt("--fault-rate")
    }

    /// The declared positional argument, if given.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// Render `t` with the selected format's backend.
    pub fn emit(&self, t: &Table) -> String {
        self.format.emit(t)
    }
}

/// Parse a decimal or `0x`-prefixed hexadecimal integer.
fn parse_u64(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// Render an aligned text table with a title (legacy shim over
/// [`Table`] + the [`Text`] backend).
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    Text.emit(&Table::with_rows(title, headers, rows))
}

/// Format a cycle count with one decimal.
pub fn cyc(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a normalized-time value.
pub fn norm(v: f64) -> String {
    format!("{v:.4}")
}

/// Format a percentage.
pub fn pct(v: f64) -> String {
    format!("{v:+.2}%")
}

/// Round to four decimals (stable JSON extras).
pub fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let s = table(
            "T",
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "2".into()],
            ],
        );
        assert!(s.contains("=== T ==="));
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn formatters() {
        assert_eq!(cyc(5.04), "5.0");
        assert_eq!(norm(1.00444), "1.0044");
        assert_eq!(pct(0.5), "+0.50%");
        assert_eq!(pct(-1.25), "-1.25%");
    }

    #[test]
    fn json_backend_carries_cells_and_extras() {
        let mut t = Table::new("T", &["k", "v"]);
        t.row(vec!["a".into(), "1".into()]);
        t.extra("geomean", Value::F64(1.25));
        let s = Json.emit(&t);
        assert!(s.contains("\"title\""));
        assert!(s.contains("\"a\""));
        assert!(s.contains("\"geomean\""));
        assert_eq!(
            t.to_json().to_string(),
            r#"{"schema_version":1,"title":"T","headers":["k","v"],"rows":[["a","1"]],"extras":{"geomean":1.25}}"#
        );
    }

    #[test]
    fn json_backend_carries_seed_and_config() {
        let mut t = Table::new("T", &["k"]);
        t.row(vec!["a".into()]);
        t.seed(42).config("harts", Value::U64(4));
        let doc = isa_obs::Json::parse(&Json.emit(&t)).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(isa_obs::Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(doc.get("seed").and_then(isa_obs::Json::as_u64), Some(42));
        assert_eq!(
            doc.get("config")
                .and_then(|c| c.get("harts"))
                .and_then(isa_obs::Json::as_u64),
            Some(4)
        );
        let text = Text.emit(&t);
        assert!(text.contains("seed: 42"));
        assert!(text.contains("config.harts: 4"));
        let csv = Csv.emit(&t);
        assert!(csv.contains("# seed=42"));
    }

    #[test]
    fn csv_backend_quotes() {
        let mut t = Table::new("T", &["a,b", "c"]);
        t.row(vec!["x\"y".into(), "2".into()]);
        let s = Csv.emit(&t);
        assert!(s.starts_with("\"a,b\",c\n"));
        assert!(s.contains("\"x\"\"y\",2"));
    }

    #[test]
    fn format_flag_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(Format::parse(args(&[])), Format::Text);
        assert_eq!(Format::parse(args(&["--json"])), Format::Json);
        assert_eq!(Format::parse(args(&["x", "--csv"])), Format::Csv);
    }

    #[test]
    fn json_backend_escapes_strings_and_nulls_nonfinite() {
        let mut t = Table::new("quote \" comma , title", &["a\"b", "c"]);
        t.row(vec!["x\\y\n".into(), "1".into()]);
        t.extra("nan_ratio", Value::F64(f64::NAN));
        t.extra("inf_ratio", Value::F64(f64::INFINITY));
        let s = Json.emit(&t);
        let doc = isa_obs::Json::parse(&s).expect("emitted JSON must parse");
        assert_eq!(
            doc.get("title").and_then(isa_obs::Json::as_str),
            Some("quote \" comma , title")
        );
        let extras = doc.get("extras").unwrap();
        assert!(matches!(extras.get("nan_ratio"), Some(isa_obs::Json::Null)));
        assert!(matches!(extras.get("inf_ratio"), Some(isa_obs::Json::Null)));
    }

    #[test]
    fn csv_backend_survives_nonfinite_extras() {
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["1".into()]);
        t.extra("ratio", Value::F64(f64::NEG_INFINITY));
        let s = Csv.emit(&t);
        assert!(
            s.contains("# ratio=null"),
            "non-finite renders as null: {s}"
        );
    }

    #[test]
    fn registry_parses_declared_flags() {
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let cli = || {
            Cli::new("demo", "test binary")
                .with_no_bbcache()
                .with_profile()
                .flag_u64("--harts", 4, "harts")
                .flag_u64("--iters", 7, "iterations")
                .flag_u64_opt("--fault-seed", "seed")
        };
        let a = cli()
            .try_parse(argv(&["--json", "--profile", "out.json", "--harts", "8"]))
            .unwrap();
        assert_eq!(a.format, Format::Json);
        assert!(a.bbcache);
        assert_eq!(a.profile.as_deref(), Some("out.json"));
        assert_eq!(a.u64("--harts"), 8);
        assert_eq!(a.u64("--iters"), 7, "default applies when absent");
        assert_eq!(a.u64_opt("--fault-seed"), None);
        assert_eq!(a.positional(), None, "option values are not positionals");

        let b = cli()
            .try_parse(argv(&["--no-bbcache", "--fault-seed", "0x10"]))
            .unwrap();
        assert!(!b.bbcache);
        assert!(b.flag("--no-bbcache"));
        assert_eq!(b.fault_seed(), Some(16), "hex accepted");
    }

    #[test]
    fn registry_rejects_unknown_and_malformed() {
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let cli = || Cli::new("demo", "test binary").flag_u64("--harts", 4, "harts");
        // Malformed value: the old parser silently defaulted this.
        let e = cli().try_parse(argv(&["--harts", "foo"])).unwrap_err();
        assert!(e.0.contains("--harts"), "{e}");
        // Missing value.
        assert!(cli().try_parse(argv(&["--harts"])).is_err());
        // Unknown flag.
        let e = cli().try_parse(argv(&["--bogus"])).unwrap_err();
        assert!(e.0.contains("--bogus"), "{e}");
        // Stray positional when none is declared.
        assert!(cli().try_parse(argv(&["stray"])).is_err());
        // Declared positional is accepted, a second one is not.
        let cli2 = || {
            Cli::new("demo", "test binary")
                .positional("TRACE", "trace file")
                .flag_u64("--audit-limit", 32, "limit")
        };
        let p = cli2()
            .try_parse(argv(&["trace.json", "--audit-limit", "5"]))
            .unwrap();
        assert_eq!(p.positional(), Some("trace.json"));
        assert_eq!(p.u64("--audit-limit"), 5);
        assert!(cli2().try_parse(argv(&["a.json", "b.json"])).is_err());
    }

    #[test]
    fn engine_flags_need_an_opt_in() {
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for flags in [
            &["--no-jit"][..],
            &["--no-bbcache"],
            &["--profile", "p.json"],
        ] {
            let e = Cli::new("demo", "test binary")
                .try_parse(argv(flags))
                .unwrap_err();
            assert!(e.0.contains(flags[0]), "{e}");
        }
        let a = Cli::new("demo", "test binary")
            .with_no_jit()
            .try_parse(argv(&["--no-jit"]))
            .unwrap();
        assert!(!a.jit && a.bbcache && a.profile.is_none());
    }

    #[test]
    fn registry_generates_help() {
        let h = Cli::new("serve", "multi-tenant serving harness")
            .flag_u64("--tenants", 32, "tenant domains")
            .positional("X", "some input")
            .help();
        assert!(h.contains("serve — multi-tenant serving harness"));
        assert!(h.contains("--tenants <n=32>"));
        assert!(h.contains("--json"));
        assert!(h.contains("--help"));
        assert!(h.contains("<X>"));
    }

    #[test]
    fn text_backend_matches_legacy_shim() {
        let rows = vec![vec!["x".into(), "1".into()]];
        let t = Table::with_rows("T", &["a", "b"], &rows);
        assert_eq!(Text.emit(&t), table("T", &["a", "b"], &rows));
    }
}
