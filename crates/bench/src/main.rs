//! `qla-bench` — the one CLI driver for every paper artefact.
//!
//! ```text
//! qla-bench help | --help | -h
//! qla-bench list
//! qla-bench describe <experiment>
//! qla-bench profiles [<name>]
//! qla-bench run <experiment> [--trials N] [--seed S] [--jobs N] [--profile P | --spec F] [--trace FILE]... [--format text|json|csv] [--out-dir DIR] [--emit-trace DIR] [--metrics]
//! qla-bench run-all          [--trials N] [--seed S] [--jobs N] [--profile P | --spec F] [--format text|json|csv] [--out-dir DIR] [--emit-trace DIR] [--metrics]
//! ```
//!
//! Every experiment is resolved through `qla_bench::registry`; rendering
//! goes through the typed `qla_report::Report` model, so `--format json`
//! emits the same machine-readable document CI archives as a build
//! artefact. `--jobs N` (default 1) evaluates sweep points on N threads
//! without changing a single output byte — the CI determinism job diffs
//! `--jobs 1` against `--jobs 4` report trees per profile. `--profile <name>` selects a built-in machine scenario,
//! `--spec <file>` loads one from the deterministic `key = value` format
//! (`qla-bench profiles <name>` prints a ready-to-edit starting point).

use qla_bench::cli::{self, CliArgs};
use qla_bench::{registry, serve_cli};
use qla_core::MachineSpec;

const USAGE: &str = "usage:
  qla-bench help | --help | -h
  qla-bench list
  qla-bench describe <experiment>
  qla-bench profiles [<name>]
  qla-bench run <experiment> [--trials N] [--seed S] [--jobs N|auto] [--profile P | --spec F] [--trace FILE]... [--format text|json|csv] [--out-dir DIR] [--emit-trace DIR] [--metrics]
  qla-bench run-all          [--trials N] [--seed S] [--jobs N|auto] [--profile P | --spec F] [--format text|json|csv] [--out-dir DIR] [--emit-trace DIR] [--metrics]
  qla-bench serve            [--addr HOST:PORT | --once | --connect HOST:PORT] (see `qla-bench serve --help`)

--jobs N evaluates sweep points on N threads ('auto' sizes to the machine;
default 1); output is byte-identical at every job count.
--profile selects a built-in machine scenario (see `qla-bench profiles`);
--spec loads one from a key = value file (`qla-bench profiles <name>` prints
a template). --trace FILE (repeatable, `run trace-replay` only) replays the
named trace files instead of the built-in programs; malformed files fail
loudly with the file and line. --emit-trace DIR records the run and writes
<experiment>.trace.json (open at ui.perfetto.dev) plus a text timeline;
--metrics records and prints the metrics table; both are byte-deterministic
and change no report byte. run `qla-bench list` to see the registered
experiments.";

fn main() {
    // `serve` has its own flag set (--addr, --once, ...) that CliArgs
    // would reject, so it is dispatched on the raw argument list.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        raw.first().map(String::as_str),
        Some("--help" | "-h" | "help")
    ) {
        println!("{USAGE}");
        return;
    }
    if raw.first().map(String::as_str) == Some("serve") {
        if raw.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", serve_cli::SERVE_USAGE);
            return;
        }
        if let Err(message) = serve_cli::run(raw.into_iter().skip(1)) {
            fail(&message);
        }
        return;
    }
    let args = match CliArgs::parse(raw) {
        Ok(args) => args,
        Err(message) => fail(&message),
    };
    match args.positional.first().map(String::as_str) {
        Some("list") => {
            expect_positionals(&args, 1);
            list();
        }
        Some("describe") => {
            let Some(name) = args.positional.get(1) else {
                fail("describe needs an experiment name; try `qla-bench list`");
            };
            expect_positionals(&args, 2);
            describe(name);
        }
        Some("profiles") => {
            expect_positionals(&args, 2);
            match args.positional.get(1) {
                Some(name) => render_profile(name),
                None => profiles(),
            }
        }
        Some("run") => {
            let Some(name) = args.positional.get(1) else {
                fail("run needs an experiment name; try `qla-bench list`");
            };
            expect_positionals(&args, 2);
            if let Err(message) = cli::run_experiment(name, &args) {
                fail(&message);
            }
        }
        Some("run-all") => {
            expect_positionals(&args, 1);
            run_all(&args);
        }
        Some(other) => fail(&format!("unknown command '{other}'\n{USAGE}")),
        None => fail(USAGE),
    }
}

/// Exit with usage on trailing positional arguments (see
/// [`CliArgs::expect_positionals`]).
fn expect_positionals(args: &CliArgs, expected: usize) {
    if let Err(message) = args.expect_positionals(expected) {
        fail(&format!("{message}\n{USAGE}"));
    }
}

fn list() {
    println!("registered experiments:\n");
    for e in registry::registry() {
        println!("  {:<24} {}", e.name(), e.description());
        println!(
            "  {:<24} {} (default trials: {})",
            "",
            e.title(),
            e.default_trials()
        );
    }
    println!("\nrun one with `qla-bench run <name>`, or all with `qla-bench run-all`.");
}

fn describe(name: &str) {
    let Some(info) = registry::info(name) else {
        fail(&format!(
            "unknown experiment '{name}'; available: {}",
            registry::names().join(", ")
        ));
    };
    println!("{}", info.name);
    println!("  title:          {}", info.title);
    println!("  description:    {}", info.description);
    println!("  default trials: {}", info.default_trials);
    if info.spec_fields.is_empty() {
        println!("  spec fields:    (none - output does not vary with the active spec)");
    } else {
        println!("  spec fields:    {}", info.spec_fields.join(", "));
    }
    println!("\nrun it with `qla-bench run {name}`; change the machine with --profile/--spec.");
}

fn profiles() {
    println!("built-in machine profiles:\n");
    for spec in MachineSpec::builtins() {
        println!("  {:<18} {}", spec.name, spec.description);
        println!("  {:<18} {}", "", spec.scenario().summary);
    }
    println!(
        "\nselect one with `--profile <name>`; print a spec-file template with \
         `qla-bench profiles <name>` and load edits with `--spec <file>`."
    );
}

fn render_profile(name: &str) {
    match MachineSpec::named(name) {
        Ok(spec) => print!("{}", spec.render()),
        Err(message) => fail(&message),
    }
}

fn run_all(args: &CliArgs) {
    let outcome = match cli::run_all(args) {
        Ok(outcome) => outcome,
        Err(message) => fail(&message),
    };
    if !outcome.failed.is_empty() {
        eprintln!("run-all: {}", outcome.summary());
        for (name, message) in &outcome.failed {
            eprintln!("  {name}: {message}");
        }
        // Exit 1 (partial failure), distinct from usage errors' exit 2.
        std::process::exit(1);
    }
}

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}
