//! The CLI-argument helper and the driver logic behind the `qla-bench`
//! binary.
//!
//! It understands the unified flag set (`--trials`, `--seed`, `--format`,
//! `--out-dir`, `--jobs`, and the repeatable `--trace FILE` that swaps
//! `trace-replay`'s built-in programs for user trace files). Any other
//! `--flag` is an `unknown flag` error, and `--trials N` is the only way to
//! set a trial budget: a bare integer is a positional like any other, so
//! [`CliArgs::expect_positionals`] rejects it as an extra argument.
//!
//! `--jobs N` — or `--jobs auto` to size the pool to the machine —
//! selects the [`Executor`] sweeps run on (default `1`). Parallelism never
//! changes output:
//! reports are byte-identical at every job count, and the CI determinism
//! job diffs the report trees to prove it.
//!
//! `--profile <name>` selects a built-in [`MachineSpec`] and
//! `--spec <file>` loads one from the deterministic `key = value` format
//! (mutually exclusive; default: the `expected` paper design point). The
//! spec is validated at load time and rides on the [`ExperimentContext`],
//! so every experiment — and every report's scenario header — sees the
//! same machine.

use crate::experiments::sim_support::machine_mesh;
use crate::experiments::trace_replay::TraceFileReplay;
use crate::registry;
use qla_core::{DynExperiment, Executor, ExperimentContext, MachineSpec, DEFAULT_SEED};
use qla_obs::export::{chrome_trace, text_timeline};
use qla_obs::{metrics_rows, EventLog};
use qla_report::{row, Column, Format, Report};
use qla_trace::Trace;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

/// Parsed common arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    /// Trial budget; `None` means "use the experiment's default".
    pub trials: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Output format.
    pub format: Format,
    /// Directory to write one `<experiment>.<ext>` file per report into
    /// (reports still print to stdout when unset).
    pub out_dir: Option<PathBuf>,
    /// Worker threads for sweep evaluation; `None` means "run
    /// sequentially".
    pub jobs: Option<usize>,
    /// Built-in profile selected with `--profile`.
    pub profile: Option<String>,
    /// Spec file selected with `--spec`.
    pub spec_path: Option<PathBuf>,
    /// Trace files named with `--trace` (repeatable, in order). Only the
    /// `trace-replay` experiment accepts them; see [`run_experiment`].
    pub traces: Vec<PathBuf>,
    /// Directory `--emit-trace` writes `<experiment>.trace.json` (Chrome /
    /// Perfetto) and `<experiment>.timeline.txt` files into. Recording is
    /// on exactly when this or `metrics` is set.
    pub emit_trace: Option<PathBuf>,
    /// Emit the recorded metrics table (`--metrics`) as an extra report.
    pub metrics: bool,
    /// Positional (non-flag) arguments, in order.
    pub positional: Vec<String>,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            trials: None,
            seed: DEFAULT_SEED,
            format: Format::Text,
            out_dir: None,
            jobs: None,
            profile: None,
            spec_path: None,
            traces: Vec::new(),
            emit_trace: None,
            metrics: false,
            positional: Vec::new(),
        }
    }
}

impl CliArgs {
    /// Parse the common flag set from an argument iterator (without the
    /// program name).
    ///
    /// # Errors
    /// Returns a human-readable message for unknown flags or malformed
    /// values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<CliArgs, String> {
        let mut parsed = CliArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--trials" => {
                    let v = iter.next().ok_or("--trials needs a value")?;
                    let trials: usize =
                        v.parse().map_err(|_| format!("bad --trials value '{v}'"))?;
                    parsed.trials = Some(check_trials(trials)?);
                }
                "--seed" => {
                    let v = iter.next().ok_or("--seed needs a value")?;
                    parsed.seed = v.parse().map_err(|_| format!("bad --seed value '{v}'"))?;
                }
                "--format" => {
                    let v = iter.next().ok_or("--format needs a value")?;
                    parsed.format = v.parse().map_err(|e| format!("{e}"))?;
                }
                "--out-dir" => {
                    let v = iter.next().ok_or("--out-dir needs a value")?;
                    parsed.out_dir = Some(check_dir("--out-dir", &v)?);
                }
                "--emit-trace" => {
                    let v = iter.next().ok_or("--emit-trace needs a directory")?;
                    parsed.emit_trace = Some(check_dir("--emit-trace", &v)?);
                }
                "--metrics" => parsed.metrics = true,
                "--jobs" => {
                    let v = iter.next().ok_or("--jobs needs a value")?;
                    parsed.jobs = Some(parse_jobs("--jobs", &v)?);
                }
                "--profile" => {
                    let v = iter.next().ok_or("--profile needs a value")?;
                    parsed.profile = Some(v);
                }
                "--spec" => {
                    let v = iter.next().ok_or("--spec needs a value")?;
                    parsed.spec_path = Some(PathBuf::from(v));
                }
                "--trace" => {
                    let v = iter.next().ok_or("--trace needs a file path")?;
                    if v.is_empty() {
                        return Err("--trace file path must not be empty".to_string());
                    }
                    parsed.traces.push(PathBuf::from(v));
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag '{flag}'"));
                }
                positional => parsed.positional.push(positional.to_string()),
            }
        }
        Ok(parsed)
    }

    /// Reject positional arguments past the first `expected`, which a
    /// subcommand would otherwise silently ignore (`run table1
    /// table2-shor` running only `table1`, or the `500` of `run
    /// fig7-threshold 500` dropping a trial count).
    ///
    /// # Errors
    /// Returns a message naming the extra arguments.
    pub fn expect_positionals(&self, expected: usize) -> Result<(), String> {
        if self.positional.len() > expected {
            return Err(format!(
                "unexpected extra arguments: {}",
                self.positional[expected..].join(" ")
            ));
        }
        Ok(())
    }

    /// The execution context for an experiment with the given default trial
    /// budget, recording when [`Self::observing`] (sequential, at the
    /// default `expected` scenario; see [`Self::parallel_context`] for the
    /// fully resolved form).
    #[must_use]
    pub fn context(&self, default_trials: usize) -> ExperimentContext {
        ExperimentContext::new(self.trials.unwrap_or(default_trials), self.seed)
            .with_recording(self.observing())
    }

    /// [`Self::context`] carrying the executor selected by `--jobs` and the
    /// machine scenario selected by `--profile`/`--spec`.
    ///
    /// # Errors
    /// Returns a message when the profile is unknown, or the spec file is
    /// unreadable or invalid.
    pub fn parallel_context(&self, default_trials: usize) -> Result<ExperimentContext, String> {
        Ok(self
            .context(default_trials)
            .with_executor(self.executor())
            .with_spec(self.scenario()?))
    }

    /// The machine scenario selected by `--profile` / `--spec`, validated;
    /// the `expected` paper design point when neither is given.
    ///
    /// # Errors
    /// Returns a message for an unknown profile name (listing the
    /// built-ins), an unreadable spec file, a parse failure (naming the
    /// offending line/key), or a spec that fails validation — a scenario
    /// problem surfaces before any experiment runs, never three artefacts
    /// into a `run-all`.
    pub fn scenario(&self) -> Result<MachineSpec, String> {
        let spec = match (&self.profile, &self.spec_path) {
            (Some(_), Some(_)) => {
                return Err("--profile and --spec are mutually exclusive".to_string())
            }
            (Some(name), None) => MachineSpec::named(name)?,
            (None, Some(path)) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read spec {}: {e}", path.display()))?;
                MachineSpec::parse(&text)
                    .map_err(|e| format!("invalid spec {}: {e}", path.display()))?
            }
            (None, None) => MachineSpec::expected(),
        };
        spec.validate()
            .map_err(|e| format!("spec '{}' failed validation: {e}", spec.name))?;
        Ok(spec)
    }

    /// Whether this invocation records observability data: `--emit-trace`
    /// and/or `--metrics` turn the recorder on (detail and sampling come
    /// from the active spec's `sweep.obs.*` section); with neither flag
    /// every recorder stays disabled.
    #[must_use]
    pub fn observing(&self) -> bool {
        self.emit_trace.is_some() || self.metrics
    }

    /// The executor selected by `--jobs`; sequential without the flag.
    #[must_use]
    pub fn executor(&self) -> Executor {
        Executor::from_jobs(self.jobs.unwrap_or(1))
    }
}

/// Reject a zero trial budget loudly. A Monte-Carlo experiment with zero
/// trials would silently produce all-zero rates (0 failures out of 0), and
/// downstream consumers could mistake the hole for a measurement — so
/// `--trials 0` is a usage error, not a degenerate run.
fn check_trials(trials: usize) -> Result<usize, String> {
    if trials == 0 {
        return Err(
            "--trials must be at least 1 (got 0): zero trials would render all-zero \
             rates indistinguishable from real measurements"
                .to_string(),
        );
    }
    Ok(trials)
}

/// Reject a malformed directory flag (`--out-dir`, `--emit-trace`) at
/// parse time. An empty value used to flow through to
/// `create_dir_all("")`, which fails only after the experiment has already
/// burnt its full trial budget — and a value naming an existing *file*
/// failed the same late way. Both are usage errors the parser can catch
/// before any work starts. (A not-yet-existing directory stays fine: the
/// writers create it.)
fn check_dir(flag: &str, value: &str) -> Result<PathBuf, String> {
    if value.is_empty() {
        return Err(format!("{flag} must not be empty"));
    }
    let dir = PathBuf::from(value);
    if dir.exists() && !dir.is_dir() {
        return Err(format!("{flag} '{value}' exists but is not a directory"));
    }
    Ok(dir)
}

/// Parse a job count given to the flag `source`.
/// `auto` means "size to the machine"; zero is rejected — there is no "no
/// threads" mode, only sequential (`1`).
pub(crate) fn parse_jobs(source: &str, value: &str) -> Result<usize, String> {
    if value == "auto" {
        return Ok(Executor::available_parallelism().jobs());
    }
    parse_positive(source, value)
}

/// Parse a count of at least 1 given to the flag `source`.
pub(crate) fn parse_positive(source: &str, value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(0) => Err(format!("{source} must be at least 1 (got 0)")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("bad {source} value '{value}'")),
    }
}

/// Run one registered experiment under the parsed arguments and emit its
/// report (stdout, plus a file when `--out-dir` is set).
///
/// With `--trace FILE` (repeatable, `trace-replay` only) the built-in
/// programs are replaced by the named trace files ([`TraceFileReplay`]):
/// each is loaded and parsed up front, and any problem — an unreadable
/// file, a malformed trace, or one declaring more logical qubits than the
/// active machine's mesh has sites — aborts the run with the file (and,
/// for parse errors, the 1-based line) named in the message before any
/// simulation starts.
///
/// # Errors
/// Returns a message when the experiment is unknown, a `--trace` file is
/// unreadable, malformed or too wide for the mesh (or given to an
/// experiment other than `trace-replay`), or an output file cannot be
/// written.
pub fn run_experiment(name: &str, args: &CliArgs) -> Result<Report, String> {
    let registered = registry::find(name).ok_or_else(|| {
        format!(
            "unknown experiment '{name}'; available: {}",
            registry::names().join(", ")
        )
    })?;
    if !args.traces.is_empty() && name != "trace-replay" {
        return Err(format!(
            "--trace only applies to the trace-replay experiment, not '{name}'"
        ));
    }
    let traces = load_traces(&args.traces)?;
    let files = TraceFileReplay { traces: &traces };
    let experiment: &dyn DynExperiment = if traces.is_empty() {
        registered.as_ref()
    } else {
        &files
    };
    let ctx = args.parallel_context(experiment.default_trials())?;
    check_traces_fit(&args.traces, &traces, &ctx)?;
    run_one(experiment, &ctx, args)
}

/// Refuse a trace that declares more logical qubits than the active
/// machine's mesh has sites, naming the file, before any replay starts.
///
/// # Errors
/// Returns `<path>: trace declares N logical qubits, but the '<spec>'
/// machine's mesh has only M sites` for the first trace that does not fit.
fn check_traces_fit(
    paths: &[PathBuf],
    traces: &[Trace],
    ctx: &ExperimentContext,
) -> Result<(), String> {
    if traces.is_empty() {
        return Ok(());
    }
    let sites = machine_mesh(&ctx.machine()).node_count();
    for (path, trace) in paths.iter().zip(traces) {
        if trace.qubit_count() > sites {
            return Err(format!(
                "{}: trace declares {} logical qubits, but the '{}' machine's mesh has \
                 only {sites} sites",
                path.display(),
                trace.qubit_count(),
                ctx.spec.name
            ));
        }
    }
    Ok(())
}

/// Run one resolved experiment and emit its outputs: the report always;
/// when the context records (`--emit-trace`/`--metrics`, with the spec's
/// `sweep.obs.*` section setting detail and sampling) also the
/// trace/timeline files and/or the metrics table.
fn run_one(
    experiment: &dyn DynExperiment,
    ctx: &ExperimentContext,
    args: &CliArgs,
) -> Result<Report, String> {
    let (report, logs) = experiment.run_report_observed(ctx);
    emit(&report, args)?;
    if let Some(dir) = &args.emit_trace {
        write_trace_files(dir, experiment.name(), &logs)?;
    }
    if args.metrics {
        emit(&metrics_report(experiment.name(), &logs), args)?;
    }
    Ok(report)
}

/// Write `<dir>/<name>.trace.json` (Chrome/Perfetto `trace.json`) and
/// `<dir>/<name>.timeline.txt` (the deterministic text timeline) from the
/// run's recorded logs.
///
/// # Errors
/// Returns a message when the directory or either file cannot be written.
fn write_trace_files(dir: &Path, name: &str, logs: &[EventLog]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for (suffix, rendered) in [
        ("trace.json", chrome_trace(logs)),
        ("timeline.txt", text_timeline(logs)),
    ] {
        let path = dir.join(format!("{name}.{suffix}"));
        std::fs::write(&path, rendered)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// The recorded metrics table as a normal byte-pinned report
/// (`<experiment>-metrics`), rendered and written like any other.
fn metrics_report(name: &str, logs: &[EventLog]) -> Report {
    let mut r = Report::new(
        format!("{name}-metrics"),
        format!("Recorded metrics — {name}"),
    )
    .with_columns([
        Column::new("metric"),
        Column::new("kind"),
        Column::new("count"),
        Column::with_unit("p50", "ns"),
        Column::with_unit("p90", "ns"),
        Column::with_unit("p99", "ns"),
        Column::with_unit("max", "ns"),
    ]);
    for m in metrics_rows(logs) {
        r.push_row(row![
            m.name, m.kind, m.count, m.p50_ns, m.p90_ns, m.p99_ns, m.max_ns
        ]);
    }
    r.push_note(
        "counters count occurrences (instants and counter samples); histograms summarise \
         span durations at nearest-rank percentiles; rows fold every recorded point/pass \
         of the run and are byte-deterministic across --jobs and re-runs",
    );
    r
}

/// Load and parse every `--trace` file, in flag order.
///
/// # Errors
/// Returns a message anchored to the offending file: `cannot read trace
/// <path>: ...` for I/O problems, and `<path>: trace line N: ...` for the
/// typed, line-numbered [`qla_trace::TraceError`]s — a bad third file
/// fails the whole run before any replay work starts.
pub fn load_traces(paths: &[PathBuf]) -> Result<Vec<Trace>, String> {
    paths.iter().map(|p| load_trace(p)).collect()
}

fn load_trace(path: &Path) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
    Trace::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// What happened to each experiment of a `run-all` invocation.
#[derive(Debug, Default)]
pub struct RunAllOutcome {
    /// Names of the experiments that ran and emitted a report.
    pub completed: Vec<&'static str>,
    /// `(name, panic message)` for every experiment that panicked. The
    /// driver keeps going past failures so one broken experiment cannot
    /// mask the results (or further failures) of the rest.
    pub failed: Vec<(&'static str, String)>,
}

impl RunAllOutcome {
    /// One line summarising the failures, e.g. for the driver's exit
    /// message: `2/9 experiments failed: fig7-threshold, table1`.
    #[must_use]
    pub fn summary(&self) -> String {
        let total = self.completed.len() + self.failed.len();
        let names: Vec<&str> = self.failed.iter().map(|(name, _)| *name).collect();
        format!(
            "{}/{total} experiments failed: {}",
            self.failed.len(),
            names.join(", ")
        )
    }
}

/// Run every registered experiment under the parsed arguments, emitting one
/// report per experiment and isolating per-experiment failures.
///
/// # Errors
/// Returns a message only for up-front usage errors (`--trace`, an unknown
/// profile or an invalid spec). Per-experiment problems — a panic mid-run, or a report
/// that cannot be written — are recorded in [`RunAllOutcome::failed`] and
/// the remaining experiments still run, so one bad experiment (or a disk
/// filling up mid-sweep) cannot mask the rest.
pub fn run_all(args: &CliArgs) -> Result<RunAllOutcome, String> {
    run_experiments(registry::registry(), args)
}

/// [`run_all`] over an explicit experiment list (the testable core).
///
/// # Errors
/// See [`run_all`].
pub fn run_experiments(
    experiments: Vec<Box<dyn DynExperiment>>,
    args: &CliArgs,
) -> Result<RunAllOutcome, String> {
    if !args.traces.is_empty() {
        return Err(
            "--trace only applies to `run trace-replay`; run-all replays the built-in programs"
                .to_string(),
        );
    }
    let executor = args.executor();
    let spec = args.scenario()?;
    let total = experiments.len();
    let mut outcome = RunAllOutcome::default();
    for (i, experiment) in experiments.into_iter().enumerate() {
        let name = experiment.name();
        eprintln!("[{}/{total}] {name}", i + 1);
        let ctx = args
            .context(experiment.default_trials())
            .with_executor(executor)
            .with_spec(spec.clone());
        match std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_one(experiment.as_ref(), &ctx, args)
        })) {
            Ok(Ok(_)) => {
                println!();
                outcome.completed.push(name);
            }
            Ok(Err(message)) => outcome.failed.push((name, message)),
            Err(payload) => outcome.failed.push((name, panic_message(payload.as_ref()))),
        }
    }
    Ok(outcome)
}

/// Best-effort text of a caught panic payload (`panic!` with a string or a
/// formatted message covers every panic in this workspace).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Print a report in the requested format and, when `--out-dir` is set,
/// write it to `<out_dir>/<name>.<ext>` as well.
///
/// # Errors
/// Returns a message when the output directory or file cannot be written.
pub fn emit(report: &Report, args: &CliArgs) -> Result<(), String> {
    let rendered = report.render(args.format);
    print!("{rendered}");
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.{}", report.name, args.format.extension()));
        std::fs::write(&path, rendered)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        CliArgs::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults_apply_when_nothing_is_passed() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, CliArgs::default());
        assert_eq!(args.context(123).trials, 123);
        assert_eq!(args.context(123).seed, DEFAULT_SEED);
    }

    #[test]
    fn the_full_flag_set_parses() {
        let args = parse(&[
            "run",
            "fig7-threshold",
            "--trials",
            "500",
            "--seed",
            "7",
            "--format",
            "json",
            "--out-dir",
            "reports",
        ])
        .unwrap();
        assert_eq!(args.positional, vec!["run", "fig7-threshold"]);
        assert_eq!(args.trials, Some(500));
        assert_eq!(args.seed, 7);
        assert_eq!(args.format, Format::Json);
        assert_eq!(args.out_dir, Some(PathBuf::from("reports")));
        assert_eq!(args.context(123).trials, 500);
    }

    #[test]
    fn bare_integers_are_stray_positionals_not_trial_counts() {
        for trials in ["25000", "0"] {
            let args = parse(&["run", "fig7-threshold", trials]).unwrap();
            assert_eq!(args.trials, None);
            let err = args.expect_positionals(2).unwrap_err();
            assert_eq!(err, format!("unexpected extra arguments: {trials}"));
        }
        assert!(parse(&["run", "fig7-threshold"])
            .unwrap()
            .expect_positionals(2)
            .is_ok());
    }

    #[test]
    fn historical_ablation_flags_are_unknown_flags() {
        for flag in ["--serial", "--sweep-bandwidth", "--ballistic-baseline"] {
            assert_eq!(
                parse(&[flag]).unwrap_err(),
                format!("unknown flag '{flag}'")
            );
        }
    }

    #[test]
    fn malformed_input_is_reported_not_panicked() {
        assert!(parse(&["--trials"]).unwrap_err().contains("--trials"));
        assert!(parse(&["--trials", "x"]).unwrap_err().contains("x"));
        assert!(parse(&["--format", "yaml"]).unwrap_err().contains("yaml"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
    }

    #[test]
    fn a_second_bare_trial_count_is_rejected_not_silently_overriding() {
        let args = parse(&["run", "fig7-threshold", "40000", "7"]).unwrap();
        assert_eq!(
            args.expect_positionals(2).unwrap_err(),
            "unexpected extra arguments: 40000 7"
        );
        let args = parse(&["run", "fig7-threshold", "--trials", "500", "7"]).unwrap();
        assert_eq!(args.trials, Some(500));
        assert_eq!(
            args.expect_positionals(2).unwrap_err(),
            "unexpected extra arguments: 7"
        );
    }

    #[test]
    fn unknown_experiment_lists_the_registry() {
        let err = run_experiment("no-such-thing", &CliArgs::default()).unwrap_err();
        assert!(err.contains("unknown experiment"));
        assert!(err.contains("fig7-threshold"));
    }

    #[test]
    fn profile_and_spec_flags_parse_and_resolve() {
        let args = parse(&["--profile", "current"]).unwrap();
        assert_eq!(args.profile.as_deref(), Some("current"));
        assert_eq!(args.scenario().unwrap().name, "current");

        // Default: the paper design point.
        assert_eq!(parse(&[]).unwrap().scenario().unwrap().name, "expected");

        // Unknown profiles fail loudly and list the built-ins.
        let err = parse(&["--profile", "nope"])
            .unwrap()
            .scenario()
            .unwrap_err();
        assert!(err.contains("unknown profile 'nope'"), "{err}");
        assert!(err.contains("relaxed-speed"), "{err}");

        // --profile and --spec together are ambiguous.
        let err = parse(&["--profile", "current", "--spec", "x.spec"])
            .unwrap()
            .scenario()
            .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");

        // A missing spec file is a load error, not a silent default.
        let err = parse(&["--spec", "/no/such/file.spec"])
            .unwrap()
            .scenario()
            .unwrap_err();
        assert!(err.contains("cannot read spec"), "{err}");

        assert!(parse(&["--profile"]).unwrap_err().contains("--profile"));
        assert!(parse(&["--spec"]).unwrap_err().contains("--spec"));
    }

    #[test]
    fn spec_files_load_and_validate_through_the_cli() {
        let dir = std::env::temp_dir().join("qla-bench-cli-spec-test");
        std::fs::create_dir_all(&dir).unwrap();

        // A rendered built-in loads back identically.
        let good = dir.join("good.spec");
        std::fs::write(&good, qla_core::MachineSpec::relaxed_speed().render()).unwrap();
        let args = CliArgs {
            spec_path: Some(good),
            ..CliArgs::default()
        };
        assert_eq!(
            args.scenario().unwrap(),
            qla_core::MachineSpec::relaxed_speed()
        );

        // A parse error names the offending key.
        let bad = dir.join("bad.spec");
        let mut text = qla_core::MachineSpec::expected().render();
        text.push_str("frobnicate = 1\n");
        std::fs::write(&bad, text).unwrap();
        let args = CliArgs {
            spec_path: Some(bad),
            ..CliArgs::default()
        };
        let err = args.scenario().unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");

        // A well-formed but invalid spec fails validation at load time.
        let invalid = dir.join("invalid.spec");
        let text = qla_core::MachineSpec::expected()
            .render()
            .replace("recursion_level = 2", "recursion_level = 9");
        std::fs::write(&invalid, text).unwrap();
        let args = CliArgs {
            spec_path: Some(invalid),
            ..CliArgs::default()
        };
        let err = args.scenario().unwrap_err();
        assert!(err.contains("failed validation"), "{err}");
        assert!(
            err.contains("recursion_level must be between 1 and 2, got 9"),
            "{err}"
        );
    }

    #[test]
    fn parallel_context_carries_the_selected_scenario() {
        let args = parse(&["--profile", "relaxed-failures", "--trials", "3"]).unwrap();
        let ctx = args.parallel_context(99).unwrap();
        assert_eq!(ctx.spec.name, "relaxed-failures");
        assert_eq!(ctx.trials, 3);
    }

    #[test]
    fn zero_trials_and_zero_jobs_are_rejected_loudly() {
        // `--trials 0` used to flow straight into the experiments, which
        // would happily report 0-failure-out-of-0 rates; `--jobs 0` has no
        // meaningful executor. Both are usage errors, in every spelling.
        let err = parse(&["--trials", "0"]).unwrap_err();
        assert!(err.contains("--trials must be at least 1"), "{err}");
        let err = parse(&["--jobs", "0"]).unwrap_err();
        assert!(err.contains("must be at least 1"), "{err}");
        // The boundary values stay accepted.
        assert_eq!(parse(&["--trials", "1"]).unwrap().trials, Some(1));
        assert_eq!(parse(&["--jobs", "1"]).unwrap().jobs, Some(1));
    }

    #[test]
    fn malformed_out_dir_is_rejected_at_parse_time() {
        // An empty --out-dir used to surface only as a cryptic
        // `cannot create : No such file or directory` after the experiment
        // had already run; now it is a parse error.
        let err = parse(&["--out-dir", ""]).unwrap_err();
        assert!(err.contains("must not be empty"), "{err}");

        // A value naming an existing file cannot become a report directory.
        let file = std::env::temp_dir().join("qla-bench-out-dir-test-file");
        std::fs::write(&file, "occupied").unwrap();
        let err = parse(&["--out-dir", file.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("not a directory"), "{err}");

        // An existing directory and a not-yet-existing path both stay fine
        // (emit() creates missing directories).
        let dir = std::env::temp_dir();
        let args = parse(&["--out-dir", dir.to_str().unwrap()]).unwrap();
        assert_eq!(args.out_dir, Some(dir));
        let args = parse(&["--out-dir", "brand-new-reports"]).unwrap();
        assert_eq!(args.out_dir, Some(PathBuf::from("brand-new-reports")));
    }

    #[test]
    fn emit_trace_and_metrics_flags_parse_and_gate_recording() {
        let args = parse(&["--emit-trace", "traces", "--metrics"]).unwrap();
        assert_eq!(args.emit_trace, Some(PathBuf::from("traces")));
        assert!(args.metrics);
        assert!(args.observing());
        assert!(args.context(1).record);
        assert!(parse(&["--metrics"]).unwrap().observing());
        assert!(!parse(&[]).unwrap().observing());
        assert!(!parse(&[]).unwrap().context(1).record);

        // The directory value gets the same validation as --out-dir.
        let err = parse(&["--emit-trace", ""]).unwrap_err();
        assert!(err.contains("--emit-trace must not be empty"), "{err}");
        assert!(parse(&["--emit-trace"])
            .unwrap_err()
            .contains("--emit-trace"));

        // File replays record like every other run.
        let trace = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/data/ghz-toffoli-demo.trace"
        );
        let args = parse(&["--trace", trace, "--metrics"]).unwrap();
        let report = run_experiment("trace-replay", &args).unwrap();
        assert_eq!(report.name, "trace-replay");
    }

    #[test]
    fn jobs_flag_parses_and_rejects_nonsense() {
        assert_eq!(parse(&["--jobs", "4"]).unwrap().jobs, Some(4));
        assert_eq!(parse(&["--jobs", "1"]).unwrap().jobs, Some(1));
        assert!(parse(&["--jobs", "auto"]).unwrap().jobs.unwrap() >= 1);
        assert!(parse(&["--jobs"]).unwrap_err().contains("--jobs"));
        assert!(parse(&["--jobs", "x"]).unwrap_err().contains("x"));
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("at least 1"));
    }

    #[test]
    fn parallel_context_carries_the_requested_executor() {
        let args = parse(&["--jobs", "4", "--trials", "10"]).unwrap();
        let ctx = args.parallel_context(99).unwrap();
        assert_eq!(ctx.executor, Executor::from_jobs(4));
        assert_eq!(ctx.trials, 10);
        // Without --jobs the context is sequential.
        let ctx = parse(&[]).unwrap().parallel_context(99).unwrap();
        assert_eq!(ctx.executor, Executor::SEQUENTIAL);
    }

    /// A registry stand-in that panics mid-run, for the isolation tests.
    struct Exploding;

    impl DynExperiment for Exploding {
        fn name(&self) -> &'static str {
            "exploding"
        }
        fn title(&self) -> &'static str {
            "Always panics"
        }
        fn description(&self) -> &'static str {
            "test double"
        }
        fn default_trials(&self) -> usize {
            1
        }
        fn spec_fields(&self) -> &'static [&'static str] {
            &[]
        }
        fn run_report_observed(&self, _ctx: &ExperimentContext) -> (Report, Vec<EventLog>) {
            panic!("detonated as designed");
        }
    }

    /// A registry stand-in that succeeds, to prove the driver keeps going.
    struct Fine;

    impl DynExperiment for Fine {
        fn name(&self) -> &'static str {
            "fine"
        }
        fn title(&self) -> &'static str {
            "Always succeeds"
        }
        fn description(&self) -> &'static str {
            "test double"
        }
        fn default_trials(&self) -> usize {
            1
        }
        fn spec_fields(&self) -> &'static [&'static str] {
            &[]
        }
        fn run_report_observed(&self, _ctx: &ExperimentContext) -> (Report, Vec<EventLog>) {
            let mut r =
                Report::new("fine", "Always succeeds").with_column(qla_report::Column::new("x"));
            r.push_row(qla_report::row![1u32]);
            (r, Vec::new())
        }
    }

    #[test]
    fn run_experiments_isolates_panics_and_keeps_going() {
        // `Exploding`'s panics go through the default hook, whose output
        // the test harness captures per-test — no need to (racily) swap
        // the process-global hook.
        let outcome = run_experiments(
            vec![Box::new(Exploding), Box::new(Fine), Box::new(Exploding)],
            &CliArgs::default(),
        );

        let outcome = outcome.unwrap();
        assert_eq!(outcome.completed, vec!["fine"]);
        assert_eq!(outcome.failed.len(), 2);
        assert_eq!(outcome.failed[0].0, "exploding");
        assert!(outcome.failed[0].1.contains("detonated as designed"));
        assert_eq!(
            outcome.summary(),
            "2/3 experiments failed: exploding, exploding"
        );
    }

    #[test]
    fn run_experiments_records_write_errors_without_aborting_the_rest() {
        // An unwritable --out-dir ( /dev/null can't be a directory ) must
        // be recorded as that experiment's failure, not abort the run and
        // drop the summary.
        let args = CliArgs {
            out_dir: Some(PathBuf::from("/dev/null/not-a-dir")),
            ..CliArgs::default()
        };
        let outcome = run_experiments(vec![Box::new(Fine), Box::new(Fine)], &args).unwrap();
        assert!(outcome.completed.is_empty());
        assert_eq!(outcome.failed.len(), 2, "both experiments still ran");
        assert!(outcome.failed[0].1.contains("cannot create"));
    }
}
