//! Typed protocol requests and their canonical cache keys.
//!
//! One request is one JSON object on one line. Three commands exist:
//!
//! * **run** (the default): `{"experiment": "<name>", "profile": "<name>" |
//!   "spec": "<rendered spec text>", "seed": N, "trials": N, "format":
//!   "text|json|csv"}` — evaluate one registered experiment under one
//!   machine scenario. `profile` and `spec` are mutually exclusive
//!   (default: the `expected` paper design point); `seed` defaults to
//!   [`qla_core::DEFAULT_SEED`], as on the CLI; `trials` defaults to the
//!   experiment's own budget; `format` defaults to `json`.
//! * **stats**: `{"cmd": "stats"}` — the service counters.
//! * **shutdown**: `{"cmd": "shutdown"}` — stop the server after
//!   acknowledging.
//!
//! Unknown fields are rejected loudly: a typo'd `"trails": 999` must never
//! silently run with the default budget. The transport answers a line
//! longer than 1 MiB, or one that is not UTF-8, with a `bad-request` error
//! before it reaches [`parse_command`].

use crate::json::Json;
use qla_core::{MachineSpec, DEFAULT_SEED};
use qla_report::Format;

/// A parsed protocol command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Evaluate one experiment (the default command). Boxed: a parsed
    /// request carries a whole [`MachineSpec`], which would otherwise
    /// dominate the enum's size.
    Run(Box<RunRequest>),
    /// Report the service counters.
    Stats,
    /// Acknowledge and stop the server.
    Shutdown,
}

/// One evaluation request, fields resolved to their defaults except
/// `trials` (whose default — the experiment's own budget — is only known
/// once the experiment is looked up; see
/// [`Service::resolve`](crate::Service)).
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Registry name of the experiment.
    pub experiment: String,
    /// The machine scenario, validated.
    pub spec: MachineSpec,
    /// Master seed.
    pub seed: u64,
    /// Trial budget; `None` means the experiment's default.
    pub trials: Option<usize>,
    /// Rendering of the embedded report. Not part of the cache key — the
    /// cache stores the typed report and renders per request.
    pub format: Format,
}

impl RunRequest {
    /// A request for `experiment` under the `expected` profile with the
    /// default seed and JSON format.
    #[must_use]
    pub fn new(experiment: impl Into<String>) -> Self {
        RunRequest {
            experiment: experiment.into(),
            spec: MachineSpec::expected(),
            seed: DEFAULT_SEED,
            trials: None,
            format: Format::Json,
        }
    }

    /// The canonical cache-key bytes for this request at the **resolved**
    /// trial budget: experiment name, seed, trials, then the rendered spec.
    ///
    /// The spec's deterministic `key = value` rendering is what makes
    /// `"profile": "expected"` and an inline `"spec"` with identical
    /// contents hash to the same key; the format is deliberately excluded
    /// (one cached result serves every rendering).
    #[must_use]
    pub fn canonical_key(&self, resolved_trials: usize) -> String {
        format!(
            "experiment={}\nseed={}\ntrials={}\n{}",
            self.experiment,
            self.seed,
            resolved_trials,
            self.spec.render()
        )
    }
}

/// Parse one request line into a [`Command`].
///
/// # Errors
/// Returns a human-readable message for malformed JSON, unknown fields or
/// commands, conflicting `profile`/`spec`, and invalid specs.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let json = Json::parse(line).map_err(|e| format!("malformed request JSON: {e}"))?;
    let fields = json
        .fields()
        .ok_or("request must be a JSON object".to_string())?;

    let cmd = match json.field("cmd") {
        None => "run",
        Some(value) => value.as_str().ok_or("cmd must be a string".to_string())?,
    };
    match cmd {
        "stats" | "shutdown" => {
            if let Some((key, _)) = fields.iter().find(|(k, _)| k != "cmd") {
                return Err(format!("unknown field \"{key}\" for cmd \"{cmd}\""));
            }
            Ok(if cmd == "stats" {
                Command::Stats
            } else {
                Command::Shutdown
            })
        }
        "run" => parse_run(&json).map(|req| Command::Run(Box::new(req))),
        other => Err(format!(
            "unknown cmd \"{other}\" (expected run, stats, or shutdown)"
        )),
    }
}

fn parse_run(json: &Json) -> Result<RunRequest, String> {
    const KNOWN: [&str; 6] = ["cmd", "experiment", "profile", "spec", "seed", "trials"];
    for (key, _) in json.fields().expect("checked object") {
        if !KNOWN.contains(&key.as_str()) && key != "format" {
            return Err(format!("unknown field \"{key}\" in run request"));
        }
    }

    let experiment = json
        .field("experiment")
        .ok_or("run request needs an \"experiment\" field".to_string())?
        .as_str()
        .ok_or("experiment must be a string".to_string())?
        .to_string();

    let spec = match (json.field("profile"), json.field("spec")) {
        (Some(_), Some(_)) => {
            return Err("\"profile\" and \"spec\" are mutually exclusive".to_string())
        }
        (Some(profile), None) => {
            let name = profile
                .as_str()
                .ok_or("profile must be a string".to_string())?;
            MachineSpec::named(name)?
        }
        (None, Some(spec)) => {
            let text = spec
                .as_str()
                .ok_or("spec must be a string (rendered spec text)".to_string())?;
            MachineSpec::parse(text).map_err(|e| format!("invalid spec: {e}"))?
        }
        (None, None) => MachineSpec::expected(),
    };
    spec.validate()
        .map_err(|e| format!("spec \"{}\" failed validation: {e}", spec.name))?;

    let seed = match json.field("seed") {
        None => DEFAULT_SEED,
        Some(value) => value
            .as_u64()
            .ok_or("seed must be a non-negative integer".to_string())?,
    };
    let trials = match json.field("trials") {
        None => None,
        Some(value) => {
            let trials = value
                .as_usize()
                .ok_or("trials must be a non-negative integer".to_string())?;
            if trials == 0 {
                // The same contract as the CLI's check_trials: zero trials
                // would render all-zero rates indistinguishable from real
                // measurements.
                return Err("trials must be at least 1 (got 0)".to_string());
            }
            Some(trials)
        }
    };
    let format = match json.field("format") {
        None => Format::Json,
        Some(value) => value
            .as_str()
            .ok_or("format must be a string".to_string())?
            .parse()
            .map_err(|e| format!("{e}"))?,
    };

    Ok(RunRequest {
        experiment,
        spec,
        seed,
        trials,
        format,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_resolve_like_the_cli() {
        let cmd = parse_command(r#"{"experiment": "table1"}"#).unwrap();
        let Command::Run(req) = cmd else {
            panic!("not a run")
        };
        assert_eq!(req.experiment, "table1");
        assert_eq!(req.spec.name, "expected");
        assert_eq!(req.seed, DEFAULT_SEED);
        assert_eq!(req.trials, None);
        assert_eq!(req.format, Format::Json);
    }

    #[test]
    fn explicit_fields_parse() {
        let cmd = parse_command(
            r#"{"experiment": "ecc-latency", "profile": "current", "seed": 7, "trials": 40, "format": "text"}"#,
        )
        .unwrap();
        let Command::Run(req) = cmd else {
            panic!("not a run")
        };
        assert_eq!(req.spec.name, "current");
        assert_eq!(req.seed, 7);
        assert_eq!(req.trials, Some(40));
        assert_eq!(req.format, Format::Text);
    }

    #[test]
    fn inline_specs_load_and_validate() {
        let spec_text = MachineSpec::relaxed_speed().render();
        let line = format!(
            "{{\"experiment\": \"table1\", \"spec\": {}}}",
            qla_report::json_escape(&spec_text)
        );
        let Command::Run(req) = parse_command(&line).unwrap() else {
            panic!("not a run")
        };
        assert_eq!(req.spec, MachineSpec::relaxed_speed());

        // An invalid spec fails at parse time, not mid-evaluation.
        let broken = spec_text.replace("recursion_level = 2", "recursion_level = 9");
        let line = format!(
            "{{\"experiment\": \"table1\", \"spec\": {}}}",
            qla_report::json_escape(&broken)
        );
        assert!(parse_command(&line).unwrap_err().contains("validation"));

        // A machine too large to allocate is refused the same way.
        let huge = spec_text.replace("logical_qubits = 400\n", "logical_qubits = 4000000000\n");
        let line = format!(
            "{{\"experiment\": \"sim-tail-latency\", \"spec\": {}}}",
            qla_report::json_escape(&huge)
        );
        let err = parse_command(&line).unwrap_err();
        assert!(
            err.contains("logical_qubits must be between 1 and 1048576, got 4000000000"),
            "{err}"
        );
    }

    #[test]
    fn stats_and_shutdown_commands_parse() {
        assert_eq!(
            parse_command(r#"{"cmd": "stats"}"#).unwrap(),
            Command::Stats
        );
        assert_eq!(
            parse_command(r#"{"cmd": "shutdown"}"#).unwrap(),
            Command::Shutdown
        );
        assert!(parse_command(r#"{"cmd": "stats", "x": 1}"#)
            .unwrap_err()
            .contains("unknown field"));
        assert!(parse_command(r#"{"cmd": "frobnicate"}"#)
            .unwrap_err()
            .contains("unknown cmd"));
    }

    #[test]
    fn malformed_requests_fail_loudly() {
        assert!(parse_command("not json").unwrap_err().contains("malformed"));
        assert!(parse_command("[1, 2]").unwrap_err().contains("object"));
        assert_eq!(
            parse_command(&"[".repeat(200_000)).unwrap_err(),
            "malformed request JSON: nesting deeper than 64 at byte 64"
        );
        assert!(parse_command(r#"{"trails": 5, "experiment": "table1"}"#)
            .unwrap_err()
            .contains("trails"));
        assert!(parse_command(r#"{"experiment": "table1", "trials": 0}"#)
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_command(r#"{"experiment": "table1", "seed": -3}"#)
            .unwrap_err()
            .contains("seed"));
        assert!(
            parse_command(r#"{"experiment": "t", "profile": "expected", "spec": "x"}"#)
                .unwrap_err()
                .contains("mutually exclusive")
        );
        assert!(parse_command(r#"{"experiment": "t", "profile": "nope"}"#)
            .unwrap_err()
            .contains("unknown profile"));
        assert!(parse_command(r#"{"experiment": "t", "format": "yaml"}"#)
            .unwrap_err()
            .contains("yaml"));
        assert!(parse_command(r#"{"cmd": "run"}"#)
            .unwrap_err()
            .contains("experiment"));
    }

    #[test]
    fn canonical_keys_are_profile_inline_agnostic_and_format_blind() {
        let via_profile = {
            let Command::Run(r) =
                parse_command(r#"{"experiment": "table1", "profile": "current", "seed": 9}"#)
                    .unwrap()
            else {
                panic!()
            };
            r
        };
        let via_inline = {
            let line = format!(
                "{{\"experiment\": \"table1\", \"spec\": {}, \"seed\": 9, \"format\": \"text\"}}",
                qla_report::json_escape(&MachineSpec::current().render())
            );
            let Command::Run(r) = parse_command(&line).unwrap() else {
                panic!()
            };
            r
        };
        assert_eq!(via_profile.canonical_key(5), via_inline.canonical_key(5));
        assert_ne!(via_profile.canonical_key(5), via_profile.canonical_key(6));
    }
}
