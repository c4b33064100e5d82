//! The `qla-bench serve` subcommand: the evaluation service wired to the
//! real experiment registry.
//!
//! ```text
//! qla-bench serve [--addr HOST:PORT] [--port-file FILE]
//!                 [--cache-capacity N] [--max-in-flight N] [--jobs N|auto]
//! qla-bench serve --once
//! qla-bench serve --connect HOST:PORT
//! ```
//!
//! The default mode binds a TCP listener (`--addr`, default
//! `127.0.0.1:7878`; pass port `0` for an ephemeral port) and serves
//! newline-delimited JSON until a `shutdown` command. `--port-file` writes
//! the actual bound `host:port` to a file once listening — the CI soak job
//! uses `--addr 127.0.0.1:0 --port-file …` to avoid port collisions.
//! `--once` serves stdin→stdout without a socket; `--connect` is the
//! matching replay client (stdin request lines → stdout response lines),
//! so the soak job needs no netcat. The service clock is selected by the
//! `QLA_SERVE_CLOCK` environment variable (see [`qla_serve::ServiceClock`]).

use crate::cli::{parse_jobs, parse_positive};
use crate::registry;
use qla_serve::{replay, serve, serve_once, ServeConfig, Service, ServiceClock};
use std::net::TcpListener;

/// Usage text for `qla-bench serve`.
pub const SERVE_USAGE: &str = "usage:
  qla-bench serve [--addr HOST:PORT] [--port-file FILE]
                  [--cache-capacity N] [--max-in-flight N] [--jobs N|auto]
  qla-bench serve --once
  qla-bench serve --connect HOST:PORT

newline-delimited JSON protocol; one request per line:
  {\"experiment\": \"table1\", \"profile\": \"current\", \"seed\": 7, \"format\": \"json\"}
  {\"cmd\": \"stats\"}
  {\"cmd\": \"shutdown\"}
--once serves stdin/stdout without a socket; --connect replays stdin
against a running server. QLA_SERVE_CLOCK=wall switches the service-time
clock from the deterministic virtual model to real wall time.";

/// Parsed `serve` subcommand arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Listen address (`host:port`; port `0` = ephemeral).
    pub addr: String,
    /// File to write the actual bound address to once listening.
    pub port_file: Option<String>,
    /// Serve stdin→stdout instead of TCP.
    pub once: bool,
    /// Act as a replay client against this address instead of serving.
    pub connect: Option<String>,
    /// Result-cache capacity.
    pub cache_capacity: usize,
    /// Admission bound.
    pub max_in_flight: usize,
    /// Worker threads for cache-miss evaluation.
    pub jobs: usize,
}

impl Default for ServeArgs {
    fn default() -> Self {
        let defaults = ServeConfig::default();
        ServeArgs {
            addr: "127.0.0.1:7878".to_string(),
            port_file: None,
            once: false,
            connect: None,
            cache_capacity: defaults.cache_capacity,
            max_in_flight: defaults.max_in_flight,
            jobs: 0,
        }
    }
}

impl ServeArgs {
    /// Parse the argument list following the `serve` positional.
    ///
    /// # Errors
    /// Returns a human-readable message for unknown flags or malformed
    /// values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<ServeArgs, String> {
        let mut parsed = ServeArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--addr" => parsed.addr = iter.next().ok_or("--addr needs a value")?,
                "--port-file" => {
                    parsed.port_file = Some(iter.next().ok_or("--port-file needs a value")?);
                }
                "--once" => parsed.once = true,
                "--connect" => {
                    parsed.connect = Some(iter.next().ok_or("--connect needs a value")?);
                }
                "--cache-capacity" => {
                    let v = iter.next().ok_or("--cache-capacity needs a value")?;
                    parsed.cache_capacity = parse_positive("--cache-capacity", &v)?;
                }
                "--max-in-flight" => {
                    let v = iter.next().ok_or("--max-in-flight needs a value")?;
                    parsed.max_in_flight = parse_positive("--max-in-flight", &v)?;
                }
                "--jobs" => {
                    let v = iter.next().ok_or("--jobs needs a value")?;
                    parsed.jobs = parse_jobs("--jobs", &v)?;
                }
                other => {
                    return Err(format!("unknown serve argument '{other}'\n{SERVE_USAGE}"));
                }
            }
        }
        if parsed.once && parsed.connect.is_some() {
            return Err("--once and --connect are mutually exclusive".to_string());
        }
        Ok(parsed)
    }

    /// The service configuration these arguments select.
    ///
    /// # Errors
    /// Returns a message when `QLA_SERVE_CLOCK` is set to an unknown value.
    pub fn config(&self) -> Result<ServeConfig, String> {
        Ok(ServeConfig {
            cache_capacity: self.cache_capacity,
            max_in_flight: self.max_in_flight,
            jobs: self.jobs,
            clock: ServiceClock::from_env()?,
        })
    }
}

/// Run the `serve` subcommand end to end.
///
/// # Errors
/// Returns a human-readable message for argument, bind, or I/O failures.
pub fn run(args: impl IntoIterator<Item = String>) -> Result<(), String> {
    let args = ServeArgs::parse(args)?;

    if let Some(addr) = &args.connect {
        return replay(addr, std::io::stdin().lock(), std::io::stdout().lock())
            .map_err(|e| format!("replay against {addr} failed: {e}"));
    }

    let service = Service::new(Box::new(registry::find), args.config()?);

    if args.once {
        return serve_once(&service, std::io::stdin().lock(), std::io::stdout().lock())
            .map_err(|e| format!("serve --once failed: {e}"));
    }

    let listener =
        TcpListener::bind(&args.addr).map_err(|e| format!("cannot bind {}: {e}", args.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    if let Some(path) = &args.port_file {
        std::fs::write(path, format!("{local}\n"))
            .map_err(|e| format!("cannot write port file {path}: {e}"))?;
    }
    eprintln!("qla-serve listening on {local}");
    let connections = serve(&service, &listener).map_err(|e| format!("serve loop failed: {e}"))?;
    let stats = service.stats();
    eprintln!(
        "qla-serve shut down cleanly: {connections} connections, {} requests \
         ({} hits, {} misses, {} shed, {} errors)",
        stats.requests, stats.hits, stats.misses, stats.shed, stats.errors
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeArgs, String> {
        ServeArgs::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults_mirror_the_service_config() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, ServeArgs::default());
        let config = args.config().unwrap();
        assert_eq!(config.cache_capacity, ServeConfig::default().cache_capacity);
        assert_eq!(config.max_in_flight, ServeConfig::default().max_in_flight);
    }

    #[test]
    fn the_full_flag_set_parses() {
        let args = parse(&[
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            "serve.port",
            "--cache-capacity",
            "8",
            "--max-in-flight",
            "3",
            "--jobs",
            "2",
        ])
        .unwrap();
        assert_eq!(args.addr, "127.0.0.1:0");
        assert_eq!(args.port_file.as_deref(), Some("serve.port"));
        assert_eq!(args.cache_capacity, 8);
        assert_eq!(args.max_in_flight, 3);
        assert_eq!(args.jobs, 2);
    }

    #[test]
    fn malformed_serve_arguments_fail_loudly() {
        assert!(parse(&["--addr"]).unwrap_err().contains("--addr"));
        assert!(parse(&["--cache-capacity", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["--max-in-flight", "x"]).unwrap_err().contains("x"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
        assert!(parse(&["--once", "--connect", "127.0.0.1:1"])
            .unwrap_err()
            .contains("mutually exclusive"));
    }
}
