//! Declarative fault plans and their byte-stable text format.
//!
//! A [`FaultPlan`] names *what* breaks in ECC-window units — per-edge
//! channel degradations/outages and ancilla-factory capacity loss, each
//! with an onset and a duration — without reference to a clock or a
//! machine. [`FaultPlan::compile`] turns it into the engine's absolute
//! nanosecond [`FaultTimeline`] against a concrete mesh and
//! [`SimConfig`], checking every edge and capacity against the hardware
//! it is supposed to degrade.
//!
//! The text format is the `key = value` grammar of machine specs, read by
//! the same scanner (`qla_core::kv`): [`FaultPlan::render`] is the
//! canonical byte-stable form, and [`FaultPlan::parse`] maps every
//! malformed input to a typed, line-anchored [`FaultError`] — a typo in a
//! scenario file must never silently weaken the fault it describes.

use qla_core::kv::{Fields, KvError};
use qla_core::FaultSpec;
use qla_sched::{Edge, Mesh};
use qla_sim::{ChannelFault, FactoryFault, FaultTimeline, SimConfig, SimTime};
use serde::Serialize;

/// The version this build renders and reads.
pub const FORMAT_VERSION: u32 = 1;

/// One declared channel fault: the edge `(a, b)` keeps `channels`
/// surviving channels during `[onset, onset + duration)` windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChannelFaultSpec {
    /// One endpoint of the degraded edge.
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// Surviving channels during the fault (0 = outage).
    pub channels: usize,
    /// Fault onset in ECC windows from the start of the run.
    pub onset_windows: usize,
    /// Fault duration in ECC windows.
    pub duration_windows: usize,
}

/// One declared factory fault: at most `capacity` preparation slots may
/// start new blocks during `[onset, onset + duration)` windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FactoryFaultSpec {
    /// Surviving preparation slots during the fault (0 = stall).
    pub capacity: usize,
    /// Fault onset in ECC windows.
    pub onset_windows: usize,
    /// Fault duration in ECC windows.
    pub duration_windows: usize,
}

/// A declarative, machine-independent fault scenario.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Scenario name (single line, no `#`).
    pub name: String,
    /// Declared channel faults.
    pub channel_faults: Vec<ChannelFaultSpec>,
    /// Declared factory faults.
    pub factory_faults: Vec<FactoryFaultSpec>,
}

/// Everything that can be wrong with a fault-plan text or its
/// compilation against a machine, with 1-based line anchors where a line
/// is to blame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A line matched no rule of the grammar.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The `format_version` header is not one this build understands.
    UnsupportedVersion {
        /// The version string found.
        found: String,
    },
    /// A required key was absent.
    MissingKey {
        /// The missing key.
        key: String,
    },
    /// A key outside the format (or past the declared fault counts).
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unrecognised key.
        key: String,
    },
    /// The same key given twice.
    DuplicateKey {
        /// Line of the second occurrence.
        line: usize,
        /// The duplicated key.
        key: String,
        /// Line of the first occurrence.
        first_line: usize,
    },
    /// A value that does not parse as what the key demands.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The key whose value is malformed.
        key: String,
        /// The offending value text.
        value: String,
        /// What the key demands.
        expected: &'static str,
    },
    /// A structurally valid plan that violates an invariant (an empty
    /// name, a zero duration, a self-loop edge) or does not fit the
    /// machine it is compiled against.
    Invalid(String),
}

impl core::fmt::Display for FaultError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultError::Syntax { line, message } => write!(f, "fault plan line {line}: {message}"),
            FaultError::UnsupportedVersion { found } => write!(
                f,
                "unsupported fault plan format_version '{found}' (this build reads version {FORMAT_VERSION})"
            ),
            FaultError::MissingKey { key } => {
                write!(f, "fault plan is missing the '{key} = ...' line")
            }
            FaultError::UnknownKey { line, key } => {
                write!(f, "fault plan line {line}: unknown key '{key}'")
            }
            FaultError::DuplicateKey {
                line,
                key,
                first_line,
            } => write!(
                f,
                "fault plan line {line}: key '{key}' already given on line {first_line}"
            ),
            FaultError::BadValue {
                line,
                key,
                value,
                expected,
            } => write!(
                f,
                "fault plan line {line}: key '{key}' expects {expected}, got '{value}'"
            ),
            FaultError::Invalid(message) => write!(f, "invalid fault plan: {message}"),
        }
    }
}

impl std::error::Error for FaultError {}

impl FaultPlan {
    /// The no-fault plan: compiling it yields an empty timeline, so a run
    /// under it is byte-identical to the healthy engine.
    #[must_use]
    pub fn healthy(name: &str) -> Self {
        FaultPlan {
            name: name.to_owned(),
            channel_faults: Vec::new(),
            factory_faults: Vec::new(),
        }
    }

    /// A deterministic degradation: `round(edge_fraction · E)` edges
    /// (at least one), picked at evenly spaced indices of the mesh's
    /// canonical edge order, each keeping `round((1 − severity) ·
    /// channels_per_edge)` channels for `[onset, onset + duration)`
    /// windows. Severity 0 yields the healthy plan; severity 1 a full
    /// outage of the picked edges.
    ///
    /// # Panics
    /// Panics if `severity` is outside `[0, 1]`, `edge_fraction` outside
    /// `(0, 1]`, or `duration_windows` is zero.
    #[must_use]
    pub fn degraded(
        name: &str,
        mesh: &Mesh,
        cfg: &SimConfig,
        severity: f64,
        edge_fraction: f64,
        onset_windows: usize,
        duration_windows: usize,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&severity),
            "severity must lie in [0, 1], got {severity}"
        );
        assert!(
            edge_fraction > 0.0 && edge_fraction <= 1.0,
            "edge_fraction must lie in (0, 1], got {edge_fraction}"
        );
        assert!(duration_windows >= 1, "duration_windows must be at least 1");
        if severity == 0.0 {
            return FaultPlan::healthy(name);
        }
        let edges = mesh.edges();
        let count =
            ((edge_fraction * edges.len() as f64).round() as usize).clamp(1, edges.len().max(1));
        let channels = ((1.0 - severity) * cfg.channels_per_edge as f64).round() as usize;
        let channel_faults = (0..count)
            .map(|j| {
                let edge = edges[j * edges.len() / count];
                ChannelFaultSpec {
                    a: edge.a,
                    b: edge.b,
                    channels,
                    onset_windows,
                    duration_windows,
                }
            })
            .collect();
        FaultPlan {
            name: name.to_owned(),
            channel_faults,
            factory_faults: Vec::new(),
        }
    }

    /// The `fault-sweep` scenario at one severity of a
    /// [`FaultSpec`] grid: the [`FaultPlan::degraded`] channel plan plus
    /// a factory fault losing `severity · factory_loss` of the slots over
    /// the same window span.
    #[must_use]
    pub fn for_severity(spec: &FaultSpec, mesh: &Mesh, cfg: &SimConfig, severity: f64) -> Self {
        let name = format!("severity-{}pct", (severity * 100.0).round() as u64);
        let mut plan = FaultPlan::degraded(
            &name,
            mesh,
            cfg,
            severity,
            spec.degraded_edge_fraction,
            spec.onset_windows,
            spec.duration_windows,
        );
        let capacity =
            ((1.0 - severity * spec.factory_loss) * cfg.ancilla_capacity as f64).round() as usize;
        if capacity < cfg.ancilla_capacity {
            plan.factory_faults.push(FactoryFaultSpec {
                capacity,
                onset_windows: spec.onset_windows,
                duration_windows: spec.duration_windows,
            });
        }
        plan
    }

    /// Check the plan's machine-independent invariants.
    ///
    /// # Errors
    /// Returns [`FaultError::Invalid`] on an empty/multi-line/`#`-bearing
    /// name, a self-loop edge, or a zero fault duration.
    pub fn validate(&self) -> Result<(), FaultError> {
        if self.name.is_empty() {
            return Err(FaultError::Invalid("name must not be empty".to_owned()));
        }
        if self.name.contains('\n') || self.name.contains('#') || self.name.trim() != self.name {
            return Err(FaultError::Invalid(format!(
                "name must be a single trimmed line without '#' (got {:?})",
                self.name
            )));
        }
        for (i, fault) in self.channel_faults.iter().enumerate() {
            if fault.a == fault.b {
                return Err(FaultError::Invalid(format!(
                    "channel_fault.{i} is a self-loop on node {}",
                    fault.a
                )));
            }
            if fault.duration_windows == 0 {
                return Err(FaultError::Invalid(format!(
                    "channel_fault.{i} has zero duration"
                )));
            }
        }
        for (i, fault) in self.factory_faults.iter().enumerate() {
            if fault.duration_windows == 0 {
                return Err(FaultError::Invalid(format!(
                    "factory_fault.{i} has zero duration"
                )));
            }
        }
        Ok(())
    }

    /// Compile the plan against a concrete machine into the engine's
    /// absolute-time [`FaultTimeline`] (window counts × `cfg.window`).
    ///
    /// # Errors
    /// Returns [`FaultError::Invalid`] if the plan fails
    /// [`FaultPlan::validate`], names an edge outside the mesh, or asks
    /// for more surviving capacity than the healthy machine has (that
    /// would silently *heal* the machine, not degrade it).
    pub fn compile(&self, mesh: &Mesh, cfg: &SimConfig) -> Result<FaultTimeline, FaultError> {
        self.validate()?;
        let edges: std::collections::HashSet<Edge> = mesh.edges().into_iter().collect();
        let span = |onset: usize, duration: usize| {
            let from = cfg.window * onset as u64;
            (from, from + cfg.window * duration as u64)
        };
        let mut timeline = FaultTimeline::default();
        for (i, fault) in self.channel_faults.iter().enumerate() {
            let edge = Edge::new(fault.a, fault.b);
            if !edges.contains(&edge) {
                return Err(FaultError::Invalid(format!(
                    "channel_fault.{i} names edge ({}, {}) outside the {}-node mesh",
                    fault.a,
                    fault.b,
                    mesh.node_count()
                )));
            }
            if fault.channels > cfg.channels_per_edge {
                return Err(FaultError::Invalid(format!(
                    "channel_fault.{i} keeps {} channels but the edge only has {}",
                    fault.channels, cfg.channels_per_edge
                )));
            }
            let (from, until) = span(fault.onset_windows, fault.duration_windows);
            timeline.channel_faults.push(ChannelFault {
                edge,
                from,
                until,
                channels: fault.channels,
            });
        }
        for (i, fault) in self.factory_faults.iter().enumerate() {
            if fault.capacity > cfg.ancilla_capacity {
                return Err(FaultError::Invalid(format!(
                    "factory_fault.{i} keeps {} slots but the factory only has {}",
                    fault.capacity, cfg.ancilla_capacity
                )));
            }
            let (from, until) = span(fault.onset_windows, fault.duration_windows);
            timeline.factory_faults.push(FactoryFault {
                from,
                until,
                capacity: fault.capacity,
            });
        }
        Ok(timeline)
    }

    /// Render the plan in the canonical text format. Byte-stable, and
    /// [`FaultPlan::parse`]s back to an equal value — the fixed point the
    /// property tests pin.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut line = |key: &str, value: String| {
            out.push_str(key);
            out.push_str(" = ");
            out.push_str(&value);
            out.push('\n');
        };
        line("format_version", FORMAT_VERSION.to_string());
        line("name", self.name.clone());
        line("channel_faults", self.channel_faults.len().to_string());
        for (i, fault) in self.channel_faults.iter().enumerate() {
            line(
                &format!("channel_fault.{i}"),
                format!(
                    "{} {} {} {} {}",
                    fault.a, fault.b, fault.channels, fault.onset_windows, fault.duration_windows
                ),
            );
        }
        line("factory_faults", self.factory_faults.len().to_string());
        for (i, fault) in self.factory_faults.iter().enumerate() {
            line(
                &format!("factory_fault.{i}"),
                format!(
                    "{} {} {}",
                    fault.capacity, fault.onset_windows, fault.duration_windows
                ),
            );
        }
        out
    }

    /// Parse a plan from the text format (the shared `qla_core::kv`
    /// grammar). Every key is required exactly once; unknown keys,
    /// duplicates, omissions, and malformed values are all loud, typed,
    /// line-anchored errors.
    ///
    /// # Errors
    /// Returns the first problem found as a [`FaultError`].
    pub fn parse(text: &str) -> Result<FaultPlan, FaultError> {
        let mut fields = Fields::scan(text)?;
        let version = fields.take("format_version")?;
        if version.value != FORMAT_VERSION.to_string() {
            return Err(FaultError::UnsupportedVersion {
                found: version.value.to_owned(),
            });
        }
        let name = fields.take("name")?.value.to_owned();
        // The declared counts come from untrusted text, so nothing is
        // sized by them: a count past the fault lines actually present
        // ends on the first missing `channel_fault.K`.
        let mut channel_faults = Vec::new();
        for i in 0..count(&mut fields, "channel_faults")? {
            let [a, b, channels, onset_windows, duration_windows] = fields.value(
                &format!("channel_fault.{i}"),
                "five space-separated integers: a b channels onset_windows duration_windows",
                ints,
            )?;
            channel_faults.push(ChannelFaultSpec {
                a,
                b,
                channels,
                onset_windows,
                duration_windows,
            });
        }
        let mut factory_faults = Vec::new();
        for i in 0..count(&mut fields, "factory_faults")? {
            let [capacity, onset_windows, duration_windows] = fields.value(
                &format!("factory_fault.{i}"),
                "three space-separated integers: capacity onset_windows duration_windows",
                ints,
            )?;
            factory_faults.push(FactoryFaultSpec {
                capacity,
                onset_windows,
                duration_windows,
            });
        }
        fields.finish()?;
        let plan = FaultPlan {
            name,
            channel_faults,
            factory_faults,
        };
        plan.validate()?;
        Ok(plan)
    }
}

fn count(fields: &mut Fields<'_>, key: &str) -> Result<usize, KvError> {
    fields.value(key, "a non-negative integer count", |v| v.parse().ok())
}

/// Exactly `N` space-separated non-negative integers, or `None`.
fn ints<const N: usize>(value: &str) -> Option<[usize; N]> {
    let mut parts = value.split_whitespace();
    let mut out = [0; N];
    for slot in &mut out {
        *slot = parts.next()?.parse().ok()?;
    }
    parts.next().is_none().then_some(out)
}

impl From<KvError> for FaultError {
    fn from(e: KvError) -> Self {
        match e {
            KvError::Syntax { line, message } => FaultError::Syntax { line, message },
            KvError::DuplicateKey {
                line,
                key,
                first_line,
            } => FaultError::DuplicateKey {
                line,
                key,
                first_line,
            },
            KvError::MissingKey { key } => FaultError::MissingKey { key },
            KvError::UnknownKey { line, key } => FaultError::UnknownKey { line, key },
            KvError::BadValue {
                line,
                key,
                value,
                expected,
            } => FaultError::BadValue {
                line,
                key,
                value,
                expected,
            },
        }
    }
}

/// Convert a window-count horizon into the absolute [`SimTime`] instant
/// `windows × cfg.window` — the unit bridge every caller of
/// [`FaultPlan::compile`] also needs for onset arithmetic.
#[must_use]
pub fn windows(cfg: &SimConfig, count: usize) -> SimTime {
    cfg.window * count as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig {
            window: SimTime::from_nanos(1_000),
            pair_service: SimTime::from_nanos(100),
            pairs_per_window: 10,
            channels_per_edge: 4,
            max_in_flight: 64,
            ancilla_capacity: 12,
            ancilla_prep: SimTime::from_nanos(1_000),
            measure: None,
        }
    }

    fn sample() -> FaultPlan {
        FaultPlan {
            name: "sample".to_owned(),
            channel_faults: vec![
                ChannelFaultSpec {
                    a: 0,
                    b: 1,
                    channels: 1,
                    onset_windows: 2,
                    duration_windows: 3,
                },
                ChannelFaultSpec {
                    a: 1,
                    b: 5,
                    channels: 0,
                    onset_windows: 0,
                    duration_windows: 8,
                },
            ],
            factory_faults: vec![FactoryFaultSpec {
                capacity: 6,
                onset_windows: 2,
                duration_windows: 3,
            }],
        }
    }

    #[test]
    fn render_parse_is_a_fixed_point() {
        let plan = sample();
        let text = plan.render();
        let parsed = FaultPlan::parse(&text).expect("rendered plans parse");
        assert_eq!(parsed, plan);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn compile_maps_windows_to_absolute_time() {
        let mesh = Mesh::new(4, 4, 2);
        let timeline = sample().compile(&mesh, &cfg()).expect("compiles");
        assert_eq!(timeline.channel_faults.len(), 2);
        assert_eq!(timeline.channel_faults[0].from, SimTime::from_nanos(2_000));
        assert_eq!(timeline.channel_faults[0].until, SimTime::from_nanos(5_000));
        assert_eq!(timeline.channel_faults[1].edge, Edge::new(1, 5));
        assert_eq!(timeline.factory_faults[0].capacity, 6);
    }

    #[test]
    fn compile_rejects_foreign_edges_and_over_capacity() {
        let mesh = Mesh::new(2, 1, 1);
        let mut plan = sample();
        let err = plan.compile(&mesh, &cfg()).expect_err("edge (1, 5) absent");
        assert!(err.to_string().contains("outside the 2-node mesh"), "{err}");
        plan.channel_faults.truncate(1);
        plan.channel_faults[0].channels = 9;
        let err = plan.compile(&mesh, &cfg()).expect_err("too many channels");
        assert!(err.to_string().contains("only has 4"), "{err}");
    }

    #[test]
    fn degraded_plans_scale_with_severity_and_fraction() {
        let mesh = Mesh::new(4, 4, 2);
        let c = cfg();
        let edge_count = mesh.edges().len();
        let healthy = FaultPlan::degraded("h", &mesh, &c, 0.0, 0.25, 2, 4);
        assert_eq!(healthy, FaultPlan::healthy("h"));
        let outage = FaultPlan::degraded("o", &mesh, &c, 1.0, 1.0, 2, 4);
        assert_eq!(outage.channel_faults.len(), edge_count);
        assert!(outage.channel_faults.iter().all(|f| f.channels == 0));
        let half = FaultPlan::degraded("d", &mesh, &c, 0.5, 0.25, 2, 4);
        assert_eq!(
            half.channel_faults.len(),
            ((0.25 * edge_count as f64).round()) as usize
        );
        assert!(half.channel_faults.iter().all(|f| f.channels == 2));
        // Picked edges are distinct and every plan compiles.
        let mut edges: Vec<(usize, usize)> =
            half.channel_faults.iter().map(|f| (f.a, f.b)).collect();
        edges.dedup();
        assert_eq!(edges.len(), half.channel_faults.len());
        for plan in [healthy, outage, half] {
            plan.compile(&mesh, &c).expect("degraded plans compile");
        }
    }

    #[test]
    fn for_severity_adds_the_factory_loss() {
        let mesh = Mesh::new(4, 4, 2);
        let spec = FaultSpec::paper();
        let c = cfg();
        let zero = FaultPlan::for_severity(&spec, &mesh, &c, 0.0);
        assert!(zero.channel_faults.is_empty() && zero.factory_faults.is_empty());
        let healthy = zero.compile(&mesh, &c).expect("compiles");
        assert_eq!(healthy, FaultTimeline::default());
        let full = FaultPlan::for_severity(&spec, &mesh, &c, 1.0);
        // factory_loss 0.5 of 12 slots leaves 6.
        assert_eq!(full.factory_faults[0].capacity, 6);
        assert!(full.channel_faults.iter().all(|f| f.channels == 0));
    }

    #[test]
    fn malformed_texts_fail_with_typed_line_anchored_errors() {
        let text = sample().render();
        let bad = text.replace("format_version = 1", "format_version = 9");
        assert_eq!(
            FaultPlan::parse(&bad).unwrap_err(),
            FaultError::UnsupportedVersion {
                found: "9".to_owned()
            }
        );
        let bad = format!("{text}mystery = 1\n");
        assert!(matches!(
            FaultPlan::parse(&bad).unwrap_err(),
            FaultError::UnknownKey { key, .. } if key == "mystery"
        ));
        let bad = text.replace("channel_fault.0 = 0 1 1 2 3", "channel_fault.0 = 0 1 1 2");
        assert!(matches!(
            FaultPlan::parse(&bad).unwrap_err(),
            FaultError::BadValue { key, .. } if key == "channel_fault.0"
        ));
        let err = FaultPlan::parse("no equals sign").unwrap_err();
        assert!(matches!(err, FaultError::Syntax { line: 1, .. }), "{err}");

        // A malformed value names its line.
        let bad = text.replace("factory_faults = 1", "factory_faults = two");
        let line = 1 + text
            .lines()
            .position(|l| l == "factory_faults = 1")
            .unwrap();
        assert!(matches!(
            FaultPlan::parse(&bad).unwrap_err(),
            FaultError::BadValue { line: l, key, .. } if l == line && key == "factory_faults"
        ));

        // Of several unknown keys, the one on the earliest line is named.
        let bad = format!("{text}zzz = 1\naaa = 2\n");
        assert_eq!(
            FaultPlan::parse(&bad).unwrap_err(),
            FaultError::UnknownKey {
                line: text.lines().count() + 1,
                key: "zzz".to_owned()
            }
        );

        // Declared counts far beyond the lines present (or beyond any
        // allocation) end on the first missing fault line.
        for huge in ["100000000000", "18446744073709551615"] {
            let bad = text.replace("channel_faults = 2", &format!("channel_faults = {huge}"));
            assert_eq!(
                FaultPlan::parse(&bad).unwrap_err(),
                FaultError::MissingKey {
                    key: "channel_fault.2".to_owned()
                }
            );
        }
    }
}
