//! Declarative fault plans.
//!
//! A [`FaultPlan`] names *what* breaks in ECC-window units — per-edge
//! channel degradations/outages and ancilla-factory capacity loss, each
//! with an onset and a duration — without reference to a clock or a
//! machine. [`FaultPlan::compile`] turns it into the engine's absolute
//! nanosecond [`FaultTimeline`] against a concrete mesh and
//! [`SimConfig`], checking every edge and capacity against the hardware
//! it is supposed to degrade.

use qla_core::FaultSpec;
use qla_sched::{Edge, Mesh};
use qla_sim::{ChannelFault, FactoryFault, FaultTimeline, SimConfig, SimTime};
use serde::Serialize;

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
    /// Scenario name.
    pub name: String,
    /// Declared channel faults.
    pub channel_faults: Vec<ChannelFaultSpec>,
    /// Declared factory faults.
    pub factory_faults: Vec<FactoryFaultSpec>,
}

/// Why a plan cannot be compiled: it violates an invariant (a zero
/// duration, a self-loop edge) or does not fit the machine it is compiled
/// against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// What is wrong with the plan.
    Invalid(String),
}

impl core::fmt::Display for FaultError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
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
    /// Returns [`FaultError::Invalid`] on a self-loop edge or a zero fault
    /// duration.
    pub fn validate(&self) -> Result<(), FaultError> {
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
    fn compile_rejects_self_loops_and_zero_durations() {
        let mesh = Mesh::new(4, 4, 2);
        let reject = |plan: &FaultPlan, expected: &str| {
            let err = plan.compile(&mesh, &cfg()).expect_err(expected);
            assert_eq!(err, FaultError::Invalid(expected.to_owned()));
            assert_eq!(err.to_string(), format!("invalid fault plan: {expected}"));
        };
        let mut plan = sample();
        plan.channel_faults[1].b = 1;
        reject(&plan, "channel_fault.1 is a self-loop on node 1");
        let mut plan = sample();
        plan.channel_faults[0].duration_windows = 0;
        reject(&plan, "channel_fault.0 has zero duration");
        let mut plan = sample();
        plan.factory_faults[0].duration_windows = 0;
        reject(&plan, "factory_fault.0 has zero duration");
        let mut plan = sample();
        plan.factory_faults[0].capacity = 13;
        reject(
            &plan,
            "factory_fault.0 keeps 13 slots but the factory only has 12",
        );
    }
}
