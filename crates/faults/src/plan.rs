//! The `fault-sweep` fault scenario at one severity.
//!
//! A [`FaultSpec`] names *what* breaks in ECC-window units — the fraction
//! of mesh edges whose EPR channels degrade, the factory capacity lost at
//! full severity, and one onset and duration for both — without reference
//! to a clock or a machine. [`severity_timeline`] turns it, at one
//! severity, into the engine's absolute-nanosecond [`FaultTimeline`]
//! against a concrete mesh and [`SimConfig`]. The spec's ranges are
//! checked once, by `MachineSpec::validate`; the engine checks the
//! timeline against the machine before it runs.

use qla_core::FaultSpec;
use qla_sched::Mesh;
use qla_sim::{ChannelFault, FactoryFault, FaultTimeline, SimConfig};

/// The fault timeline of `spec` at `severity` on one machine, active over
/// the windows `[onset, onset + duration)`:
///
/// * `round(degraded_edge_fraction · E)` edges (at least one), picked at
///   evenly spaced indices of the mesh's canonical edge order, each keep
///   `round((1 − severity) · channels_per_edge)` channels;
/// * the ancilla factory keeps `round((1 − severity · factory_loss) ·
///   ancilla_capacity)` slots, a fault only when that is below capacity.
///
/// Severity 0 yields the empty (healthy) timeline; severity 1 a full
/// outage of the picked edges.
///
/// # Panics
/// Panics if the fault window ends past the last representable
/// [`SimTime`](qla_sim::SimTime) (`MachineSpec::validate` rules that out
/// for every built-in machine).
#[must_use]
pub fn severity_timeline(
    spec: &FaultSpec,
    mesh: &Mesh,
    cfg: &SimConfig,
    severity: f64,
) -> FaultTimeline {
    let from = cfg.window * spec.onset_windows as u64;
    let until = from + cfg.window * spec.duration_windows as u64;
    let mut timeline = FaultTimeline::default();
    if severity > 0.0 {
        let edges = mesh.edges();
        let count = ((spec.degraded_edge_fraction * edges.len() as f64).round() as usize)
            .max(1)
            .min(edges.len());
        let channels = ((1.0 - severity) * cfg.channels_per_edge as f64).round() as usize;
        timeline.channel_faults = (0..count)
            .map(|j| ChannelFault {
                edge: edges[j * edges.len() / count],
                from,
                until,
                channels,
            })
            .collect();
    }
    let capacity =
        ((1.0 - severity * spec.factory_loss) * cfg.ancilla_capacity as f64).round() as usize;
    if capacity < cfg.ancilla_capacity {
        timeline.factory_faults.push(FactoryFault {
            from,
            until,
            capacity,
        });
    }
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;
    use qla_sim::SimTime;

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

    fn spec(edge_fraction: f64, factory_loss: f64) -> FaultSpec {
        FaultSpec {
            degraded_edge_fraction: edge_fraction,
            onset_windows: 2,
            duration_windows: 3,
            factory_loss,
            ..FaultSpec::paper()
        }
    }

    #[test]
    fn compile_maps_windows_to_absolute_time() {
        let mesh = Mesh::new(4, 4, 2);
        let timeline = severity_timeline(&spec(0.25, 0.5), &mesh, &cfg(), 0.5);
        let windows = (SimTime::from_nanos(2_000), SimTime::from_nanos(5_000));
        assert!(!timeline.channel_faults.is_empty());
        for fault in &timeline.channel_faults {
            assert_eq!((fault.from, fault.until), windows);
        }
        let factory = timeline.factory_faults[0];
        assert_eq!((factory.from, factory.until), windows);
        // Half of the 0.5 factory loss of 12 slots leaves 9.
        assert_eq!(factory.capacity, 9);
        timeline.validate(&mesh, &cfg(), &[]);
    }

    #[test]
    fn degraded_plans_scale_with_severity_and_fraction() {
        let mesh = Mesh::new(4, 4, 2);
        let c = cfg();
        let edge_count = mesh.edges().len();
        let healthy = severity_timeline(&spec(0.25, 0.0), &mesh, &c, 0.0);
        assert_eq!(healthy, FaultTimeline::default());
        let outage = severity_timeline(&spec(1.0, 0.0), &mesh, &c, 1.0);
        assert_eq!(outage.channel_faults.len(), edge_count);
        assert!(outage.channel_faults.iter().all(|f| f.channels == 0));
        let half = severity_timeline(&spec(0.25, 0.0), &mesh, &c, 0.5);
        assert_eq!(
            half.channel_faults.len(),
            ((0.25 * edge_count as f64).round()) as usize
        );
        assert!(half.channel_faults.iter().all(|f| f.channels == 2));
        assert!(half.factory_faults.is_empty(), "no factory loss declared");
        // Picked edges are distinct and every timeline fits the machine.
        let mut edges: Vec<_> = half.channel_faults.iter().map(|f| f.edge).collect();
        edges.dedup();
        assert_eq!(edges.len(), half.channel_faults.len());
        for timeline in [healthy, outage, half] {
            timeline.validate(&mesh, &c, &[]);
        }
    }

    #[test]
    fn for_severity_adds_the_factory_loss() {
        let mesh = Mesh::new(4, 4, 2);
        let spec = FaultSpec::paper();
        let c = cfg();
        assert_eq!(
            severity_timeline(&spec, &mesh, &c, 0.0),
            FaultTimeline::default()
        );
        let full = severity_timeline(&spec, &mesh, &c, 1.0);
        // factory_loss 0.5 of 12 slots leaves 6.
        assert_eq!(full.factory_faults[0].capacity, 6);
        assert!(full.channel_faults.iter().all(|f| f.channels == 0));
    }
}
