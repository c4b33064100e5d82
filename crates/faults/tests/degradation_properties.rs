//! Property tests for severity fault timelines against the engine: a
//! degraded channel can only push the sojourn tail up, a degraded run is
//! deterministic and unperturbed by recording, and once the outage window
//! passes the machine serves late arrivals exactly like a healthy one.

use proptest::prelude::*;
use qla_core::FaultSpec;
use qla_faults::severity_timeline;
use qla_obs::{EventLog, Noop, ObsConfig};
use qla_sched::Mesh;
use qla_sim::{
    simulate, simulate_observed, toffoli_stream, LatencySummary, SimConfig, SimTime, TrafficParams,
    WorkItem,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn cfg() -> SimConfig {
    SimConfig {
        window: SimTime::from_nanos(100_000),
        pair_service: SimTime::from_nanos(1_000),
        pairs_per_window: 100,
        channels_per_edge: 4,
        max_in_flight: 64,
        ancilla_capacity: 8,
        ancilla_prep: SimTime::from_nanos(100_000),
        measure: None,
    }
}

/// Half of the edges degrade over windows `[1, 5)`; the factory is spared.
fn brownout() -> FaultSpec {
    FaultSpec {
        degraded_edge_fraction: 0.5,
        onset_windows: 1,
        duration_windows: 4,
        factory_loss: 0.0,
        ..FaultSpec::paper()
    }
}

/// A bursty 8-window Toffoli stream plus one straggler arriving long
/// after every fault has cleared and every queue has drained.
fn workload(mesh: &Mesh, cfg: &SimConfig, seed: u64) -> Vec<WorkItem> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut items = toffoli_stream(
        mesh,
        8,
        &TrafficParams {
            offered_load: 4.0,
            burst_factor: 2.0,
            window: cfg.window,
        },
        &mut rng,
    );
    let mut straggler = items.last().expect("stream is non-empty").clone();
    straggler.arrival = cfg.window * 40;
    items.push(straggler);
    items
}

proptest! {
    // Degrading channels is monotone: the p99 sojourn and the makespan
    // never improve on the healthy baseline of the same arrival stream.
    #[test]
    fn a_degraded_channel_never_improves_the_tail(
        seed in 0u64..10_000,
        severity_step in 1usize..=4,
    ) {
        let mesh = Mesh::new(4, 4, 2);
        let cfg = cfg();
        let items = workload(&mesh, &cfg, seed);
        let severity = severity_step as f64 / 4.0;
        let timeline = severity_timeline(&brownout(), &mesh, &cfg, severity);

        let healthy = simulate(&mesh, &cfg, &items);
        let degraded = simulate_observed(&mesh, &cfg, &items, &timeline, &mut Noop);
        // A degraded timeline is as deterministic as a healthy one: the
        // same outcome run to run, and full recording does not perturb it.
        prop_assert!(degraded.events > 0);
        prop_assert_eq!(
            &degraded,
            &simulate_observed(&mesh, &cfg, &items, &timeline, &mut Noop)
        );
        let mut log = EventLog::for_point(ObsConfig::full(), "degraded");
        prop_assert_eq!(
            &degraded,
            &simulate_observed(&mesh, &cfg, &items, &timeline, &mut log)
        );

        let healthy_p99 = LatencySummary::of(&healthy.sojourns()).p99_ns;
        let degraded_p99 = LatencySummary::of(&degraded.sojourns()).p99_ns;
        prop_assert!(
            degraded_p99 >= healthy_p99,
            "degraded p99 {degraded_p99} ns beat healthy {healthy_p99} ns"
        );
        prop_assert!(degraded.makespan >= healthy.makespan);
    }

    // Faults end: an item arriving long after the outage window sees the
    // healthy machine, byte for byte.
    #[test]
    fn the_machine_recovers_after_the_outage_window(seed in 0u64..10_000) {
        let mesh = Mesh::new(4, 4, 2);
        let cfg = cfg();
        let items = workload(&mesh, &cfg, seed);
        let timeline = severity_timeline(&brownout(), &mesh, &cfg, 1.0);

        let healthy = simulate(&mesh, &cfg, &items);
        let degraded = simulate_observed(&mesh, &cfg, &items, &timeline, &mut Noop);

        // The straggler is the last item of the stream.
        let h = healthy.items.last().expect("items");
        let d = degraded.items.last().expect("items");
        prop_assert_eq!(h.arrival, cfg.window * 40);
        prop_assert_eq!(
            h, d,
            "a post-recovery arrival must be served exactly like on a healthy machine"
        );
    }
}
