//! Workload generation: timestamped arrival streams for the engine.
//!
//! The analytic scheduler study feeds the greedy scheduler a *pre-batched*
//! set of requests and asks how many windows it takes; the simulator wants
//! the same traffic as it actually happens — requests arriving over time,
//! bursty, possibly faster than the fabric drains them. This module turns
//! the Section 5 Toffoli workload model into such streams.
//!
//! Arrival times use only multiplication and addition on seeded uniform
//! draws (no logarithms or powers), so a generated stream is bit-identical
//! on every platform — a requirement for the byte-pinned goldens of the
//! `sim-offered-load` experiment.

use crate::engine::WorkItem;
use crate::time::SimTime;
use qla_sched::{Mesh, ToffoliSite, TOFFOLI_ANCILLA_QUBITS};
use rand::Rng;

/// Offered-traffic shape for [`paced_arrivals`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficParams {
    /// Offered load in arrivals per error-correction window.
    pub offered_load: f64,
    /// Burstiness: arrivals come in back-to-back bursts of
    /// `round(burst_factor)`, spaced so the long-run offered load is
    /// preserved. `1.0` is a smooth stream.
    pub burst_factor: f64,
    /// The error-correction window the load is expressed against.
    pub window: SimTime,
}

/// The one arrival pacer of every stream generator: bursts of
/// `B = round(burst_factor)` simultaneous arrivals over `horizon_windows`
/// error-correction windows, separated by gaps of `B × W/λ × u` with `u`
/// drawn uniformly from `[0.5, 1.5)`, so the expected arrival count stays
/// `λ × horizon_windows` at every burstiness. `draw` samples each arrival's
/// payload from the same generator, right after its burst's gap draw.
/// Deterministic in the generator state.
///
/// # Panics
/// Panics on a non-positive offered load or a burst factor below 1.
#[must_use]
pub fn paced_arrivals<R: Rng + ?Sized, T>(
    horizon_windows: usize,
    params: &TrafficParams,
    rng: &mut R,
    mut draw: impl FnMut(&mut R) -> T,
) -> Vec<(SimTime, T)> {
    assert!(
        params.offered_load.is_finite() && params.offered_load > 0.0,
        "offered_load must be positive, got {}",
        params.offered_load
    );
    assert!(
        params.burst_factor.is_finite() && params.burst_factor >= 1.0,
        "burst_factor must be at least 1, got {}",
        params.burst_factor
    );
    let burst = (params.burst_factor.round() as usize).max(1);
    let mean_gap_ns = params.window.nanos() as f64 / params.offered_load;
    let horizon = params.window * horizon_windows as u64;

    let mut arrivals = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        let jitter = 0.5 + rng.random::<f64>();
        // Clamp to one nanosecond: an astronomically high offered load must
        // degenerate to a finite back-to-back stream, never to a gap of 0
        // that would stall `t` and loop forever. A gap past the end of
        // time ends the stream like any gap past the horizon.
        let gap = ((burst as f64 * mean_gap_ns * jitter) as u64).max(1);
        match t.nanos().checked_add(gap) {
            Some(next) if next < horizon.nanos() => t = SimTime::from_nanos(next),
            _ => break,
        }
        for _ in 0..burst {
            arrivals.push((t, draw(rng)));
        }
    }
    arrivals
}

/// A bursty stream of Toffoli gates over `horizon_windows`
/// error-correction windows, paced by [`paced_arrivals`] and placed
/// uniformly over the mesh like the Section 5 scheduler study's
/// `random_toffoli_sites`. Each gate is a [`WorkItem`] demanding
/// [`TOFFOLI_ANCILLA_QUBITS`] factory preparations and the EPR traffic of
/// [`ToffoliSite::requests`] (49 pairs per logical teleport).
///
/// # Panics
/// Panics on the [`paced_arrivals`] parameter errors.
#[must_use]
pub fn toffoli_stream<R: Rng + ?Sized>(
    mesh: &Mesh,
    horizon_windows: usize,
    params: &TrafficParams,
    rng: &mut R,
) -> Vec<WorkItem> {
    let nodes = mesh.node_count();
    let sites = paced_arrivals(horizon_windows, params, rng, |rng| ToffoliSite {
        operands: [
            rng.random_range(0..nodes),
            rng.random_range(0..nodes),
            rng.random_range(0..nodes),
        ],
        ancilla_base: rng.random_range(0..nodes),
    });
    sites
        .into_iter()
        .map(|(arrival, site)| WorkItem {
            arrival,
            ancillas: TOFFOLI_ANCILLA_QUBITS,
            requests: site.requests(mesh),
            tenant: 0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn params(load: f64, burst: f64) -> TrafficParams {
        TrafficParams {
            offered_load: load,
            burst_factor: burst,
            window: SimTime::from_nanos(1_000_000),
        }
    }

    #[test]
    fn arrival_count_tracks_the_offered_load() {
        let mesh = Mesh::new(8, 8, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let items = toffoli_stream(&mesh, 100, &params(2.0, 1.0), &mut rng);
        // λ = 2 over 100 windows: ~200 arrivals, within jitter slack.
        assert!((120..280).contains(&items.len()), "got {}", items.len());
        let horizon = SimTime::from_nanos(100_000_000);
        assert!(items.iter().all(|item| item.arrival < horizon));
        let nodes = mesh.node_count();
        assert!(items
            .iter()
            .flat_map(|item| &item.requests)
            .all(|r| r.from < nodes && r.to < nodes));
    }

    #[test]
    fn bursts_arrive_back_to_back_without_changing_the_mean() {
        let mesh = Mesh::new(8, 8, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let bursty = toffoli_stream(&mesh, 100, &params(2.0, 4.0), &mut rng);
        assert!((120..280).contains(&bursty.len()), "got {}", bursty.len());
        // Every burst shares one timestamp, 4 gates long.
        let mut by_time: Vec<usize> = Vec::new();
        let mut last = None;
        for item in &bursty {
            if last == Some(item.arrival) {
                *by_time.last_mut().unwrap() += 1;
            } else {
                by_time.push(1);
                last = Some(item.arrival);
            }
        }
        assert!(by_time.iter().all(|&n| n == 4), "burst sizes {by_time:?}");
    }

    #[test]
    fn streams_are_deterministic_in_the_seed() {
        let mesh = Mesh::new(6, 6, 2);
        let mut a = ChaCha8Rng::seed_from_u64(11);
        let mut b = ChaCha8Rng::seed_from_u64(11);
        let mut c = ChaCha8Rng::seed_from_u64(12);
        let p = params(1.0, 2.0);
        assert_eq!(
            toffoli_stream(&mesh, 20, &p, &mut a),
            toffoli_stream(&mesh, 20, &p, &mut b)
        );
        assert_ne!(
            toffoli_stream(&mesh, 20, &p, &mut a),
            toffoli_stream(&mesh, 20, &p, &mut c)
        );
    }

    #[test]
    fn a_gap_past_the_end_of_time_ends_the_stream() {
        // Gaps of up to 3/4 of the clock's range: a second gap from late
        // in the horizon would overflow `SimTime` if it were added blindly.
        let params = TrafficParams {
            offered_load: 0.5,
            burst_factor: 1.0,
            window: SimTime::from_nanos(u64::MAX / 4),
        };
        let horizon = params.window * 3;
        for seed in 0..64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let arrivals = paced_arrivals(3, &params, &mut rng, |_| ());
            assert!(arrivals.iter().all(|(t, ())| *t < horizon), "seed {seed}");
        }
    }

    #[test]
    fn work_items_carry_the_toffoli_shape() {
        let mesh = Mesh::new(8, 8, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let items = toffoli_stream(&mesh, 20, &params(2.0, 1.0), &mut rng);
        assert!(!items.is_empty());
        for item in &items {
            assert_eq!(item.ancillas, TOFFOLI_ANCILLA_QUBITS);
            assert_eq!(item.tenant, 0);
            // Six operand-ancilla teleports and two control-target ones,
            // less any that are co-located.
            assert!(item.requests.len() <= 8);
            assert!(item
                .requests
                .iter()
                .all(|r| r.pairs == qla_sched::PAIRS_PER_LOGICAL_TELEPORT));
        }
        assert!(items.iter().any(|item| item.requests.len() == 8));
    }
}
