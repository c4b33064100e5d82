//! End-to-end connection planning: the model behind Figure 9.
//!
//! To connect two distant logical qubits the interconnect (Section 4.2):
//!
//! 1. creates EPR pairs in the middle of every channel segment and
//!    ballistically distributes the halves to the neighbouring teleportation
//!    islands (Figure 8);
//! 2. purifies each segment pair up to a working fidelity chosen so that **no
//!    purification of the final end-to-end pair is needed** (the paper's
//!    stated design rule for Figure 9);
//! 3. entanglement-swaps in parallel across the islands, halving the number
//!    of pairs at every stage, until a single pair spans source and
//!    destination (a logarithmic number of stages);
//! 4. teleports the source qubit over that pair.
//!
//! The island separation `d` trades off two effects. Small `d` delivers
//! high-fidelity segment pairs (little transport degradation) but needs many
//! segments: every extra entanglement swap adds its own operation error, so
//! the required segment fidelity creeps towards the purification ceiling and
//! the purification cost blows up at large total distances. Large `d`
//! delivers poorer raw pairs (more purification up front) but tolerates much
//! longer total distances. The paper finds d ≈ 100 cells best below ≈6000
//! cells and d ≈ 350 cells best beyond; this model reproduces that crossover.
//!
//! Wall-clock calibration: purification rounds are executed in lock-step with
//! the error-correction schedule of the logical qubits that are waiting to
//! communicate ("we can create, purify and transport the required EPR pairs
//! ... while they are undergoing error correction", Section 5), so each round
//! is charged one level-1 error-correction window by default.

use crate::epr::EprSource;
use crate::purification::{PurificationParams, PurificationPlan};
use crate::teleport::TeleportOps;
use qla_physical::{TechnologyParams, Time};
use serde::{Deserialize, Serialize};

/// Parameters of the teleportation interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterconnectParams {
    /// The raw EPR pair source of every channel segment.
    pub epr_source: EprSource,
    /// Purification with imperfect local operations.
    pub purification: PurificationParams,
    /// Infidelity added by each entanglement swap at a repeater island.
    pub swap_op_error: f64,
    /// Maximum tolerable infidelity of the final end-to-end pair (so that the
    /// final teleport does not dominate the logical error budget).
    pub max_final_infidelity: f64,
    /// Wall-clock cost of one purification round, including the resupply of
    /// the sacrificial pair (synchronised to the level-1 error-correction
    /// window of the waiting logical qubits).
    pub purification_round_time: Time,
    /// Wall-clock cost of one entanglement-swapping stage.
    pub swap_stage_time: Time,
    /// The physical technology (for the distribution and teleport ops).
    pub tech: TechnologyParams,
}

impl InterconnectParams {
    /// The calibration used to reproduce Figure 9: raw pair fidelity and
    /// per-cell transport depolarisation chosen to place the d = 100 / d = 350
    /// crossover near 6000 cells, with purification rounds paced by the
    /// level-1 error-correction window (3 ms).
    #[must_use]
    pub fn paper_calibrated() -> Self {
        InterconnectParams {
            epr_source: EprSource {
                creation_fidelity: 0.995,
                per_cell_error: 9.0e-4,
            },
            purification: PurificationParams {
                local_op_error: 2.0e-5,
            },
            swap_op_error: 1.5e-4,
            max_final_infidelity: 2.5e-2,
            purification_round_time: Time::from_millis(3.0),
            swap_stage_time: Time::from_micros(112.0),
            tech: TechnologyParams::expected(),
        }
    }

    /// The Figure 9 calibration with its technology swapped for `tech`, so
    /// the interconnect's distribution/teleport operation costs track that
    /// technology instead of silently staying at the paper's expected
    /// parameters.
    #[must_use]
    pub fn for_tech(tech: TechnologyParams) -> Self {
        InterconnectParams {
            tech,
            ..InterconnectParams::paper_calibrated()
        }
    }

    /// Per-pair service time of a pipelined EPR channel whose endpoints sit
    /// `separation_cells` apart: the wall-clock cost of producing one
    /// *purified, delivered* pair once the pipeline is full.
    ///
    /// Each purification round of the Bennett protocol costs a bilateral
    /// CNOT (two two-qubit gates), the measurement of both sacrificial
    /// halves, and the ballistic resupply of the sacrificial pair (a chain
    /// split plus half-separation transport); the delivered pair is then
    /// handed to its consumer through one swap/teleport stage. The number of
    /// rounds is whatever it takes to purify the raw delivered fidelity up
    /// to the interconnect's end-to-end budget for a single segment.
    ///
    /// At the paper-calibrated design point and tile-pitch separations this
    /// evaluates to ≈0.6 ms — the constant `QlaMachine::schedule_toffolis`
    /// used to hard-code — but it now moves with the technology parameters
    /// and fidelity budget. If the budget is unreachable at this separation,
    /// the cost saturates at [`Self::SERVICE_ROUNDS_CAP`] rounds, modelling
    /// a channel that purifies as far as its ceiling allows.
    #[must_use]
    pub fn pair_service_time(&self, separation_cells: usize) -> Time {
        let d = separation_cells.max(1);
        let delivered = self.epr_source.delivered_pair(d);
        let target = 1.0 - self.max_final_infidelity;
        let rounds = self
            .purification
            .rounds_to_reach(delivered, target)
            .map_or(Self::SERVICE_ROUNDS_CAP, |plan| plan.rounds);
        let round_ops = self.tech.times.double_gate * 2 + self.tech.times.measure * 2;
        let resupply = self.tech.times.split + self.tech.times.move_per_cell * (d / 2);
        (round_ops + resupply) * rounds.max(1) + self.swap_stage_time
    }

    /// Round cap applied by [`Self::pair_service_time`] when the fidelity
    /// budget is unreachable at the requested separation.
    pub const SERVICE_ROUNDS_CAP: usize = 16;
}

/// A planned end-to-end connection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConnectionPlan {
    /// Total source-to-destination distance in cells.
    pub distance_cells: usize,
    /// Island separation in cells.
    pub island_separation_cells: usize,
    /// Number of channel segments (pairs created in parallel).
    pub segments: usize,
    /// Entanglement-swapping stages (⌈log₂ segments⌉).
    pub swap_stages: usize,
    /// Purification plan applied to every segment pair (all segments purify
    /// in parallel).
    pub segment_purification: PurificationPlan,
    /// Required segment fidelity.
    pub required_segment_fidelity: f64,
    /// Predicted fidelity of the final end-to-end pair.
    pub final_fidelity: f64,
    /// Total wall-clock connection time.
    pub total_time: Time,
    /// Expected raw EPR pairs consumed across the whole connection.
    pub total_raw_pairs: f64,
}

/// Why a connection could not be planned with the requested island
/// separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnectionError {
    /// The delivered raw pairs are not purifiable (fidelity ≤ 0.5).
    RawPairsNotPurifiable,
    /// The accumulated swap errors alone exceed the end-to-end budget; no
    /// amount of segment purification can help.
    TooManySwapStages,
    /// The required segment fidelity lies above the purification ceiling.
    PurificationCeiling,
}

impl core::fmt::Display for ConnectionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConnectionError::RawPairsNotPurifiable => {
                write!(f, "delivered EPR pairs have fidelity below 0.5")
            }
            ConnectionError::TooManySwapStages => {
                write!(
                    f,
                    "swap-operation errors alone exceed the end-to-end budget"
                )
            }
            ConnectionError::PurificationCeiling => {
                write!(
                    f,
                    "required segment fidelity exceeds the purification ceiling"
                )
            }
        }
    }
}

impl std::error::Error for ConnectionError {}

/// Plan a connection of `distance_cells` with islands every
/// `island_separation_cells`.
///
/// # Errors
/// Returns a [`ConnectionError`] when the combination of distance and island
/// separation cannot meet the end-to-end fidelity budget.
pub fn plan_connection(
    params: &InterconnectParams,
    distance_cells: usize,
    island_separation_cells: usize,
) -> Result<ConnectionPlan, ConnectionError> {
    let d = island_separation_cells.max(1);
    let segments = distance_cells.div_ceil(d).max(1);
    let swap_stages = (segments as f64).log2().ceil() as usize;

    // Budget: final infidelity ≈ segments × segment infidelity
    //                            + (segments − 1) × swap error.
    let swap_budget = (segments.saturating_sub(1)) as f64 * params.swap_op_error;
    let remaining = params.max_final_infidelity - swap_budget;
    if remaining <= 0.0 {
        return Err(ConnectionError::TooManySwapStages);
    }
    let required_segment_infidelity = remaining / segments as f64;
    let required_segment_fidelity = 1.0 - required_segment_infidelity;

    let delivered = params.epr_source.delivered_pair(d);
    if !delivered.purifiable() {
        return Err(ConnectionError::RawPairsNotPurifiable);
    }
    let purification = params
        .purification
        .rounds_to_reach(delivered, required_segment_fidelity)
        .ok_or(ConnectionError::PurificationCeiling)?;

    // Predicted end-to-end fidelity after swapping every purified segment
    // pair together.
    let final_infidelity = segments as f64 * (1.0 - purification.final_fidelity) + swap_budget;
    let final_fidelity = (1.0 - final_infidelity).max(0.25);

    // Wall-clock time: distribute the raw pairs (pipelined per segment, all
    // segments in parallel), purify every segment in parallel, swap in
    // log-many parallel stages, then teleport the data qubit.
    let distribution = params.tech.times.split + params.tech.times.move_per_cell * (d / 2);
    let purification_time = params.purification_round_time * purification.rounds;
    let swap_time = params.swap_stage_time * swap_stages;
    let teleport_time = TeleportOps::standard().latency(&params.tech);
    let total_time = distribution + purification_time + swap_time + teleport_time;

    let total_raw_pairs = purification.expected_pairs_consumed * segments as f64;

    Ok(ConnectionPlan {
        distance_cells,
        island_separation_cells: d,
        segments,
        swap_stages,
        segment_purification: purification,
        required_segment_fidelity,
        final_fidelity,
        total_time,
        total_raw_pairs,
    })
}

/// Find the island separation (among the candidates the hardware supports)
/// minimising the connection time for a given distance, as the paper's
/// communication scheduler does ("the teleportation islands are equipped with
/// the capability of being used or not being used").
#[must_use]
pub fn best_separation(
    params: &InterconnectParams,
    distance_cells: usize,
    candidates: &[usize],
) -> Option<(usize, ConnectionPlan)> {
    candidates
        .iter()
        .filter_map(|&d| {
            plan_connection(params, distance_cells, d)
                .ok()
                .map(|p| (d, p))
        })
        .min_by(|a, b| {
            a.1.total_time
                .as_secs()
                .partial_cmp(&b.1.total_time.as_secs())
                .expect("connection times are finite")
        })
}

/// The island separations Figure 9 sweeps.
pub const FIGURE9_SEPARATIONS: [usize; 7] = [35, 70, 100, 350, 500, 750, 1000];

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> InterconnectParams {
        InterconnectParams::paper_calibrated()
    }

    #[test]
    fn for_tech_keeps_the_calibration_but_swaps_the_technology() {
        let tech = TechnologyParams::relaxed_speed();
        let p = InterconnectParams::for_tech(tech);
        assert_eq!(p.tech, tech);
        assert_eq!(
            p.epr_source,
            InterconnectParams::paper_calibrated().epr_source
        );
        // Slower gates/measures make every purified pair slower to produce.
        assert!(
            p.pair_service_time(21) > InterconnectParams::paper_calibrated().pair_service_time(21)
        );
    }

    #[test]
    fn short_connections_prefer_small_island_separation() {
        // Figure 9: "island separation of 100 cells is more efficient at
        // distances smaller than 6000 cells" — well inside that regime the
        // advantage is unambiguous.
        let p = params();
        let near = plan_connection(&p, 2000, 100).unwrap();
        let far = plan_connection(&p, 2000, 350).unwrap();
        assert!(
            near.total_time < far.total_time,
            "d=100 {:?} should beat d=350 {:?} at 2000 cells",
            near.total_time,
            far.total_time
        );
        // And d=100 beats the very large separations by an even wider margin.
        let huge = plan_connection(&p, 2000, 1000).unwrap();
        assert!(near.total_time < huge.total_time);
    }

    #[test]
    fn long_connections_prefer_large_island_separation() {
        // Figure 9: "At larger distances separation of 350 cells is
        // preferable."
        let p = params();
        let d350 = plan_connection(&p, 12_000, 350).unwrap();
        // d=100 may be infeasible at this distance, in which case 350
        // trivially wins.
        if let Ok(plan) = plan_connection(&p, 12_000, 100) {
            assert!(
                d350.total_time < plan.total_time,
                "d=350 should beat d=100 at 12000 cells"
            );
        }
        // Far enough out, d=100 cannot meet the fidelity budget at all while
        // d=350 still can.
        assert!(plan_connection(&p, 20_000, 100).is_err());
        assert!(plan_connection(&p, 20_000, 350).is_ok());
    }

    #[test]
    fn connection_times_are_in_the_figure9_band() {
        // Figure 9's y-axis spans roughly 0.05–0.17 seconds.
        let p = params();
        for &d in &[100, 350, 500, 1000] {
            for &dist in &[5_000usize, 10_000, 20_000, 30_000] {
                if let Ok(plan) = plan_connection(&p, dist, d) {
                    let secs = plan.total_time.as_secs();
                    assert!(
                        secs > 0.005 && secs < 0.5,
                        "connection time {secs} s for d={d}, distance={dist}"
                    );
                }
            }
        }
    }

    #[test]
    fn crossover_between_100_and_350_is_near_6000_cells() {
        // Figure 9 places the d=100 / d=350 crossover near 6000 cells. The
        // model's integer purification-round counts make the two curves trade
        // places over a band rather than at a single point, so we take the
        // crossover to be the last distance at which d=100 is still strictly
        // faster and require it to sit in the same few-thousand-cell region.
        let p = params();
        let mut last_small_d_win = None;
        for dist in (1000..20_000).step_by(250) {
            match (
                plan_connection(&p, dist, 100),
                plan_connection(&p, dist, 350),
            ) {
                (Ok(a), Ok(b)) if a.total_time < b.total_time => {
                    last_small_d_win = Some(dist);
                }
                _ => {}
            }
        }
        let crossover = last_small_d_win.expect("d=100 must win somewhere");
        assert!(
            (2_000..16_000).contains(&crossover),
            "last d=100 win at {crossover} cells, paper's crossover is ~6000"
        );
    }

    #[test]
    fn best_separation_picks_the_fastest_feasible_candidate() {
        let p = params();
        let (d_short, _) = best_separation(&p, 2_000, &FIGURE9_SEPARATIONS).unwrap();
        let (d_long, _) = best_separation(&p, 25_000, &FIGURE9_SEPARATIONS).unwrap();
        assert!(d_short <= 100, "short-range optimum was d={d_short}");
        assert!(d_long >= 350, "long-range optimum was d={d_long}");
    }

    #[test]
    fn plans_report_consistent_structure() {
        let p = params();
        let plan = plan_connection(&p, 10_000, 100).unwrap();
        assert_eq!(plan.segments, 100);
        assert_eq!(plan.swap_stages, 7);
        assert!(plan.final_fidelity >= 1.0 - p.max_final_infidelity - 1e-9);
        assert!(plan.total_raw_pairs >= plan.segments as f64);
        assert!(plan.required_segment_fidelity > 0.99);
    }

    #[test]
    fn infeasible_configurations_are_diagnosed() {
        let p = params();
        // Enormous distance with tiny separation: swap errors alone blow the
        // budget.
        let err = plan_connection(&p, 500_000, 35).unwrap_err();
        assert!(matches!(
            err,
            ConnectionError::TooManySwapStages | ConnectionError::PurificationCeiling
        ));
        // Gigantic separation: raw pairs arrive unpurifiable.
        let mut harsh = p;
        harsh.epr_source.per_cell_error = 5e-4;
        let err = plan_connection(&harsh, 10_000, 3_000).unwrap_err();
        assert_eq!(err, ConnectionError::RawPairsNotPurifiable);
    }

    #[test]
    fn pair_service_time_sits_near_the_historical_constant_at_tile_pitch() {
        // `QlaMachine::schedule_toffolis` used to hard-code 600 µs per pair;
        // the derived value at tile-pitch separations must land in the same
        // band so the scheduler's pairs-per-window capacity stays faithful.
        let p = params();
        let t = p.pair_service_time(48);
        assert!(
            (300.0..1200.0).contains(&t.as_micros()),
            "service time {} µs drifted from the ~600 µs design point",
            t.as_micros()
        );
        // More separation means poorer raw pairs: service time is monotone.
        assert!(p.pair_service_time(500) >= p.pair_service_time(48));
        // Unreachable budgets saturate instead of diverging.
        let mut harsh = p;
        harsh.epr_source.per_cell_error = 5e-4;
        let capped = harsh.pair_service_time(3_000);
        assert!(capped.as_secs() < 1.0);
    }

    #[test]
    fn more_distance_never_reduces_connection_time() {
        let p = params();
        let mut last = 0.0;
        for dist in [2_000usize, 5_000, 10_000, 15_000] {
            if let Ok(plan) = plan_connection(&p, dist, 350) {
                assert!(plan.total_time.as_secs() + 1e-12 >= last);
                last = plan.total_time.as_secs();
            }
        }
    }
}
