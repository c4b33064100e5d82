//! The Scenario API: typed, file-loadable machine profiles.
//!
//! Every experiment in the reproduction used to hard-code its machine —
//! `TechnologyParams::expected()`, `EccLatencies::paper()`, a fixed
//! bandwidth — so re-running the analysis under Section 6's relaxed
//! technology assumptions ("what if gates are 10× worse / 10× slower?")
//! meant editing source. A [`MachineSpec`] is the one description of a
//! machine: everything [`MachineSpec::machine`] builds a [`QlaMachine`] from
//! (technology parameters, error-correction latencies, recursion level,
//! interconnect, bandwidth, logical qubits) **plus** the sweep grids the
//! parameterised experiments scan, behind:
//!
//! * **named built-in profiles** — [`MachineSpec::expected`],
//!   [`MachineSpec::current`], and the Section 6 variants
//!   [`MachineSpec::relaxed_failures`] / [`MachineSpec::relaxed_speed`],
//!   resolvable by name with [`MachineSpec::builtin`];
//! * **a deterministic text format** — the shared [`kv`](crate::kv)
//!   `key = value` grammar (the vendored serde is structural-only, so
//!   serialization follows the `qla-report` pattern: hand-rolled and
//!   byte-stable) with [`MachineSpec::render`] / [`MachineSpec::parse`]
//!   round-tripping exactly and loud, line-anchored [`SpecError`]s for
//!   unknown, duplicate, missing, or malformed keys;
//! * **validation** — [`MachineSpec::validate`] checks every field against
//!   its range rule and the few rules that tie fields together, so an
//!   invalid spec fails at load time, not three experiments into a
//!   `run-all`. [`MachineSpec::machine`] re-checks only the three rules the
//!   machine itself relies on (`logical_qubits`, `recursion_level`,
//!   `bandwidth`), which keeps building a machine cheap.
//!
//! Render, parse, and the per-field checks all walk one table, `FIELDS`:
//! each entry names a key, the field it reads and writes, and its range
//! rule. Adding a field to the format is adding one table line.
//!
//! The active spec travels on the
//! [`ExperimentContext`](crate::ExperimentContext); experiments build their
//! machine with [`ExperimentContext::machine`](crate::ExperimentContext::machine)
//! and derive their sweep points from [`MachineSpec::sweep`] instead of
//! private constants. The `qla-bench` CLI selects it with `--profile <name>`
//! or `--spec <file>`.

use crate::kv::{finite, Fields};
use crate::machine::QlaMachine;
use qla_layout::Floorplan;
use qla_network::InterconnectParams;
use qla_obs::ObsDetail;
use qla_physical::{TechnologyParams, Time};
use qla_qec::EccLatencies;
use qla_report::Scenario;
use serde::Serialize;
use std::sync::OnceLock;

/// Average ballistic-movement distance (cells) accompanying one transversal
/// two-qubit gate — the paper's block-communication distance `r ≈ 12`, used
/// to derive the Figure 7 movement error from a profile's per-cell movement
/// failure rate.
pub const MOVEMENT_CELLS_PER_GATE: usize = 12;

/// How a profile obtains its error-correction step latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EccMode {
    /// The constants published in Section 4.1.1 (0.003 s / 0.043 s) — only
    /// meaningful while the profile keeps the Table 1 operation times.
    Paper,
    /// Derived from the structural Equation 1 model of the profile's
    /// technology ([`EccLatencies::structural_for`]).
    Structural,
}

impl core::fmt::Display for EccMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EccMode::Paper => write!(f, "paper"),
            EccMode::Structural => write!(f, "structural"),
        }
    }
}

/// The teleportation-interconnect calibration of a profile, kept as plain
/// scalars so the text format can carry it; the embedded technology is
/// supplied by the owning [`MachineSpec`] when the full
/// [`InterconnectParams`] is assembled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InterconnectSpec {
    /// Raw EPR pair creation fidelity.
    pub creation_fidelity: f64,
    /// Infidelity added per cell of ballistic transport.
    pub per_cell_error: f64,
    /// Local-operation error of the purification protocol.
    pub local_op_error: f64,
    /// Infidelity added by each entanglement swap.
    pub swap_op_error: f64,
    /// End-to-end infidelity budget of the final pair.
    pub max_final_infidelity: f64,
    /// Wall-clock cost of one purification round.
    pub purification_round_time: Time,
    /// Wall-clock cost of one entanglement-swapping stage.
    pub swap_stage_time: Time,
}

impl InterconnectSpec {
    /// The scalars of the Figure 9 paper calibration.
    #[must_use]
    pub fn paper_calibrated() -> Self {
        InterconnectSpec::from_params(&InterconnectParams::paper_calibrated())
    }

    /// The scalar view of a full parameter set (drops the technology).
    #[must_use]
    pub fn from_params(params: &InterconnectParams) -> Self {
        InterconnectSpec {
            creation_fidelity: params.epr_source.creation_fidelity,
            per_cell_error: params.epr_source.per_cell_error,
            local_op_error: params.purification.local_op_error,
            swap_op_error: params.swap_op_error,
            max_final_infidelity: params.max_final_infidelity,
            purification_round_time: params.purification_round_time,
            swap_stage_time: params.swap_stage_time,
        }
    }

    /// The full [`InterconnectParams`] with `tech` as its technology.
    #[must_use]
    pub fn params(&self, tech: TechnologyParams) -> InterconnectParams {
        InterconnectParams {
            epr_source: qla_network::EprSource {
                creation_fidelity: self.creation_fidelity,
                per_cell_error: self.per_cell_error,
            },
            purification: qla_network::PurificationParams {
                local_op_error: self.local_op_error,
            },
            swap_op_error: self.swap_op_error,
            max_final_infidelity: self.max_final_infidelity,
            purification_round_time: self.purification_round_time,
            swap_stage_time: self.swap_stage_time,
            tech,
        }
    }
}

/// The discrete-event simulation grids and horizons (the `qla-sim`
/// experiments), carried by the profile like every other sweep so a
/// scenario file can reshape the offered-load scan, the burstiness, the
/// queue depths, and the warm-up/measurement horizons without touching
/// source.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimSpec {
    /// Offered loads (Toffoli gates per error-correction window) the
    /// `sim-offered-load` experiment sweeps.
    pub offered_loads: Vec<f64>,
    /// Arrival burstiness: gates arrive in back-to-back bursts of
    /// `round(burst_factor)` (1 = smooth stream).
    pub burst_factor: f64,
    /// Admission-control queue depth: work items in flight beyond this wait
    /// in a FIFO backlog.
    pub max_in_flight: usize,
    /// Parallel preparation slots of the ancilla factory.
    pub ancilla_capacity: usize,
    /// Windows of traffic discarded as warm-up before measurement.
    pub warmup_windows: usize,
    /// Windows of traffic measured after warm-up.
    pub measure_windows: usize,
    /// Offered load of the `sim-tail-latency` distribution study.
    pub tail_offered_load: f64,
    /// Simultaneous same-route requests forming the contended regime of
    /// `sim-vs-analytic`.
    pub contended_requests: usize,
}

impl SimSpec {
    /// The default simulation shape: an offered-load scan spanning a 16×
    /// range around the design point, moderately bursty arrivals, and a
    /// factory sized so ancilla stalls appear inside the scanned range.
    #[must_use]
    pub fn paper() -> Self {
        SimSpec {
            offered_loads: vec![0.5, 1.0, 2.0, 4.0, 6.0],
            burst_factor: 2.0,
            max_in_flight: 64,
            ancilla_capacity: 12,
            warmup_windows: 2,
            measure_windows: 16,
            tail_offered_load: 1.0,
            contended_requests: 8,
        }
    }
}

/// The instruction-trace workloads (`qla-trace`) the `trace-replay` and
/// `trace-scaling` experiments generate and replay, carried by the
/// profile so a scenario file can reshape the programs without touching
/// source.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceSpec {
    /// Register width (bits) of the QCLA adder program `trace-replay`
    /// lowers.
    pub adder_bits: usize,
    /// Modulus width (bits) of the modular-exponentiation program.
    pub modexp_bits: usize,
    /// Controlled-multiplier calls the modexp trace is truncated to
    /// (the full program runs `2·modexp_bits`).
    pub modexp_multiplier_calls: usize,
    /// Logical qubits of the seeded random Clifford+T program.
    pub random_qubits: usize,
    /// Instruction count of the random Clifford+T program.
    pub random_ops: usize,
    /// Adder widths (bits) the `trace-scaling` sweep replays.
    pub scaling_adder_bits: Vec<usize>,
    /// Modexp widths (bits) the `trace-scaling` sweep replays.
    pub scaling_modexp_bits: Vec<usize>,
}

impl TraceSpec {
    /// The default program shapes: a byte-sized adder and modexp (large
    /// enough to exercise every hazard class, small enough that goldens
    /// replay in seconds) and a random program around the same scale.
    #[must_use]
    pub fn paper() -> Self {
        TraceSpec {
            adder_bits: 8,
            modexp_bits: 8,
            modexp_multiplier_calls: 1,
            random_qubits: 24,
            random_ops: 160,
            scaling_adder_bits: vec![4, 8, 16, 32],
            scaling_modexp_bits: vec![4, 6, 8],
        }
    }
}

/// The fault-injection and multi-tenant scenario grids (`qla-faults`)
/// the `fault-sweep`, `traffic-matrix`, and `multi-tenant-fairness`
/// experiments sweep, carried by the profile so a scenario file can
/// reshape the stress grid without touching source.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultSpec {
    /// Fault severities the `fault-sweep` experiment scans: the fraction
    /// of each degraded edge's channels taken away (0 = healthy,
    /// 1 = full outage).
    pub severities: Vec<f64>,
    /// Fraction of mesh edges degraded at each severity.
    pub degraded_edge_fraction: f64,
    /// Fault onset, in ECC windows from the start of the run.
    pub onset_windows: usize,
    /// Fault duration in ECC windows (capacity recovers afterwards).
    pub duration_windows: usize,
    /// Fraction of ancilla-factory slots lost at severity 1 (scaled
    /// linearly with severity below that).
    pub factory_loss: f64,
    /// Offered load (Toffoli gates per window) of the fault-sweep
    /// background traffic.
    pub traffic_offered_load: f64,
    /// Offered load (teleport requests per window) of the traffic-matrix
    /// streams.
    pub matrix_offered_load: f64,
    /// Fraction of mesh nodes forming the hot-spot destination set of
    /// the hot-spot traffic matrix.
    pub hotspot_fraction: f64,
    /// Tenant count of the multi-tenant fairness study.
    pub tenants: usize,
    /// Per-tenant admission quota (`max_in_flight` slots) of the
    /// best-provisioned tenant.
    pub tenant_quota: usize,
    /// Quota skews the fairness study scans: tenant quotas shrink from
    /// `tenant_quota` down to `tenant_quota / skew` across the tenant
    /// population (1 = equal quotas).
    pub quota_skews: Vec<f64>,
}

impl FaultSpec {
    /// The default stress grid: a quarter of the mesh edges degraded in
    /// four severity steps up to full outage, a mid-run fault window the
    /// measurement horizon can observe recovering, and a four-tenant
    /// population scanned up to an 8× quota skew.
    #[must_use]
    pub fn paper() -> Self {
        FaultSpec {
            severities: vec![0.0, 0.25, 0.5, 1.0],
            degraded_edge_fraction: 0.25,
            onset_windows: 4,
            duration_windows: 6,
            factory_loss: 0.5,
            traffic_offered_load: 2.0,
            matrix_offered_load: 16.0,
            hotspot_fraction: 0.125,
            tenants: 4,
            tenant_quota: 8,
            quota_skews: vec![1.0, 2.0, 4.0, 8.0],
        }
    }
}

/// The observability section (`qla-obs`): how much the deterministic
/// recorder keeps when a run is observed (`--emit-trace` / `--metrics`).
/// Recording is always *off* for plain runs — this section only shapes
/// what an observed run records, so it can never perturb a golden byte.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObsSpec {
    /// Detail level: `full` keeps per-round channel spans and queue
    /// samples, `light` drops those high-volume tracks.
    pub detail: ObsDetail,
    /// Keep every N-th counter sample per track (1 = all). Spans and
    /// instants are never sampled.
    pub sample_every: u32,
}

impl ObsSpec {
    /// The default: full detail, every counter sample kept — the paper's
    /// meshes are small enough that nothing needs thinning.
    #[must_use]
    pub fn paper() -> Self {
        ObsSpec {
            detail: ObsDetail::Full,
            sample_every: 1,
        }
    }
}

/// The sweep grids of the parameterised experiments, carried by the profile
/// so sensitivity studies can widen/narrow them without touching source.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepSpec {
    /// Component failure rates the Figure 7 threshold experiment sweeps.
    pub component_rates: Vec<f64>,
    /// Lower bound of the Figure 7 empirical-threshold geometric scan.
    pub threshold_scan_lo: f64,
    /// Upper bound of the threshold scan.
    pub threshold_scan_hi: f64,
    /// Number of points in the threshold scan.
    pub threshold_scan_points: usize,
    /// Highest recursion level the Equation 2 analysis tabulates.
    pub max_recursion_level: u32,
    /// Distance increment (cells) of the Figure 9 connection-time sweep.
    pub distance_step_cells: usize,
    /// Largest distance (cells) of the Figure 9 sweep.
    pub distance_max_cells: usize,
    /// Channel bandwidths the scheduler-utilization study sweeps.
    pub bandwidths: Vec<usize>,
    /// Concurrent Toffoli batch sizes of the scheduler study.
    pub toffoli_counts: Vec<usize>,
    /// Discrete-event simulation grids and horizons.
    pub sim: SimSpec,
    /// Instruction-trace program shapes.
    pub trace: TraceSpec,
    /// Fault-injection and multi-tenant stress grids.
    pub fault: FaultSpec,
    /// Observability: recorder detail and sampling for observed runs.
    pub obs: ObsSpec,
}

impl SweepSpec {
    /// The grids every figure of the paper uses (and every profile ships
    /// with unless a spec file overrides them).
    #[must_use]
    pub fn paper() -> Self {
        SweepSpec {
            component_rates: vec![
                5e-4, 7.5e-4, 1.0e-3, 1.25e-3, 1.5e-3, 1.75e-3, 2.0e-3, 2.25e-3, 2.5e-3, 4e-3,
                8e-3, 1.6e-2,
            ],
            threshold_scan_lo: 3e-4,
            threshold_scan_hi: 3e-2,
            threshold_scan_points: 14,
            max_recursion_level: 4,
            distance_step_cells: 2_000,
            distance_max_cells: 30_000,
            bandwidths: vec![1, 2, 4, 8],
            toffoli_counts: vec![4, 16, 48],
            sim: SimSpec::paper(),
            trace: TraceSpec::paper(),
            fault: FaultSpec::paper(),
            obs: ObsSpec::paper(),
        }
    }
}

/// A complete, named machine scenario: everything an experiment needs to
/// know about the design point it is evaluating.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MachineSpec {
    /// Profile name (kebab-case for built-ins; free-form for spec files).
    pub name: String,
    /// One-line human description (single line; must not contain `#`).
    pub description: String,
    /// Logical qubit sites the floorplan must provide.
    pub logical_qubits: usize,
    /// Recursion level of the logical qubits.
    pub recursion_level: u32,
    /// Channel bandwidth (physical channels per direction).
    pub bandwidth: usize,
    /// Where the error-correction latencies come from.
    pub ecc: EccMode,
    /// Physical technology parameters (Table 1 or a Section 6 relaxation).
    pub tech: TechnologyParams,
    /// Teleportation-interconnect calibration.
    pub interconnect: InterconnectSpec,
    /// Sweep grids for the parameterised experiments.
    pub sweep: SweepSpec,
}

/// Highest offered load (Toffoli gates per error-correction window) a spec
/// may ask the simulation experiments for — far above any physically
/// meaningful point, low enough that a typo'd load cannot ask the workload
/// generator for an unbounded arrival stream.
pub const MAX_OFFERED_LOAD: f64 = 10_000.0;

/// Widest register (bits) a spec may ask the trace generators for. A
/// QCLA adder trace is ~4 qubits and ~5 gates per bit; this cap keeps a
/// typo'd width from generating a multi-gigabyte instruction stream.
pub const MAX_TRACE_BITS: usize = 1_024;

/// Most instructions a spec may ask the random trace generator for.
pub const MAX_TRACE_OPS: usize = 1_000_000;

/// Most logical qubits a spec may ask for. Table 2's largest machine has
/// 602,259; this cap keeps a typo'd count from asking the simulator's mesh
/// for gigabytes of edges.
pub const MAX_LOGICAL_QUBITS: usize = 1 << 20;

/// Names of the built-in profiles, in presentation order.
pub const BUILTIN_PROFILES: [&str; 4] =
    ["expected", "current", "relaxed-failures", "relaxed-speed"];

impl MachineSpec {
    /// The paper's design point: Table 1 "Pexpected" technology, recursion
    /// level 2, the published ECC constants, bandwidth 2, the Figure 9
    /// interconnect calibration, and the paper's sweep grids.
    #[must_use]
    pub fn expected() -> Self {
        MachineSpec {
            name: "expected".to_string(),
            description: "Table 1 Pexpected - the paper's design point (ARDA roadmap rates)"
                .to_string(),
            logical_qubits: 400,
            recursion_level: 2,
            bandwidth: 2,
            ecc: EccMode::Paper,
            tech: TechnologyParams::expected(),
            interconnect: InterconnectSpec::paper_calibrated(),
            sweep: SweepSpec::paper(),
        }
    }

    /// Table 1 "Pcurrent": the component failure rates demonstrated at NIST
    /// at publication time. Operation times (and therefore the published
    /// ECC latency constants) are unchanged.
    #[must_use]
    pub fn current() -> Self {
        MachineSpec {
            name: "current".to_string(),
            description: "Table 1 Pcurrent - NIST-demonstrated failure rates (2005)".to_string(),
            tech: TechnologyParams::current(),
            ..MachineSpec::expected()
        }
    }

    /// Section 6 relaxation: every failure rate 10× worse than "expected"
    /// ([`TechnologyParams::relaxed_failures`]).
    #[must_use]
    pub fn relaxed_failures() -> Self {
        MachineSpec {
            name: "relaxed-failures".to_string(),
            description: "Section 6 - every failure rate 10x worse than expected".to_string(),
            tech: TechnologyParams::relaxed_failures(),
            ..MachineSpec::expected()
        }
    }

    /// Section 6 relaxation: every operation 10× slower than Table 1
    /// ([`TechnologyParams::relaxed_speed`]). The ECC latencies switch to
    /// the structural Equation 1 model (the published constants only
    /// describe the Table 1 times), and the interconnect's round/stage
    /// clocks slow by the same factor.
    #[must_use]
    pub fn relaxed_speed() -> Self {
        let mut interconnect = InterconnectSpec::paper_calibrated();
        interconnect.purification_round_time = interconnect.purification_round_time * 10.0;
        interconnect.swap_stage_time = interconnect.swap_stage_time * 10.0;
        MachineSpec {
            name: "relaxed-speed".to_string(),
            description: "Section 6 - every operation 10x slower, structural Eq. 1 ECC".to_string(),
            ecc: EccMode::Structural,
            tech: TechnologyParams::relaxed_speed(),
            interconnect,
            ..MachineSpec::expected()
        }
    }

    /// Look up a built-in profile by name.
    #[must_use]
    pub fn builtin(name: &str) -> Option<MachineSpec> {
        match name {
            "expected" => Some(MachineSpec::expected()),
            "current" => Some(MachineSpec::current()),
            "relaxed-failures" => Some(MachineSpec::relaxed_failures()),
            "relaxed-speed" => Some(MachineSpec::relaxed_speed()),
            _ => None,
        }
    }

    /// Look up a built-in profile by name, for `--profile` and a serve
    /// request's `"profile"`.
    ///
    /// # Errors
    /// Returns `unknown profile '<name>'; built-ins: …`, listing
    /// [`BUILTIN_PROFILES`].
    pub fn named(name: &str) -> Result<MachineSpec, String> {
        MachineSpec::builtin(name).ok_or_else(|| {
            format!(
                "unknown profile '{name}'; built-ins: {}",
                BUILTIN_PROFILES.join(", ")
            )
        })
    }

    /// Every built-in profile, in [`BUILTIN_PROFILES`] order.
    #[must_use]
    pub fn builtins() -> Vec<MachineSpec> {
        BUILTIN_PROFILES
            .iter()
            .map(|name| MachineSpec::builtin(name).expect("builtin names resolve"))
            .collect()
    }

    /// The error-correction latencies this profile schedules against.
    #[must_use]
    pub fn ecc_latencies(&self) -> EccLatencies {
        match self.ecc {
            EccMode::Paper => EccLatencies::paper(),
            EccMode::Structural => EccLatencies::structural_for(self.tech),
        }
    }

    /// The full interconnect parameter set (scalars + this profile's
    /// technology).
    #[must_use]
    pub fn interconnect_params(&self) -> InterconnectParams {
        self.interconnect.params(self.tech)
    }

    /// Movement error charged per transversal two-qubit gate in the
    /// Figure 7 Monte-Carlo: the per-cell movement failure rate over the
    /// block-communication distance `r` = [`MOVEMENT_CELLS_PER_GATE`],
    /// clamped to 1 (the "current" rates exceed certainty at 12 cells).
    #[must_use]
    pub fn movement_error(&self) -> f64 {
        (self.tech.failures.move_per_cell * MOVEMENT_CELLS_PER_GATE as f64).min(1.0)
    }

    /// Build the machine at this profile's design point.
    ///
    /// Checks only the rules of the three fields the machine relies on
    /// (`logical_qubits`, `recursion_level`, `bandwidth`), not the whole
    /// spec: [`MachineSpec::validate`] runs once at load time, and
    /// experiments build machines far more often than that.
    ///
    /// # Errors
    /// Returns a [`SpecError::Invalid`] naming the first of those fields
    /// that is out of range.
    pub fn machine(&self) -> Result<QlaMachine, SpecError> {
        for field in &FIELDS[MACHINE_FIELDS] {
            field.check(self)?;
        }
        Ok(QlaMachine {
            tech: self.tech,
            recursion_level: self.recursion_level,
            ecc: self.ecc_latencies(),
            bandwidth: self.bandwidth,
            floorplan: Floorplan::for_qubit_count(self.logical_qubits),
            interconnect: self.interconnect_params(),
        })
    }

    /// The scenario header stamped onto every [`Report`](qla_report::Report)
    /// produced under this profile.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        Scenario {
            profile: self.name.clone(),
            summary: format!(
                "recursion_level={} bandwidth={} logical_qubits={} ecc={} p0={:.3e}",
                self.recursion_level,
                self.bandwidth,
                self.logical_qubits,
                self.ecc,
                self.tech.failures.mean_component_rate()
            ),
        }
    }

    /// Check the whole spec: every field against the range rule of its
    /// `FIELDS` entry, then the rules that tie fields together.
    ///
    /// # Errors
    /// Returns the first violation as a [`SpecError`] with a message naming
    /// the offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        for field in FIELDS {
            field.check(self)?;
        }
        if self.name.is_empty() {
            return Err(SpecError::Invalid("name must not be empty".to_string()));
        }
        let s = &self.sweep;
        if s.threshold_scan_lo >= s.threshold_scan_hi {
            return Err(SpecError::Invalid(format!(
                "sweep.threshold_scan_lo ({}) must be below sweep.threshold_scan_hi ({})",
                s.threshold_scan_lo, s.threshold_scan_hi
            )));
        }
        if s.distance_max_cells < s.distance_step_cells {
            return Err(SpecError::Invalid(format!(
                "sweep.distance_max_cells ({}) must be at least the step ({})",
                s.distance_max_cells, s.distance_step_cells
            )));
        }
        // The simulator's clock is u64 nanoseconds. A steady-state run
        // spans warmup + measure windows and a fault ends onset + duration
        // windows in; `fault-sweep` runs both sections on every built-in
        // machine as well, so both spans must fit at the longest of those
        // ECC windows (the built-ins' longest is computed once per process).
        static LONGEST_BUILTIN: OnceLock<u64> = OnceLock::new();
        let longest_builtin = *LONGEST_BUILTIN.get_or_init(|| {
            let windows = MachineSpec::builtins()
                .iter()
                .map(MachineSpec::ecc_window_ns)
                .max();
            windows.unwrap_or(0)
        });
        let window_ns = self.ecc_window_ns().max(longest_builtin);
        for (keys, first, second) in [
            (
                "sweep.sim.warmup_windows + sweep.sim.measure_windows",
                s.sim.warmup_windows,
                s.sim.measure_windows,
            ),
            (
                "sweep.fault.onset_windows + sweep.fault.duration_windows",
                s.fault.onset_windows,
                s.fault.duration_windows,
            ),
        ] {
            let windows = first as u128 + second as u128;
            if windows * u128::from(window_ns) > u128::from(u64::MAX) {
                return Err(SpecError::Invalid(format!(
                    "{keys} ({windows} windows) overflows the simulator's u64 nanosecond \
                     clock at a {window_ns} ns ECC window"
                )));
            }
        }
        Ok(())
    }

    /// The pacing ECC window of this spec's machine in whole nanoseconds,
    /// rounded like the simulator's clock; 0 for an unsupported recursion
    /// level.
    fn ecc_window_ns(&self) -> u64 {
        self.ecc_latencies()
            .window_for_level(self.recursion_level)
            .map_or(0, |window| window.as_nanos().round() as u64)
    }

    /// Render the spec in the deterministic text format: the version line,
    /// then one line per `FIELDS` entry in table order.
    ///
    /// The output is byte-stable for a given spec (floats use Rust's
    /// shortest round-trip formatting) and [`MachineSpec::parse`]s back to
    /// an equal value — the property the round-trip and golden tests pin.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(VERSION_KEY);
        out.push_str(" = ");
        out.push_str(VERSION);
        out.push('\n');
        for field in FIELDS {
            out.push_str(field.key);
            out.push_str(" = ");
            (field.get)(self).render(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parse a spec from the text format (the shared [`kv`](crate::kv) grammar).
    ///
    /// Every key is required exactly once; unknown keys, duplicates,
    /// omissions, and malformed values are all loud errors — a typo in a
    /// scenario file must never silently fall back to a default.
    ///
    /// # Errors
    /// Returns the first problem found as a [`SpecError`].
    pub fn parse(text: &str) -> Result<MachineSpec, SpecError> {
        let mut fields = Fields::scan(text)?;
        let version = fields.take(VERSION_KEY)?;
        if version.value != VERSION {
            return Err(SpecError::UnsupportedVersion {
                found: version.value.to_string(),
            });
        }
        // Every field is overwritten below; the profile only supplies the
        // storage.
        let mut spec = MachineSpec::expected();
        for field in FIELDS {
            (field.slot)(&mut spec).read(&mut fields, field.key)?;
        }
        fields.finish()?;
        Ok(spec)
    }
}

/// The key of the text format's version line.
const VERSION_KEY: &str = "format_version";

/// The text format version this build renders and reads.
const VERSION: &str = "1";

/// Expected-value text of integer keys.
const INTEGER: &str = "a non-negative integer";

/// Expected-value text of float keys and float-list items.
const NUMBER: &str = "a finite number";

/// A shared view of one spec field, typed by its kind.
enum Value<'a> {
    Text(&'a str),
    F64(&'a f64),
    /// A [`Time`] written in microseconds.
    Micros(&'a Time),
    Usize(&'a usize),
    U32(&'a u32),
    F64s(&'a [f64]),
    Usizes(&'a [usize]),
    Ecc(&'a EccMode),
    Detail(&'a ObsDetail),
}

/// A mutable view of one spec field, of the same kinds as [`Value`].
enum Slot<'a> {
    Text(&'a mut String),
    F64(&'a mut f64),
    Micros(&'a mut Time),
    Usize(&'a mut usize),
    U32(&'a mut u32),
    F64s(&'a mut Vec<f64>),
    Usizes(&'a mut Vec<usize>),
    Ecc(&'a mut EccMode),
    Detail(&'a mut ObsDetail),
}

impl Value<'_> {
    /// Append the value's text form. Floats use `Display`, which never
    /// uses exponent notation and always parses back to the same bits.
    fn render(self, out: &mut String) {
        fn push(out: &mut String, item: impl core::fmt::Display) {
            use std::fmt::Write;
            let _ = write!(out, "{item}");
        }
        fn join<T: core::fmt::Display>(out: &mut String, items: &[T]) {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push(out, item);
            }
        }
        match self {
            Value::Text(text) => out.push_str(text),
            Value::F64(v) => push(out, v),
            Value::Micros(t) => push(out, t.as_micros()),
            Value::Usize(v) => push(out, v),
            Value::U32(v) => push(out, v),
            Value::F64s(items) => join(out, items),
            Value::Usizes(items) => join(out, items),
            Value::Ecc(ecc) => push(out, ecc),
            Value::Detail(detail) => out.push_str(detail.token()),
        }
    }
}

impl Slot<'_> {
    /// Overwrite the field with the value of `key`.
    fn read(self, fields: &mut Fields<'_>, key: &str) -> Result<(), SpecError> {
        match self {
            Slot::Text(text) => *text = fields.take(key)?.value.to_string(),
            Slot::F64(v) => *v = fields.value(key, NUMBER, finite)?,
            Slot::Micros(t) => *t = Time::from_micros(fields.value(key, NUMBER, finite)?),
            Slot::Usize(v) => *v = fields.value(key, INTEGER, |v| v.parse().ok())?,
            Slot::U32(v) => *v = fields.value(key, INTEGER, |v| v.parse().ok())?,
            Slot::F64s(items) => *items = fields.list(key, NUMBER, finite)?,
            Slot::Usizes(items) => {
                let expected = "a comma-separated list of non-negative integers";
                *items = fields.list(key, expected, |v| v.parse().ok())?;
            }
            Slot::Ecc(ecc) => {
                *ecc = fields.value(key, "`paper` or `structural`", |v| match v {
                    "paper" => Some(EccMode::Paper),
                    "structural" => Some(EccMode::Structural),
                    _ => None,
                })?;
            }
            Slot::Detail(detail) => {
                *detail = fields.value(key, "`full` or `light`", ObsDetail::from_token)?;
            }
        }
        Ok(())
    }
}

/// The single-field range rule of a spec key. Every rule also demands a
/// finite value; a list key must be non-empty and every entry must pass.
#[derive(Clone, Copy)]
enum Rule {
    /// No constraint of its own (text keys must still be single trimmed
    /// lines without `#`).
    Any,
    /// In `[0, 1]`.
    Probability,
    /// In `(0, ∞)`.
    Positive,
    /// In `(0, hi)`.
    Below(f64),
    /// In `(0, hi]`.
    UpTo(f64),
    /// In `[lo, ∞)`.
    AtLeast(f64),
    /// In `[lo, hi]`.
    Within(f64, f64),
}

impl Rule {
    fn admits(self, v: f64) -> bool {
        v.is_finite()
            && match self {
                Rule::Any => true,
                Rule::Probability => (0.0..=1.0).contains(&v),
                Rule::Positive => v > 0.0,
                Rule::Below(hi) => v > 0.0 && v < hi,
                Rule::UpTo(hi) => v > 0.0 && v <= hi,
                Rule::AtLeast(lo) => v >= lo,
                Rule::Within(lo, hi) => (lo..=hi).contains(&v),
            }
    }

    /// `Err` naming `key`, the rule, and `shown` when `v` breaks the rule.
    fn check(self, key: &str, v: f64, shown: impl core::fmt::Display) -> Result<(), SpecError> {
        if self.admits(v) {
            Ok(())
        } else {
            Err(self.violation(key, &shown))
        }
    }

    #[cold]
    fn violation(self, key: &str, shown: &dyn core::fmt::Display) -> SpecError {
        let demand = match self {
            Rule::Any => "a finite number".to_string(),
            Rule::Probability => "a probability in [0, 1]".to_string(),
            Rule::Positive => "a finite positive number".to_string(),
            Rule::Below(hi) => format!("in (0, {hi})"),
            Rule::UpTo(hi) => format!("positive and at most {hi}"),
            Rule::AtLeast(lo) => format!("at least {lo}"),
            Rule::Within(lo, hi) => format!("between {lo} and {hi}"),
        };
        SpecError::Invalid(format!("{key} must be {demand}, got {shown}"))
    }

    /// [`Rule::check`] on every entry of a list, which must not be empty.
    fn check_list<T: Copy + core::fmt::Display>(
        self,
        key: &str,
        items: &[T],
        as_f64: impl Fn(T) -> f64,
    ) -> Result<(), SpecError> {
        if items.is_empty() {
            return Err(SpecError::Invalid(format!(
                "{key} must list at least one value"
            )));
        }
        match items.iter().find(|&&item| !self.admits(as_f64(item))) {
            Some(bad) => Err(self.violation(&format!("{key} entries"), bad)),
            None => Ok(()),
        }
    }
}

/// One entry of the spec's field table: its key, its accessors, and its
/// range rule.
struct FieldDef {
    key: &'static str,
    get: for<'a> fn(&'a MachineSpec) -> Value<'a>,
    slot: for<'a> fn(&'a mut MachineSpec) -> Slot<'a>,
    rule: Rule,
}

impl FieldDef {
    fn check(&self, spec: &MachineSpec) -> Result<(), SpecError> {
        let (key, rule) = (self.key, self.rule);
        match (self.get)(spec) {
            Value::Text(text) => line_safe(key, text),
            Value::F64(&v) => rule.check(key, v, v),
            Value::Micros(t) => rule.check(key, t.as_micros(), t.as_micros()),
            Value::Usize(&v) => rule.check(key, v as f64, v),
            Value::U32(&v) => rule.check(key, f64::from(v), v),
            Value::F64s(items) => rule.check_list(key, items, |v| v),
            Value::Usizes(items) => rule.check_list(key, items, |v| v as f64),
            Value::Ecc(_) | Value::Detail(_) => Ok(()),
        }
    }
}

/// A text value must survive a render→parse round trip: one line, no `#`
/// (which would start a comment), no padding (which parse trims away).
fn line_safe(key: &str, value: &str) -> Result<(), SpecError> {
    if value.contains('\n') || value.contains('#') {
        return Err(SpecError::Invalid(format!(
            "{key} must be a single line without '#' (got {value:?})"
        )));
    }
    if value.trim() != value {
        return Err(SpecError::Invalid(format!(
            "{key} must not have leading/trailing whitespace (got {value:?})"
        )));
    }
    Ok(())
}

/// Build the field table: `Kind(key, path.to.field, rule)` per entry,
/// where `Kind` names the [`Value`]/[`Slot`] variant both accessors use.
macro_rules! field_table {
    ($($kind:ident($key:literal, $($field:ident).+, $rule:expr)),* $(,)?) => {
        [$(FieldDef {
            key: $key,
            get: |spec| Value::$kind(&spec.$($field).+),
            slot: |spec| Slot::$kind(&mut spec.$($field).+),
            rule: $rule,
        }),*]
    };
}

/// The `FIELDS` entries [`MachineSpec::machine`] checks: `logical_qubits`,
/// `recursion_level` and `bandwidth`.
const MACHINE_FIELDS: core::ops::Range<usize> = 2..5;

/// Every key of the text format after `format_version`, in render order.
/// [`MachineSpec::render`], [`MachineSpec::parse`] and the per-field part
/// of [`MachineSpec::validate`] all walk this one table.
#[rustfmt::skip]
static FIELDS: &[FieldDef] = {
    use Rule::{Any, AtLeast, Below, Positive, Probability, UpTo, Within};
    const BITS: f64 = MAX_TRACE_BITS as f64;
    const LOAD: Rule = UpTo(MAX_OFFERED_LOAD);
    &field_table![
        Text("name", name, Any),
        Text("description", description, Any),
        // MACHINE_FIELDS: the three rules `MachineSpec::machine` checks.
        Usize("logical_qubits", logical_qubits, Within(1.0, MAX_LOGICAL_QUBITS as f64)),
        U32("recursion_level", recursion_level, Within(1.0, EccLatencies::MAX_LEVEL as f64)),
        Usize("bandwidth", bandwidth, AtLeast(1.0)),
        Ecc("ecc", ecc, Any),
        F64("tech.cell_size_um", tech.cell_size_um, Positive),
        Micros("tech.time.single_gate_us", tech.times.single_gate, Positive),
        Micros("tech.time.double_gate_us", tech.times.double_gate, Positive),
        Micros("tech.time.measure_us", tech.times.measure, Positive),
        Micros("tech.time.move_per_um_us", tech.times.move_per_um, Positive),
        Micros("tech.time.move_per_cell_us", tech.times.move_per_cell, Positive),
        Micros("tech.time.split_us", tech.times.split, Positive),
        Micros("tech.time.corner_turn_us", tech.times.corner_turn, Positive),
        Micros("tech.time.cool_us", tech.times.cool, Positive),
        Micros("tech.time.memory_lifetime_us", tech.times.memory_lifetime, Positive),
        F64("tech.fail.single_gate", tech.failures.single_gate, Probability),
        F64("tech.fail.double_gate", tech.failures.double_gate, Probability),
        F64("tech.fail.measure", tech.failures.measure, Probability),
        F64("tech.fail.move_per_um", tech.failures.move_per_um, Probability),
        F64("tech.fail.move_per_cell", tech.failures.move_per_cell, Probability),
        F64("tech.fail.memory_per_sec", tech.failures.memory_per_sec, Positive),
        F64("interconnect.creation_fidelity", interconnect.creation_fidelity, Probability),
        F64("interconnect.per_cell_error", interconnect.per_cell_error, Probability),
        F64("interconnect.local_op_error", interconnect.local_op_error, Probability),
        F64("interconnect.swap_op_error", interconnect.swap_op_error, Probability),
        F64("interconnect.max_final_infidelity", interconnect.max_final_infidelity, Probability),
        Micros("interconnect.purification_round_time_us", interconnect.purification_round_time, Positive),
        Micros("interconnect.swap_stage_time_us", interconnect.swap_stage_time, Positive),
        F64s("sweep.component_rates", sweep.component_rates, Below(1.0)),
        F64("sweep.threshold_scan_lo", sweep.threshold_scan_lo, Positive),
        F64("sweep.threshold_scan_hi", sweep.threshold_scan_hi, Positive),
        Usize("sweep.threshold_scan_points", sweep.threshold_scan_points, AtLeast(2.0)),
        U32("sweep.max_recursion_level", sweep.max_recursion_level, Within(1.0, 8.0)),
        Usize("sweep.distance_step_cells", sweep.distance_step_cells, AtLeast(1.0)),
        Usize("sweep.distance_max_cells", sweep.distance_max_cells, Any),
        Usizes("sweep.bandwidths", sweep.bandwidths, AtLeast(1.0)),
        Usizes("sweep.toffoli_counts", sweep.toffoli_counts, AtLeast(1.0)),
        F64s("sweep.sim.offered_loads", sweep.sim.offered_loads, LOAD),
        F64("sweep.sim.burst_factor", sweep.sim.burst_factor, AtLeast(1.0)),
        Usize("sweep.sim.max_in_flight", sweep.sim.max_in_flight, AtLeast(1.0)),
        Usize("sweep.sim.ancilla_capacity", sweep.sim.ancilla_capacity, AtLeast(1.0)),
        Usize("sweep.sim.warmup_windows", sweep.sim.warmup_windows, Any),
        Usize("sweep.sim.measure_windows", sweep.sim.measure_windows, AtLeast(1.0)),
        F64("sweep.sim.tail_offered_load", sweep.sim.tail_offered_load, LOAD),
        // One request is the uncontended regime.
        Usize("sweep.sim.contended_requests", sweep.sim.contended_requests, AtLeast(2.0)),
        Usize("sweep.trace.adder_bits", sweep.trace.adder_bits, Within(1.0, BITS)),
        // modexp_costs models moduli of at least 4 bits.
        Usize("sweep.trace.modexp_bits", sweep.trace.modexp_bits, Within(4.0, BITS)),
        Usize("sweep.trace.modexp_multiplier_calls", sweep.trace.modexp_multiplier_calls, AtLeast(1.0)),
        // A Toffoli needs three operands.
        Usize("sweep.trace.random_qubits", sweep.trace.random_qubits, Within(3.0, 4.0 * BITS)),
        Usize("sweep.trace.random_ops", sweep.trace.random_ops, Within(1.0, MAX_TRACE_OPS as f64)),
        Usizes("sweep.trace.scaling_adder_bits", sweep.trace.scaling_adder_bits, Within(1.0, BITS)),
        Usizes("sweep.trace.scaling_modexp_bits", sweep.trace.scaling_modexp_bits, Within(4.0, BITS)),
        F64s("sweep.fault.severities", sweep.fault.severities, Probability),
        F64("sweep.fault.degraded_edge_fraction", sweep.fault.degraded_edge_fraction, UpTo(1.0)),
        Usize("sweep.fault.onset_windows", sweep.fault.onset_windows, Any),
        Usize("sweep.fault.duration_windows", sweep.fault.duration_windows, AtLeast(1.0)),
        F64("sweep.fault.factory_loss", sweep.fault.factory_loss, Probability),
        F64("sweep.fault.traffic_offered_load", sweep.fault.traffic_offered_load, LOAD),
        F64("sweep.fault.matrix_offered_load", sweep.fault.matrix_offered_load, LOAD),
        F64("sweep.fault.hotspot_fraction", sweep.fault.hotspot_fraction, UpTo(1.0)),
        Usize("sweep.fault.tenants", sweep.fault.tenants, AtLeast(1.0)),
        Usize("sweep.fault.tenant_quota", sweep.fault.tenant_quota, AtLeast(1.0)),
        F64s("sweep.fault.quota_skews", sweep.fault.quota_skews, AtLeast(1.0)),
        Detail("sweep.obs.detail", sweep.obs.detail, Any),
        U32("sweep.obs.sample_every", sweep.obs.sample_every, AtLeast(1.0)),
    ]
};

/// Why a spec failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A line was not `key = value`.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A key no spec field corresponds to.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unknown key.
        key: String,
    },
    /// A key assigned more than once.
    DuplicateKey {
        /// Line of the second assignment.
        line: usize,
        /// The duplicated key.
        key: String,
        /// Line of the first assignment.
        first_line: usize,
    },
    /// A required key was absent.
    MissingKey {
        /// The missing key.
        key: String,
    },
    /// A value failed to parse as its field's type.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The key whose value was malformed.
        key: String,
        /// The offending value text.
        value: String,
        /// What the field expects.
        expected: &'static str,
    },
    /// The `format_version` is not one this build understands.
    UnsupportedVersion {
        /// The version string found.
        found: String,
    },
    /// A field (or combination) is out of its valid range.
    Invalid(String),
}

impl core::fmt::Display for SpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpecError::Syntax { line, message } => {
                write!(f, "spec line {line}: {message}")
            }
            SpecError::UnknownKey { line, key } => {
                write!(f, "spec line {line}: unknown key '{key}'")
            }
            SpecError::DuplicateKey {
                line,
                key,
                first_line,
            } => write!(
                f,
                "spec line {line}: key '{key}' already assigned on line {first_line}"
            ),
            SpecError::MissingKey { key } => {
                write!(f, "spec is missing required key '{key}'")
            }
            SpecError::BadValue {
                line,
                key,
                value,
                expected,
            } => write!(
                f,
                "spec line {line}: key '{key}' has bad value '{value}' (expected {expected})"
            ),
            SpecError::UnsupportedVersion { found } => write!(
                f,
                "unsupported spec format_version '{found}' (this build reads version 1)"
            ),
            SpecError::Invalid(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve_by_name_and_validate() {
        assert_eq!(BUILTIN_PROFILES.len(), 4);
        for name in BUILTIN_PROFILES {
            let spec = MachineSpec::builtin(name).expect("builtin resolves");
            assert_eq!(spec.name, name);
            assert!(!spec.description.is_empty());
            spec.validate().expect("builtin validates");
            spec.machine().expect("builtin builds");
        }
        assert!(MachineSpec::builtin("no-such-profile").is_none());
    }

    #[test]
    fn every_builtin_round_trips_through_the_text_format() {
        for spec in MachineSpec::builtins() {
            let rendered = spec.render();
            let parsed = MachineSpec::parse(&rendered).expect("rendered spec parses");
            assert_eq!(parsed, spec, "{} did not round-trip", spec.name);
            // And rendering is idempotent (byte-stable).
            assert_eq!(parsed.render(), rendered);
        }
    }

    #[test]
    fn comments_and_blank_lines_are_tolerated() {
        let text = format!(
            "# a scenario file\n\n{}\n# trailing comment\n",
            MachineSpec::expected().render()
        );
        assert_eq!(MachineSpec::parse(&text).unwrap(), MachineSpec::expected());
    }

    #[test]
    fn unknown_duplicate_missing_and_malformed_keys_are_loud() {
        let base = MachineSpec::expected().render();

        let unknown = format!("{base}frobnicate = 1\n");
        let err = MachineSpec::parse(&unknown).unwrap_err();
        assert!(
            err.to_string().contains("unknown key 'frobnicate'"),
            "{err}"
        );

        let duplicate = format!("{base}bandwidth = 4\n");
        let err = MachineSpec::parse(&duplicate).unwrap_err();
        assert!(err.to_string().contains("already assigned"), "{err}");

        let missing = base.replace("bandwidth = 2\n", "");
        let err = MachineSpec::parse(&missing).unwrap_err();
        assert!(
            err.to_string().contains("missing required key 'bandwidth'"),
            "{err}"
        );

        let malformed = base.replace("bandwidth = 2", "bandwidth = two");
        let err = MachineSpec::parse(&malformed).unwrap_err();
        assert!(err.to_string().contains("bad value 'two'"), "{err}");
        assert!(
            matches!(&err, SpecError::BadValue { line: 6, key, .. } if key == "bandwidth"),
            "{err:?}"
        );
        assert!(err.to_string().starts_with("spec line 6:"), "{err}");

        // Of several unknown keys, the one on the earliest line is named.
        let lines = base.lines().count();
        let unknowns = format!("{base}zzz = 1\naaa = 2\n");
        assert_eq!(
            MachineSpec::parse(&unknowns).unwrap_err(),
            SpecError::UnknownKey {
                line: lines + 1,
                key: "zzz".to_string()
            }
        );

        let not_kv = format!("{base}this is not a key value line\n");
        let err = MachineSpec::parse(&not_kv).unwrap_err();
        assert!(err.to_string().contains("expected `key = value`"), "{err}");

        let version = base.replace("format_version = 1", "format_version = 99");
        let err = MachineSpec::parse(&version).unwrap_err();
        assert!(err.to_string().contains("format_version '99'"), "{err}");
    }

    #[test]
    fn validate_bounds_spans_by_the_longest_builtin_ecc_window() {
        // `fault-sweep` runs the active spec's sim and fault sections on
        // every built-in machine, so a span that fits the expected
        // machine's own window can still overflow a slower machine's.
        let longest = MachineSpec::builtins()
            .iter()
            .map(MachineSpec::ecc_window_ns)
            .max()
            .unwrap();
        let fitting = u64::MAX / longest;
        assert!(
            u128::from(MachineSpec::expected().ecc_window_ns()) * u128::from(fitting + 1)
                <= u128::from(u64::MAX)
        );
        let mut spec = MachineSpec::expected();
        spec.sweep.fault.onset_windows = fitting as usize - spec.sweep.fault.duration_windows;
        spec.validate()
            .expect("the longest span that fits validates");
        spec.sweep.fault.onset_windows += 1;
        let err = spec.validate().unwrap_err().to_string();
        assert!(
            err.ends_with(&format!("at a {longest} ns ECC window")),
            "{err}"
        );
    }

    #[test]
    fn validate_rejects_out_of_range_fields() {
        // The machine fields: validate() and machine() both refuse them with
        // an error that names the key.
        let broken = |edit: fn(&mut MachineSpec)| {
            let mut spec = MachineSpec::expected();
            edit(&mut spec);
            spec
        };
        let machine_cases = [
            ("logical_qubits", broken(|s| s.logical_qubits = 0)),
            (
                "logical_qubits",
                broken(|s| s.logical_qubits = MAX_LOGICAL_QUBITS + 1),
            ),
            (
                "logical_qubits",
                broken(|s| s.logical_qubits = 4_000_000_000),
            ),
            ("bandwidth", broken(|s| s.bandwidth = 0)),
            ("recursion_level", broken(|s| s.recursion_level = 0)),
            ("recursion_level", broken(|s| s.recursion_level = 3)),
            ("recursion_level", broken(|s| s.recursion_level = 7)),
            ("recursion_level", broken(|s| s.recursion_level = 9)),
        ];
        for (key, spec) in machine_cases {
            for err in [spec.validate().unwrap_err(), spec.machine().unwrap_err()] {
                assert!(
                    matches!(&err, SpecError::Invalid(m) if m.starts_with(&format!("{key} must be"))),
                    "{err}"
                );
            }
        }

        // Every other range and cross-field rule refuses with an error that
        // names the key.
        let sweep_cases = [
            (
                "component_rates",
                broken(|s| s.sweep.component_rates.clear()),
            ),
            (
                "threshold_scan_lo",
                broken(|s| {
                    s.sweep.threshold_scan_lo = 0.5;
                    s.sweep.threshold_scan_hi = 0.1;
                }),
            ),
            (
                "sim.offered_loads",
                broken(|s| s.sweep.sim.offered_loads = vec![0.5, -1.0]),
            ),
            (
                "at most 10000",
                broken(|s| s.sweep.sim.offered_loads = vec![MAX_OFFERED_LOAD * 2.0]),
            ),
            (
                "tail_offered_load",
                broken(|s| s.sweep.sim.tail_offered_load = f64::INFINITY),
            ),
            ("burst_factor", broken(|s| s.sweep.sim.burst_factor = 0.5)),
            (
                "contended_requests",
                broken(|s| s.sweep.sim.contended_requests = 1),
            ),
            (
                "measure_windows",
                broken(|s| s.sweep.sim.measure_windows = 0),
            ),
            ("trace.adder_bits", broken(|s| s.sweep.trace.adder_bits = 0)),
            (
                "trace.modexp_bits",
                broken(|s| s.sweep.trace.modexp_bits = 3),
            ),
            (
                "modexp_multiplier_calls",
                broken(|s| s.sweep.trace.modexp_multiplier_calls = 0),
            ),
            ("random_qubits", broken(|s| s.sweep.trace.random_qubits = 2)),
            (
                "random_ops",
                broken(|s| s.sweep.trace.random_ops = MAX_TRACE_OPS + 1),
            ),
            (
                "scaling_adder_bits",
                broken(|s| s.sweep.trace.scaling_adder_bits.clear()),
            ),
            (
                "scaling_modexp_bits",
                broken(|s| s.sweep.trace.scaling_modexp_bits = vec![8, MAX_TRACE_BITS + 1]),
            ),
            (
                "fault.severities",
                broken(|s| s.sweep.fault.severities = vec![0.5, 1.5]),
            ),
            (
                "degraded_edge_fraction",
                broken(|s| s.sweep.fault.degraded_edge_fraction = 0.0),
            ),
            (
                "duration_windows",
                broken(|s| s.sweep.fault.duration_windows = 0),
            ),
            (
                "matrix_offered_load",
                broken(|s| s.sweep.fault.matrix_offered_load = -2.0),
            ),
            (
                "hotspot_fraction",
                broken(|s| s.sweep.fault.hotspot_fraction = 1.25),
            ),
            ("fault.tenants", broken(|s| s.sweep.fault.tenants = 0)),
            (
                "quota_skews",
                broken(|s| s.sweep.fault.quota_skews = vec![1.0, 0.5]),
            ),
            ("obs.sample_every", broken(|s| s.sweep.obs.sample_every = 0)),
            (
                "tech.fail.double_gate",
                broken(|s| s.tech.failures.double_gate = 1.5),
            ),
            (
                "fault.duration_windows (100000000000006 windows) overflows",
                broken(|s| s.sweep.fault.onset_windows = 100_000_000_000_000),
            ),
            (
                "sim.measure_windows (100000000000016 windows) overflows",
                broken(|s| s.sweep.sim.warmup_windows = 100_000_000_000_000),
            ),
        ];
        for (key, spec) in sweep_cases {
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains(key), "{key}: {err}");
        }

        assert!(broken(|s| s.name = "two\nlines".to_string())
            .validate()
            .is_err());

        // Padding would be trimmed away by parse(), breaking the
        // render→parse round trip, so validation refuses it up front.
        let spec = broken(|s| s.description = " padded ".to_string());
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("whitespace"));
    }

    #[test]
    fn profile_machines_differ_where_they_should() {
        let expected = MachineSpec::expected().machine().unwrap();
        let current = MachineSpec::current().machine().unwrap();
        let slow = MachineSpec::relaxed_speed().machine().unwrap();
        // Same geometry, different technology.
        assert_eq!(expected.logical_qubits(), current.logical_qubits());
        assert_ne!(expected.tech, current.tech);
        // The slow profile's structural ECC window paces slower.
        assert!(slow.ecc_window() > expected.ecc_window());
        // Interconnect technology follows the profile.
        assert_eq!(slow.interconnect.tech, TechnologyParams::relaxed_speed());
    }

    #[test]
    fn builtin_machines_carry_the_spec_design_point() {
        for spec in MachineSpec::builtins() {
            let m = spec.machine().expect("builtin builds");
            assert_eq!(m.ecc, spec.ecc_latencies(), "{}", spec.name);
            assert_eq!(m.interconnect, spec.interconnect_params(), "{}", spec.name);
            assert_eq!(
                m.floorplan,
                Floorplan::for_qubit_count(spec.logical_qubits),
                "{}",
                spec.name
            );
            assert_eq!(m.tech, spec.tech);
            assert_eq!(m.recursion_level, spec.recursion_level);
            assert_eq!(m.bandwidth, spec.bandwidth);
        }
        for n in [1, 100, 37_971] {
            let spec = MachineSpec {
                logical_qubits: n,
                ..MachineSpec::expected()
            };
            assert_eq!(QlaMachine::with_logical_qubits(n), spec.machine().unwrap());
        }
    }

    #[test]
    fn machine_checks_exactly_the_machine_fields() {
        let keys: Vec<&str> = FIELDS[MACHINE_FIELDS].iter().map(|f| f.key).collect();
        assert_eq!(keys, ["logical_qubits", "recursion_level", "bandwidth"]);
        // A spec broken elsewhere still builds its machine: only validate()
        // walks the whole table.
        let mut spec = MachineSpec::expected();
        spec.sweep.component_rates.clear();
        assert!(spec.validate().is_err());
        assert!(spec.machine().is_ok());
    }

    #[test]
    fn movement_error_tracks_the_technology_and_clamps() {
        assert!((MachineSpec::expected().movement_error() - 1.2e-5).abs() < 1e-18);
        // Pcurrent movement is 0.1 per cell; over 12 cells that saturates.
        assert_eq!(MachineSpec::current().movement_error(), 1.0);
    }

    #[test]
    fn scenario_header_is_deterministic_and_names_the_profile() {
        let scenario = MachineSpec::expected().scenario();
        assert_eq!(scenario.profile, "expected");
        assert!(scenario.summary.contains("recursion_level=2"));
        assert!(
            scenario.summary.contains("p0=2.800e-7"),
            "{}",
            scenario.summary
        );
        assert_eq!(scenario, MachineSpec::expected().scenario());
    }
}
