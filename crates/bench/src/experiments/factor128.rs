//! Section 5 walk-through: the full accounting from Toffoli gates to
//! error-correction steps to wall-clock hours for factoring a 128-bit
//! number, plus the physical scale of the machine that runs it.

use crate::experiments::table2_shor::spec_estimator;
use qla_core::{Experiment, ExperimentContext, MachineSpec};
use qla_report::{row, Column, Report, Value};
use qla_shor::{classical_mips_years, ShorResources};
use serde::Serialize;

/// The 128-bit factorisation walk-through (deterministic).
pub struct Factor128Walkthrough;

/// Typed output: the resource estimate plus machine-geometry figures.
#[derive(Debug, Clone, Serialize)]
pub struct Factor128Output {
    /// The Shor resource estimate for 128 bits.
    pub resources: ShorResources,
    /// Physical ion sites of a machine sized for it.
    pub physical_ion_sites: u64,
    /// Edge length of the (square) chip in centimetres.
    pub chip_edge_cm: f64,
    /// Classical number-field-sieve baseline in MIPS-years.
    pub classical_mips_years: f64,
}

impl Experiment for Factor128Walkthrough {
    type Output = Factor128Output;

    fn name(&self) -> &'static str {
        "factor128-walkthrough"
    }
    fn title(&self) -> &'static str {
        "Section 5 — factoring a 128-bit number on the QLA"
    }
    fn description(&self) -> &'static str {
        "End-to-end accounting: Toffolis, EC steps, wall-clock time, chip scale"
    }
    fn default_trials(&self) -> usize {
        1
    }
    fn spec_fields(&self) -> &'static [&'static str] {
        &["ecc", "recursion_level", "tech.time.*", "tech.cell_size_um"]
    }

    fn run(&self, ctx: &ExperimentContext) -> Factor128Output {
        let resources = spec_estimator(ctx).estimate(128);
        // The machine takes the spec's design point but is sized for the
        // workload, not for the spec's default qubit count.
        let machine = MachineSpec {
            logical_qubits: resources.logical_qubits as usize,
            ..ctx.spec.clone()
        }
        .machine()
        .expect("spec validated at load time");
        Factor128Output {
            resources,
            physical_ion_sites: machine.physical_ion_sites(),
            chip_edge_cm: machine.chip_area_m2().sqrt() * 100.0,
            classical_mips_years: classical_mips_years(128),
        }
    }

    fn report(&self, _ctx: &ExperimentContext, output: &Factor128Output) -> Report {
        let r = &output.resources;
        let mut report = Report::new(Experiment::name(self), self.title()).with_columns([
            Column::new("quantity"),
            Column::new("value"),
            Column::new("paper"),
        ]);
        let rows: [(&str, Value, Value); 9] = [
            ("logical qubits", r.logical_qubits.into(), Value::Null),
            ("Toffoli gates", r.toffoli_gates.into(), Value::Null),
            (
                "EC steps (21/Toffoli + QFT)",
                r.ecc_steps.into(),
                "1.34e6".into(),
            ),
            (
                "single-run time (h)",
                r.single_run_time.as_hours().into(),
                "~16".into(),
            ),
            (
                "expected time x1.3 (h)",
                r.expected_time.as_hours().into(),
                "~21".into(),
            ),
            ("chip area (m^2)", r.area_m2.into(), "0.11".into()),
            (
                "physical ion sites",
                output.physical_ion_sites.into(),
                "~7e6 ions".into(),
            ),
            ("chip edge (cm)", output.chip_edge_cm.into(), Value::Null),
            (
                "classical NFS baseline (MIPS-years)",
                output.classical_mips_years.into(),
                Value::Null,
            ),
        ];
        for (quantity, value, paper) in rows {
            report.push_row(row![quantity, value, paper]);
        }
        report.push_note(
            "our ion-site count includes every ancilla and verification ion of the Fig. 5 \
             structure; the paper's ~7e6 counts data ions only",
        );
        report
    }
}
