//! Chip-area model (the "Area(m²)" row of Table 2).
//!
//! The QLA chip area is "determined by the number of logical qubits and
//! channels (qubits: 147×36 cells with added 11 and 12 cells for the
//! channels, where each cell is 20 µm large on each side)".

use crate::tile::QubitTile;
use qla_physical::TechnologyParams;
use serde::{Deserialize, Serialize};

/// Area model for a QLA chip holding a given number of logical qubits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaModel {
    /// The per-qubit tile (including channel share).
    pub tile: QubitTile,
    /// Technology (cell pitch).
    pub tech: TechnologyParams,
}

impl AreaModel {
    /// The paper's area model: level-2 tiles on the expected technology.
    #[must_use]
    pub fn paper() -> Self {
        AreaModel {
            tile: QubitTile::level2(),
            tech: TechnologyParams::expected(),
        }
    }

    /// Chip area in square metres for `logical_qubits` qubits.
    #[must_use]
    pub fn area_m2(&self, logical_qubits: u64) -> f64 {
        logical_qubits as f64 * self.tile.cells_with_channels() as f64 * self.tech.cell_area_m2()
    }

    /// Number of physical ion sites (data + ancilla + verification) on the
    /// chip, using the level-2 structure of Figure 5.
    #[must_use]
    pub fn ion_sites(&self, logical_qubits: u64) -> u64 {
        logical_qubits * qla_qec::ConcatenatedSteane::qla_default().total_ions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2 of the paper: (N, logical qubits, area in m²).
    const TABLE2_AREAS: [(u64, f64); 4] = [
        (37_971, 0.11),
        (150_771, 0.45),
        (301_251, 0.90),
        (602_259, 1.80),
    ];

    #[test]
    fn table_2_area_column_is_reproduced() {
        let model = AreaModel::paper();
        for (qubits, paper_area) in TABLE2_AREAS {
            let ours = model.area_m2(qubits);
            let ratio = ours / paper_area;
            assert!(
                ratio > 0.9 && ratio < 1.15,
                "area for {qubits} qubits: ours {ours:.3} m², paper {paper_area} m² (ratio {ratio:.3})"
            );
        }
    }

    #[test]
    fn factoring_128_bits_needs_a_chip_of_tens_of_centimetres() {
        // Section 6: "the area of the ion-trap chip for even the factoring of
        // a 128-bit number is roughly [0.11] square meters. This amounts to a
        // chip size of 33 centimeters at each edge" — the text quotes the
        // 512-bit area (0.45 m²) for the 33 cm figure; the 128-bit chip is
        // ~33 cm on edge only if square at 0.11 m², i.e. ~33 cm.
        let model = AreaModel::paper();
        let edge = model.area_m2(37_971).sqrt() * 100.0;
        assert!(edge > 25.0 && edge < 40.0, "edge {edge} cm");
    }

    #[test]
    fn ion_site_count_scales_with_logical_qubits() {
        let model = AreaModel::paper();
        assert_eq!(model.ion_sites(1), 63 * 21);
        assert_eq!(model.ion_sites(1000), 63 * 21 * 1000);
    }

    #[test]
    fn area_is_linear_in_qubit_count() {
        let model = AreaModel::paper();
        let a = model.area_m2(10_000);
        let b = model.area_m2(20_000);
        assert!((b / a - 2.0).abs() < 1e-9);
    }
}
