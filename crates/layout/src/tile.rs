//! Tile geometry of the QLA logical qubit (Figures 4 and 5).
//!
//! The level-2 logical qubit occupies a 36 × 147-cell footprint (Section 4.2);
//! it is built from 63 level-1 blocks — seven groups of three (data + two
//! ancilla) blocks for the data conglomeration, flanked by two identical
//! level-2 ancilla conglomerations. The chip floorplan adds 12 and 11 cells of
//! channel in the x̂ and ŷ directions around every tile (Table 2 caption).

use qla_physical::TechnologyParams;
use serde::{Deserialize, Serialize};

/// Width (x̂) of a level-2 logical qubit in cells.
pub const LEVEL2_QUBIT_WIDTH_CELLS: usize = 36;
/// Height (ŷ) of a level-2 logical qubit in cells.
pub const LEVEL2_QUBIT_HEIGHT_CELLS: usize = 147;
/// Channel cells added beside each tile in the x̂ direction.
pub const CHANNEL_WIDTH_CELLS: usize = 12;
/// Channel cells added above each tile in the ŷ direction.
pub const CHANNEL_HEIGHT_CELLS: usize = 11;

/// The footprint of one logical-qubit tile, with and without its share of the
/// communication channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QubitTile {
    /// Tile width in cells, excluding channels.
    pub width_cells: usize,
    /// Tile height in cells, excluding channels.
    pub height_cells: usize,
    /// Channel cells added in x̂.
    pub channel_width_cells: usize,
    /// Channel cells added in ŷ.
    pub channel_height_cells: usize,
}

impl QubitTile {
    /// The level-2 QLA logical qubit tile of Section 4.2.
    #[must_use]
    pub fn level2() -> Self {
        QubitTile {
            width_cells: LEVEL2_QUBIT_WIDTH_CELLS,
            height_cells: LEVEL2_QUBIT_HEIGHT_CELLS,
            channel_width_cells: CHANNEL_WIDTH_CELLS,
            channel_height_cells: CHANNEL_HEIGHT_CELLS,
        }
    }

    /// Tile pitch (width including channels) in cells.
    #[must_use]
    pub fn pitch_x_cells(&self) -> usize {
        self.width_cells + self.channel_width_cells
    }

    /// Tile pitch (height including channels) in cells.
    #[must_use]
    pub fn pitch_y_cells(&self) -> usize {
        self.height_cells + self.channel_height_cells
    }

    /// Number of cells in the tile footprint including its channel share.
    #[must_use]
    pub fn cells_with_channels(&self) -> usize {
        self.pitch_x_cells() * self.pitch_y_cells()
    }

    /// Number of cells occupied by the qubit structure alone.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.width_cells * self.height_cells
    }

    /// Physical area of the qubit structure alone, in square metres.
    #[must_use]
    pub fn area_m2(&self, tech: &TechnologyParams) -> f64 {
        self.cells() as f64 * tech.cell_area_m2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level2_tile_matches_section_4_2() {
        let tile = QubitTile::level2();
        let tech = TechnologyParams::expected();
        assert_eq!(tile.cells(), 36 * 147);
        // "our qubit will have dimensions of (36 × 147) cells = 2.11 mm^2 at
        // 20 µm large on each cell side".
        let mm2 = tile.area_m2(&tech) * 1e6;
        assert!((mm2 - 2.11).abs() < 0.02, "area {mm2} mm^2");
    }

    #[test]
    fn channel_share_matches_table_2_caption() {
        let tile = QubitTile::level2();
        assert_eq!(tile.pitch_x_cells(), 48);
        assert_eq!(tile.pitch_y_cells(), 158);
        assert_eq!(tile.cells_with_channels(), 48 * 158);
    }

    #[test]
    fn about_100_logical_qubits_fit_in_a_pentium_iv_die() {
        // Section 4.2: "At this rate we can fit 100 logical qubits per 90nm
        // technology Pentium IV processor". A P4 (Northwood/Prescott-class)
        // die is roughly 1.5–2.5 cm²; 100 tiles of 2.11 mm² is 2.11 cm².
        let tech = TechnologyParams::expected();
        let hundred = 100.0 * QubitTile::level2().area_m2(&tech);
        assert!(hundred > 1.5e-4 && hundred < 3.0e-4, "area {hundred} m^2");
    }
}
