//! The chip floorplan: an array of logical-qubit tiles, channels and
//! teleportation islands (Figure 1).

use crate::tile::QubitTile;
use qla_physical::{Position, TechnologyParams};
use serde::{Deserialize, Serialize};

/// Index of a logical qubit on the floorplan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LogicalQubitId(pub usize);

/// A rectangular array of logical-qubit tiles with integrated teleportation
/// islands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floorplan {
    /// Number of tile columns.
    pub columns: usize,
    /// Number of tile rows.
    pub rows: usize,
    /// The tile geometry.
    pub tile: QubitTile,
    /// Island spacing along x̂, in cells (Section 5 fixes 100 cells).
    pub island_spacing_x_cells: usize,
    /// Island spacing along ŷ, in cells (one island per logical qubit row,
    /// i.e. the tile pitch, because a qubit is already 147 cells tall).
    pub island_spacing_y_cells: usize,
}

impl Floorplan {
    /// A floorplan of `columns × rows` level-2 logical qubits with the
    /// default island spacing used in the paper's evaluation.
    #[must_use]
    pub fn new(columns: usize, rows: usize) -> Self {
        let tile = QubitTile::level2();
        Floorplan {
            columns,
            rows,
            tile,
            island_spacing_x_cells: 100,
            island_spacing_y_cells: tile.pitch_y_cells(),
        }
    }

    /// A floorplan sized to hold at least `qubits` logical qubits, laid out as
    /// close to square (in physical extent) as possible.
    #[must_use]
    pub fn for_qubit_count(qubits: usize) -> Self {
        if qubits == 0 {
            return Floorplan::new(0, 0);
        }
        let tile = QubitTile::level2();
        // Balance columns and rows so the chip is roughly square in cells.
        let aspect = tile.pitch_y_cells() as f64 / tile.pitch_x_cells() as f64;
        let columns = ((qubits as f64 * aspect).sqrt()).ceil() as usize;
        let rows = qubits.div_ceil(columns.max(1));
        Floorplan::new(columns.max(1), rows.max(1))
    }

    /// Number of logical qubit sites.
    #[must_use]
    pub fn qubit_count(&self) -> usize {
        self.columns * self.rows
    }

    /// Chip width in cells.
    #[must_use]
    pub fn width_cells(&self) -> usize {
        self.columns * self.tile.pitch_x_cells()
    }

    /// Chip height in cells.
    #[must_use]
    pub fn height_cells(&self) -> usize {
        self.rows * self.tile.pitch_y_cells()
    }

    /// Chip area in square metres.
    #[must_use]
    pub fn area_m2(&self, tech: &TechnologyParams) -> f64 {
        self.width_cells() as f64 * self.height_cells() as f64 * tech.cell_area_m2()
    }

    /// The (column, row) of a logical qubit id, row-major.
    ///
    /// # Panics
    /// Panics if the id is outside the floorplan.
    #[must_use]
    pub fn grid_position(&self, q: LogicalQubitId) -> (usize, usize) {
        assert!(q.0 < self.qubit_count(), "qubit {q:?} outside floorplan");
        (q.0 % self.columns, q.0 / self.columns)
    }

    /// The cell coordinates of the centre of a logical qubit tile.
    #[must_use]
    pub fn cell_position(&self, q: LogicalQubitId) -> Position {
        let (col, row) = self.grid_position(q);
        Position::new(
            col * self.tile.pitch_x_cells() + self.tile.pitch_x_cells() / 2,
            row * self.tile.pitch_y_cells() + self.tile.pitch_y_cells() / 2,
        )
    }

    /// Manhattan distance between two logical qubits, in cells.
    #[must_use]
    pub fn distance_cells(&self, a: LogicalQubitId, b: LogicalQubitId) -> usize {
        self.cell_position(a)
            .manhattan_distance(&self.cell_position(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_floorplan_geometry() {
        let f = Floorplan::new(4, 2);
        assert_eq!(f.qubit_count(), 8);
        assert_eq!(f.width_cells(), 4 * 48);
        assert_eq!(f.height_cells(), 2 * 158);
        let (c, r) = f.grid_position(LogicalQubitId(5));
        assert_eq!((c, r), (1, 1));
    }

    #[test]
    fn distances_are_symmetric_and_zero_on_diagonal() {
        let f = Floorplan::new(10, 10);
        let a = LogicalQubitId(3);
        let b = LogicalQubitId(87);
        assert_eq!(f.distance_cells(a, b), f.distance_cells(b, a));
        assert_eq!(f.distance_cells(a, a), 0);
    }

    #[test]
    fn neighbouring_qubits_are_one_pitch_apart() {
        let f = Floorplan::new(8, 8);
        assert_eq!(
            f.distance_cells(LogicalQubitId(0), LogicalQubitId(1)),
            f.tile.pitch_x_cells()
        );
        assert_eq!(
            f.distance_cells(LogicalQubitId(0), LogicalQubitId(8)),
            f.tile.pitch_y_cells()
        );
    }

    #[test]
    fn shor_1024_needs_tens_of_centimetres_of_communication() {
        // Section 4.2: "to factor a 1024-bit number we may need to communicate
        // over a distance as large as 60 centimeters".
        let f = Floorplan::for_qubit_count(301_251);
        let tech = qla_physical::TechnologyParams::expected();
        let cell_cm = tech.cell_size_m() * 100.0;
        let diagonal_manhattan = (f.width_cells() + f.height_cells()) as f64 * cell_cm;
        assert!(
            diagonal_manhattan > 40.0 && diagonal_manhattan < 250.0,
            "corner-to-corner distance {diagonal_manhattan} cm"
        );
        assert!(f.qubit_count() >= 301_251);
    }

    #[test]
    fn qubit_sized_floorplan_area_matches_tile_arithmetic() {
        let tech = qla_physical::TechnologyParams::expected();
        let f = Floorplan::new(10, 10);
        let expected = 100.0 * f.tile.cells_with_channels() as f64 * tech.cell_area_m2();
        assert!((f.area_m2(&tech) - expected).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn grid_position_round_trips(cols in 1usize..50, rows in 1usize..50, idx in 0usize..2000) {
            let f = Floorplan::new(cols, rows);
            prop_assume!(idx < f.qubit_count());
            let (c, r) = f.grid_position(LogicalQubitId(idx));
            prop_assert_eq!(r * cols + c, idx);
        }

        #[test]
        fn for_qubit_count_always_has_capacity(n in 1usize..100_000) {
            let f = Floorplan::for_qubit_count(n);
            prop_assert!(f.qubit_count() >= n);
            // And never more than ~2.2x over-provisioned.
            prop_assert!(f.qubit_count() <= 2 * n + f.columns + f.rows + 1);
        }
    }
}
