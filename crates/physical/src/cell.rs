//! Cell coordinates on the QCCD substrate.
//!
//! Following Section 2.1, the chip is a 2-D grid of identical cells, each
//! holding an ion, an electrode, or empty channel space through which ions
//! are ballistically shuttled. The layout crates address that grid with
//! [`Position`].

use serde::{Deserialize, Serialize};

/// A cell coordinate on the grid. `x` grows to the right, `y` grows downward.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Position {
    /// Column index.
    pub x: usize,
    /// Row index.
    pub y: usize,
}

impl Position {
    /// Create a position.
    #[must_use]
    pub fn new(x: usize, y: usize) -> Self {
        Position { x, y }
    }

    /// Manhattan (L1) distance to another position, in cells.
    #[must_use]
    pub fn manhattan_distance(&self, other: &Position) -> usize {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance_is_the_l1_norm() {
        let a = Position::new(0, 0);
        let b = Position::new(3, 4);
        let c = Position::new(0, 4);
        assert_eq!(a.manhattan_distance(&b), 7);
        assert_eq!(a.manhattan_distance(&c), 4);
        assert_eq!(b.manhattan_distance(&a), 7);
        assert_eq!(a.manhattan_distance(&a), 0);
    }
}
