/// A point in `D`-dimensional space.
///
/// Points are the degenerate case of [`Rect`](crate::Rect): the paper's
/// "point data" experiments index points by storing them as zero-extent
/// rectangles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point<const D: usize> {
    /// Coordinate along each dimension.
    pub coords: [f64; D],
}

impl<const D: usize> Point<D> {
    /// Creates a point from its coordinates.
    pub const fn new(coords: [f64; D]) -> Self {
        Self { coords }
    }

    /// Squared Euclidean distance to another point.
    pub fn dist2(&self, other: &Self) -> f64 {
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }
}

impl<const D: usize> From<[f64; D]> for Point<D> {
    fn from(coords: [f64; D]) -> Self {
        Self { coords }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist2_is_squared_euclidean() {
        let a = Point::new([0.0, 0.0]);
        let b = Point::new([3.0, 4.0]);
        assert_eq!(a.dist2(&b), 25.0);
        assert_eq!(b.dist2(&a), 25.0);
        assert_eq!(a.dist2(&a), 0.0);
    }
}
