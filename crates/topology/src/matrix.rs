//! A small dense square matrix used for inter-cluster latency and gap tables.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `n × n` matrix stored in row-major order.
///
/// Latency and gap tables of a grid are tiny (tens of clusters), so a flat `Vec`
/// with explicit dimension checks is simpler and faster than any sparse or
/// hash-based structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SquareMatrix<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Clone> SquareMatrix<T> {
    /// Creates an `n × n` matrix with every entry set to `fill`.
    pub fn filled(n: usize, fill: T) -> Self {
        SquareMatrix {
            n,
            data: vec![fill; n * n],
        }
    }

    /// Creates a matrix from a row-major vector. Panics if `data.len() != n²`.
    pub fn from_rows(n: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            n * n,
            "square matrix of dimension {n} needs {} entries, got {}",
            n * n,
            data.len()
        );
        SquareMatrix { n, data }
    }
}

impl<T> SquareMatrix<T> {
    /// The dimension `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Whether the backing storage actually holds `n × n` entries.
    ///
    /// Every constructor guarantees this, but `Deserialize` is derived
    /// field-by-field, so a hand-written (or adversarial) document can claim
    /// one dimension and ship another — indexing such a matrix panics.
    /// Callers accepting matrices from the wire must check this first
    /// (see `Grid::check_consistency` in this crate).
    pub fn is_consistent(&self) -> bool {
        self.n
            .checked_mul(self.n)
            .is_some_and(|len| self.data.len() == len)
    }

    /// Immutable access with bounds checking, returning `None` out of range.
    pub fn get(&self, row: usize, col: usize) -> Option<&T> {
        if row < self.n && col < self.n {
            Some(&self.data[row * self.n + col])
        } else {
            None
        }
    }

    /// Every entry in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Iterates over `(row, col, &value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| (i / self.n, i % self.n, v))
    }

    /// Applies a function to every element, producing a new matrix.
    pub fn map<U, F: FnMut(&T) -> U>(&self, mut f: F) -> SquareMatrix<U> {
        SquareMatrix {
            n: self.n,
            data: self.data.iter().map(&mut f).collect(),
        }
    }
}

impl<T: PartialOrd + Clone> SquareMatrix<T> {
    /// Returns whether the matrix is symmetric under `==`.
    pub fn is_symmetric(&self) -> bool
    where
        T: PartialEq,
    {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self[(i, j)] != self[(j, i)] {
                    return false;
                }
            }
        }
        true
    }
}

impl<T> Index<(usize, usize)> for SquareMatrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(row < self.n && col < self.n, "matrix index out of bounds");
        &self.data[row * self.n + col]
    }
}

impl<T> IndexMut<(usize, usize)> for SquareMatrix<T> {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        assert!(row < self.n && col < self.n, "matrix index out of bounds");
        &mut self.data[row * self.n + col]
    }
}

impl<T: fmt::Display> fmt::Display for SquareMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                if j > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{:>12}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_indexing() {
        let mut m = SquareMatrix::filled(3, 0u32);
        m[(1, 2)] = 7;
        assert_eq!(m[(1, 2)], 7);
        assert_eq!(m[(2, 1)], 0);
        assert_eq!(m.dim(), 3);
        assert_eq!(m.get(2, 2), Some(&0));
        assert_eq!(m.get(3, 0), None);
    }

    #[test]
    fn from_rows_checks_length() {
        let m = SquareMatrix::from_rows(2, vec![1, 2, 3, 4]);
        assert_eq!(m[(0, 1)], 2);
        assert_eq!(m[(1, 0)], 3);
    }

    #[test]
    #[should_panic(expected = "needs 4 entries")]
    fn from_rows_wrong_length_panics() {
        let _ = SquareMatrix::from_rows(2, vec![1, 2, 3]);
    }

    #[test]
    fn symmetry_check() {
        let sym = SquareMatrix::from_rows(2, vec![0, 5, 5, 0]);
        let asym = SquareMatrix::from_rows(2, vec![0, 5, 6, 0]);
        assert!(sym.is_symmetric());
        assert!(!asym.is_symmetric());
    }

    #[test]
    fn map_and_iter() {
        let m = SquareMatrix::from_rows(2, vec![1, 2, 3, 4]);
        let doubled = m.map(|v| v * 2);
        assert_eq!(doubled[(1, 1)], 8);
        let sum: i32 = m.iter().map(|(_, _, v)| *v).sum();
        assert_eq!(sum, 10);
        let diag: Vec<i32> = m
            .iter()
            .filter(|(r, c, _)| r == c)
            .map(|(_, _, v)| *v)
            .collect();
        assert_eq!(diag, vec![1, 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let m = SquareMatrix::filled(2, 0u8);
        let _ = m[(0, 2)];
    }

    #[test]
    fn consistency_survives_round_trip_and_catches_forged_dimensions() {
        use serde::{Deserialize as _, Serialize as _};
        let m = SquareMatrix::from_rows(2, vec![1u32, 2, 3, 4]);
        assert!(m.is_consistent());
        let back = SquareMatrix::<u32>::from_value(&m.to_value()).unwrap();
        assert!(back.is_consistent());
        assert_eq!(back, m);
        // A document claiming a larger dimension than its data deserializes
        // fine (derived impl checks fields independently) but must be caught.
        let forged = serde::Value::Map(vec![
            ("n".into(), serde::Value::U64(3)),
            (
                "data".into(),
                serde::Value::Seq(vec![serde::Value::U64(1); 4]),
            ),
        ]);
        let bad = SquareMatrix::<u32>::from_value(&forged).unwrap();
        assert!(!bad.is_consistent());
    }
}
