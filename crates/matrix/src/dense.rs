//! Row-major dense matrix.

use crate::{Elem, MatrixError, Result};

/// A row-major dense matrix of [`Elem`] values.
///
/// This is the representation of the feature matrix `X0`, the intermediate matrix
/// `H`, the weight matrix `W`, and the output `X1` in the paper's notation (Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Elem>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    /// Returns [`MatrixError::BadBufferLen`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Elem>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::BadBufferLen { expected: rows * cols, actual: data.len() });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Creates a matrix whose entry `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Elem) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements (`rows * cols`).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(i, j)`; panics when out of bounds (debug-friendly indexing).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Elem {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.cols + j]
    }

    /// Mutable element access at `(i, j)`.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut Elem {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)` to `v`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: Elem) {
        *self.get_mut(i, j) = v;
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Elem] {
        debug_assert!(i < self.rows, "row {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [Elem] {
        debug_assert!(i < self.rows, "row {i} out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[Elem] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Elem] {
        &mut self.data
    }

    /// Consumes the matrix and returns its buffer.
    pub fn into_vec(self) -> Vec<Elem> {
        self.data
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Maximum absolute difference against `other`.
    ///
    /// # Errors
    /// Returns [`MatrixError::DimMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> Result<Elem> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimMismatch { op: "max_abs_diff", lhs: self.shape(), rhs: other.shape() });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, Elem::max))
    }

    /// `true` when every element differs from `other` by at most
    /// `atol + rtol * |other|` (NumPy-style allclose).
    pub fn allclose(&self, other: &DenseMatrix, rtol: Elem, atol: Elem) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= atol + rtol * b.abs())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> Elem {
        self.data.iter().map(|v| v * v).sum::<Elem>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert!(!m.is_empty());
        assert!(DenseMatrix::zeros(0, 5).is_empty());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = DenseMatrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(err, MatrixError::BadBufferLen { expected: 4, actual: 3 });
    }

    #[test]
    fn indexing_round_trips() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.set(1, 2, 7.5);
        assert_eq!(m.get(1, 2), 7.5);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.5]);
        m.row_mut(0)[1] = -1.0;
        assert_eq!(m.get(0, 1), -1.0);
    }

    #[test]
    fn identity_and_transpose() {
        let i3 = DenseMatrix::identity(3);
        assert_eq!(i3.get(0, 0), 1.0);
        assert_eq!(i3.get(0, 1), 0.0);
        assert_eq!(i3.transpose(), i3);

        let m = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn from_fn_fills_row_major() {
        let m = DenseMatrix::from_fn(2, 2, |i, j| (i * 10 + j) as Elem);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn allclose_and_max_abs_diff() {
        let a = DenseMatrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0);
        assert!(a.allclose(&b, 0.0, 0.0));
        b.set(0, 2, 3.001);
        assert!((a.max_abs_diff(&b).unwrap() - 0.001).abs() < 1e-6);
        assert!(a.allclose(&b, 1e-2, 0.0));
        assert!(!a.allclose(&b, 1e-6, 1e-6));

        let c = DenseMatrix::zeros(2, 2);
        assert!(a.max_abs_diff(&c).is_err());
        assert!(!a.allclose(&c, 1.0, 1.0));
    }

    #[test]
    fn frobenius_norm_matches_hand_computation() {
        let m = DenseMatrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }
}
