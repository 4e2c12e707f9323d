//! Reference kernels: dense GEMM and CSR SpMM.
//!
//! These are the functional ground truth for the accelerator engines in
//! `omega-accel`: whichever loop order and tiling a dataflow prescribes, the engine's
//! functional output must equal these kernels' output (up to float associativity).

use crate::{CsrMatrix, DenseMatrix, MatrixError, Result};

/// Computes `C = A · B` for dense `A` and `B`.
///
/// # Errors
/// [`MatrixError::DimMismatch`] when `A.cols() != B.rows()`.
pub fn gemm(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        return Err(MatrixError::DimMismatch { op: "gemm", lhs: a.shape(), rhs: b.shape() });
    }
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let crow = c.row_mut(i);
        // ikj order: stream B rows, accumulate into the output row — good cache
        // behaviour and a fixed accumulation order.
        for (k, &aik) in a.row(i).iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            for (c, &bkj) in crow.iter_mut().zip(b.row(k)) {
                *c += aik * bkj;
            }
        }
    }
    Ok(c)
}

/// Computes `C = A · B` where `A` is sparse (CSR) and `B` dense — the paper's
/// Aggregation phase (`H = A · X0`).
///
/// # Errors
/// [`MatrixError::DimMismatch`] when `A.cols() != B.rows()`.
pub fn spmm(a: &CsrMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        return Err(MatrixError::DimMismatch { op: "spmm", lhs: a.shape(), rhs: b.shape() });
    }
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let crow = c.row_mut(i);
        for (col, v) in a.row_iter(i) {
            for (c, &bkj) in crow.iter_mut().zip(b.row(col)) {
                *c += v * bkj;
            }
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, Elem};

    fn dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        // Small deterministic integer-valued matrices: float accumulation is exact,
        // so kernel and dataflow results can be compared with `==`.
        DenseMatrix::from_fn(rows, cols, |i, j| {
            (((i as u64 * 31 + j as u64 * 17 + seed) % 7) as Elem) - 3.0
        })
    }

    fn sparse(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if (i as u64 * 13 + j as u64 * 7 + seed).is_multiple_of(5) {
                    coo.push(i, j, (((i + j + seed as usize) % 3) as Elem) + 1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn gemm_matches_hand_example() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseMatrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = dense(5, 5, 3);
        let c = gemm(&a, &DenseMatrix::identity(5)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn gemm_rejects_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(4, 2);
        assert!(matches!(gemm(&a, &b), Err(MatrixError::DimMismatch { .. })));
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let a = sparse(6, 5, 1);
        let b = dense(5, 4, 2);
        let via_spmm = spmm(&a, &b).unwrap();
        let via_gemm = gemm(&a.to_dense(), &b).unwrap();
        assert_eq!(via_spmm, via_gemm);
    }

    #[test]
    fn spmm_rejects_mismatch() {
        let a = CsrMatrix::empty(2, 3);
        let b = DenseMatrix::zeros(4, 2);
        assert!(matches!(spmm(&a, &b), Err(MatrixError::DimMismatch { .. })));
    }

    #[test]
    fn empty_operands_are_handled() {
        let a = DenseMatrix::zeros(0, 3);
        let b = DenseMatrix::zeros(3, 2);
        assert_eq!(gemm(&a, &b).unwrap().shape(), (0, 2));
        let sa = CsrMatrix::empty(0, 3);
        assert_eq!(spmm(&sa, &b).unwrap().shape(), (0, 2));
    }

    #[test]
    fn zero_width_output() {
        let a = dense(3, 2, 0);
        let b = DenseMatrix::zeros(2, 0);
        assert_eq!(gemm(&a, &b).unwrap().shape(), (3, 0));
    }
}
