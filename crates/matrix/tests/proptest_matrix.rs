//! Property-based tests for the matrix substrate.

use proptest::prelude::*;

use omega_matrix::ops::{gemm, spmm};
use omega_matrix::{CooMatrix, CsrMatrix, DenseMatrix, Elem};

/// Strategy: a small dense matrix with integer-valued entries so that float
/// accumulation is exact and results can be compared with `==` across
/// different summation orders.
fn dense_mat(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-4i8..=4, rows * cols)
        .prop_map(move |v| {
            DenseMatrix::from_vec(rows, cols, v.into_iter().map(|x| x as Elem).collect()).unwrap()
        })
}

/// Strategy: a sparse matrix as a boolean mask + values.
fn sparse_mat(rows: usize, cols: usize) -> impl Strategy<Value = CsrMatrix> {
    proptest::collection::vec((0..rows, 0..cols, 1i8..=3), 0..(rows * cols).max(1)).prop_map(
        move |triplets| {
            let mut coo = CooMatrix::new(rows, cols);
            for (r, c, v) in triplets {
                coo.push(r, c, v as Elem).unwrap();
            }
            coo.to_csr()
        },
    )
}

proptest! {
    #[test]
    fn csr_round_trip_preserves_dense((rows, cols) in (1usize..12, 1usize..12), seed in 0u8..8) {
        let mut coo = CooMatrix::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if (i * 7 + j * 3 + seed as usize).is_multiple_of(4) {
                    coo.push(i, j, (i + j) as Elem + 1.0).unwrap();
                }
            }
        }
        let csr = coo.to_csr();
        prop_assert_eq!(csr.to_dense(), coo.to_dense());
        // Structural invariants.
        prop_assert!(csr.row_ptr().windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*csr.row_ptr().last().unwrap() as usize, csr.nnz());
        for r in 0..rows {
            let rc = csr.row_cols(r);
            prop_assert!(rc.windows(2).all(|w| w[0] < w[1]), "row columns sorted & unique");
        }
    }

    #[test]
    fn transpose_involution(a in sparse_mat(9, 7)) {
        prop_assert_eq!(a.transpose().transpose().to_dense(), a.to_dense());
        prop_assert_eq!(a.transpose().nnz(), a.nnz());
    }

    #[test]
    fn gemm_associates_with_identity(a in dense_mat(5, 4)) {
        let i = DenseMatrix::identity(4);
        prop_assert_eq!(gemm(&a, &i).unwrap(), a);
    }

    #[test]
    fn spmm_matches_densified_gemm(a in sparse_mat(8, 6), b in dense_mat(6, 5)) {
        let via_spmm = spmm(&a, &b).unwrap();
        let via_gemm = gemm(&a.to_dense(), &b).unwrap();
        prop_assert_eq!(via_spmm, via_gemm);
    }

    #[test]
    fn gemm_distributes_over_matrix_sum(a in dense_mat(4, 3), b in dense_mat(3, 4), c in dense_mat(3, 4)) {
        // (A·B) + (A·C) == A·(B + C) — exact for integer-valued entries.
        let bc = DenseMatrix::from_fn(3, 4, |i, j| b.get(i, j) + c.get(i, j));
        let lhs_b = gemm(&a, &b).unwrap();
        let lhs_c = gemm(&a, &c).unwrap();
        let sum = DenseMatrix::from_fn(4, 4, |i, j| lhs_b.get(i, j) + lhs_c.get(i, j));
        prop_assert_eq!(gemm(&a, &bc).unwrap(), sum);
    }

    #[test]
    fn sparsity_bounds(a in sparse_mat(6, 6)) {
        let s = a.sparsity();
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!(a.max_degree() <= a.cols());
        let degs = a.degrees();
        prop_assert_eq!(degs.iter().sum::<usize>(), a.nnz());
    }
}
