//! Dense and sparse matrix substrate for the OMEGA framework.
//!
//! GNN inference is dominated by two matrix kernels (paper, Section II-A):
//!
//! * **Aggregation** — `H = A · X0`, an SpMM where `A` is the (extremely sparse)
//!   graph adjacency matrix in CSR form and `X0` is the dense feature matrix.
//! * **Combination** — `X1 = H · W`, a dense GEMM with the layer weights `W`.
//!
//! This crate provides the data structures for both operands ([`DenseMatrix`],
//! [`CsrMatrix`], [`CooMatrix`]) and *reference* kernels ([`ops`]) that act as
//! functional ground truth for the accelerator engines in `omega-accel`: whatever
//! dataflow the simulator walks, its functional output must match these kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod csr;
mod dense;
mod error;
pub mod ops;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::{MatrixError, Result};

/// Scalar element type used throughout the framework.
///
/// GNN inference accelerators in the paper operate on single-precision floats;
/// keeping this as an alias makes the choice explicit and greppable.
pub type Elem = f32;
