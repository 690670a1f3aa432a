//! Boolean tensor and matrix algebra for DBTF.
//!
//! This crate implements everything in Section II (*Preliminaries*) of
//! *Fast and Scalable Distributed Boolean Tensor Factorization* (Park, Oh,
//! Kang — ICDE 2017):
//!
//! - [`BitVec`] and [`BitMatrix`]: bit-packed binary vectors and matrices
//!   over `B = {0, 1}` with Boolean sum (`∨`), pointwise product (`∧`) and
//!   XOR-popcount distances.
//! - [`BoolTensor`]: a sparse three-way binary tensor.
//! - [`Unfolding`]: the mode-*n* matricization `X_(n)` of a tensor
//!   (Equation 1 of the paper), stored sparsely as one CSR array of sorted
//!   rows — the layout the DBTF algorithm partitions across machines.
//! - [`ops`]: Boolean matrix product (Eq. 6), Kronecker product (Eq. 2),
//!   Khatri-Rao product (Eq. 3) and the pointwise vector-matrix product
//!   (Eq. 4).
//! - [`reconstruct`]: rank-R Boolean CP reconstruction
//!   `X̃ = ⊕_r a_r ∘ b_r ∘ c_r` (Eq. 10) and the reconstruction error
//!   `|X ⊕ X̃|` used throughout the paper's Section IV-D.
//! - [`UnfoldingStore`]: the row-access abstraction both the heap
//!   [`Unfolding`] and the on-disk [`MmapUnfolding`] implement, plus the
//!   [`columnar`] `DBTFUNFD` file format and the [`stream`] bounded-memory
//!   COO → unfolding external sort that feeds it.
//!
//! # Conventions
//!
//! All indices are 0-based (the paper uses 1-based indices). A three-way
//! tensor has shape `I × J × K`; mode-1 fibers are columns, mode-2 fibers are
//! rows and mode-3 fibers are tubes. The mode-n matricization maps entry
//! `(i, j, k)` to:
//!
//! | mode | row | column        |
//! |------|-----|---------------|
//! | 1    | `i` | `j + k * J`   |
//! | 2    | `j` | `i + k * I`   |
//! | 3    | `k` | `i + j * I`   |
//!
//! which is the 0-based form of Equation 1.
//!
//! # Quick example
//!
//! ```
//! use dbtf_tensor::{BoolTensor, BitMatrix, reconstruct};
//!
//! // A rank-1 tensor: a ∘ b ∘ c with a = [1,1], b = [1,0,1], c = [0,1].
//! let a = BitMatrix::from_rows(2, 1, &[&[0usize][..], &[0][..]]);
//! let b = BitMatrix::from_rows(3, 1, &[&[0usize][..], &[][..], &[0][..]]);
//! let c = BitMatrix::from_rows(2, 1, &[&[][..], &[0usize][..]]);
//! let x = reconstruct::reconstruct(&a, &b, &c);
//! assert_eq!(x.nnz(), 4); // 2 * 2 * 1 ones
//! assert_eq!(reconstruct::reconstruction_error(&x, &a, &b, &c), 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bitmatrix;
mod bitvec;
pub mod columnar;
mod delta;
pub mod io;
pub mod matrix_io;
pub mod mmap_sys;
pub mod ops;
pub mod reconstruct;
mod store;
pub mod stream;
mod tensor;
mod unfold;
mod wire_impls;

pub use bitmatrix::BitMatrix;
pub use bitvec::BitVec;
pub use columnar::{MmapUnfolding, UnfoldingHeader, UnfoldingWriter};
pub use delta::{DeltaCell, OverlayUnfolding, TensorDelta};
pub use store::{StoreError, UnfoldingStore};
pub use tensor::{BoolTensor, TensorBuilder};
pub use unfold::{Mode, Unfolding};
pub use wire_impls::{ColumnDecision, FactorTriple};

/// The number of bits in one storage word of [`BitVec`] / [`BitMatrix`].
pub const WORD_BITS: usize = 64;
