#![warn(missing_docs)]

//! # pf-sop — cube and sum-of-products algebra
//!
//! The algebraic (as opposed to Boolean) view of logic used by MIS/SIS
//! style factorization, reimplemented from scratch for the reproduction of
//! Roy & Banerjee, *A Comparison of Parallel Approaches for Algebraic
//! Factorization in Logic Synthesis* (IPPS 1997).
//!
//! In the algebraic model a [`Lit`] (a variable or its negation) is an
//! opaque atom: `x` and `x̄` are unrelated symbols, products may not
//! contain both, and no Boolean simplification (`x + x̄ = 1`) is applied.
//! A [`Cube`] is a set of literals (a product term), a [`Sop`] is a set of
//! cubes (a sum of products). On top of these the crate provides
//!
//! * algebraic (weak) division — [`divide()`],
//! * the cube-free test and the largest common cube,
//! * kernel / co-kernel enumeration — [`kernels`], the classic recursive
//!   `KERNEL` procedure of Brayton–Rudell,
//! * a fast, deterministic hash map ([`fx::FxHashMap`]) used by the hot
//!   paths of the factorization engine.
//!
//! All structures are ordered canonically so equal objects compare equal,
//! hash equal and print identically — a property the parallel algorithms
//! in `pf-core` rely on when matching kernel cubes across processors.

pub mod cube;
pub mod divide;
pub mod expr;
pub mod factor;
pub mod fx;
pub mod kernel;
pub mod lit;
pub mod minimize;

pub use cube::Cube;
pub use divide::{divide, divide_by_cube};
pub use expr::Sop;
pub use factor::{quick_factor, Factored};
pub use kernel::{kernels, kernels_with_trivial, CoKernelPair, KernelConfig};
pub use lit::{Lit, Var};
pub use minimize::{eval_sop, simplify_sop};
