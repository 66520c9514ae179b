#![warn(missing_docs)]

//! # pf-kcmatrix — the co-kernel cube matrix and rectangle covering
//!
//! The optimization core of algebraic factorization, after Brayton–Rudell
//! ("Multi-level logic optimization and the rectangular covering
//! problem", ICCAD'87) as used by the paper:
//!
//! * a [`registry::CubeRegistry`] interning every network cube that
//!   appears in the matrix, and a [`registry::CubeStates`] table holding
//!   the shared FREE / COVERED / DIVIDED state of each cube with its
//!   `value` / `trueval` / `owner` attributes (paper Table 5) —
//!   implemented lock-free over one atomic word per cube;
//! * the sparse [`matrix::KcMatrix`] with rows labeled by
//!   (node, co-kernel) and columns by kernel cube, using the paper's
//!   processor-offset labeling scheme (§5.2) so concurrently generated
//!   rows and columns get consistent identities on every processor;
//! * exact best-rectangle search by branch-and-bound over prime column
//!   sets ordered by leftmost column — the exact ordering Algorithm R
//!   (§3) distributes across processors — with an admissible pruning
//!   bound and a visit budget that falls back to a per-row greedy sweep
//!   on pathological matrices. One resident [`pool::SearchPool`] runs
//!   it: [`SearchPool::find`] returns the canonical top-K, identical for
//!   any worker count, over a column-major tile panel ([`tiles`]) and
//!   per-column ceilings it keeps in sync across passes. The rectangle
//!   value and the search options live in [`rectangle`]; an unpruned
//!   enumeration survives as the [`mod@reference`] oracle.

pub mod conflict;
pub mod cube_matrix;
pub mod digest;
pub mod matrix;
pub mod pool;
pub mod rectangle;
pub mod reference;
pub mod registry;
pub mod rowset;
pub mod tiles;
mod worker;

pub use conflict::{conflicts, select_nonconflicting, select_prefix_nonconflicting};
pub use cube_matrix::{CommonCube, CubeLitMatrix};
pub use digest::{cube_digest, network_digest, sop_digest, Digest, DigestBuilder};
pub use matrix::{ColIdx, KcCol, KcMatrix, KcRow, LabelGen, RowIdx};
pub use pool::{CeilingSnapshot, CeilingUpdate, SearchPool};
pub use rectangle::{canonical_top_k, revalidate_rectangle, Rectangle, SearchConfig, SearchStats};
pub use registry::{CubeId, CubeRegistry, CubeState, CubeStates, ProcId};
pub use rowset::RowSet;
pub use tiles::{TilePanels, TiledSupport};
