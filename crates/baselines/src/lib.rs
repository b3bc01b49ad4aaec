//! The comparison protocols from the paper's evaluation (Section 5).
//!
//! * [`pbm::PbmRouter`] — Position Based Multicasting \[21\]: per hop,
//!   chooses the neighbor subset minimizing a λ-weighted tradeoff between
//!   bandwidth (subset size) and progress (remaining distance); void
//!   destinations immediately enter perimeter mode.
//! * [`lgs::LgsRouter`] — Location-Guided Steiner tree \[5\]: partitions
//!   destinations with an MST over `{current node} ∪ destinations` and
//!   unicasts each group toward its subtree-root destination; has no void
//!   recovery (the paper's Fig. 15 exploits exactly that).
//! * [`lgk::LgkRouter`] — Location-Guided K-ary tree \[5\]: the sibling LGT
//!   scheme; picks the `k` nearest destinations as subtree roots.
//! * [`grd::GrdRouter`] — independent greedy (GPSR) unicast per
//!   destination: minimizes per-destination hops, serving as the paper's
//!   lower bound in Fig. 12.
//! * [`dsm::DsmRouter`] — Dynamic Source Multicast \[6\]: the source
//!   freezes a Euclidean MST over the members and embeds it in the packet
//!   (related-work baseline, Section 1).
//! * [`smt::SmtRouter`] — the centralized Steiner heuristic \[16\]: the
//!   source knows the whole topology, computes a KMB tree, and embeds the
//!   explicit routing tree in the packet.
//! * [`mcfr::McfrRouter`] — concurrent face routing multicast
//!   (arXiv:1706.05263): guaranteed delivery via racing left/right FACE-1
//!   traversals per stalled destination.
//! * [`gvg::GvgRouter`] — greedy multicast with GVG-style void traversal
//!   (arXiv:0803.3632): guaranteed delivery via a single FACE-1 agent.
//!
//! All of them implement [`gmp_sim::Protocol`], so experiments treat them
//! and GMP uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dsm;
pub(crate) mod facecore;
pub mod grd;
pub mod gvg;
pub mod lgk;
pub mod lgs;
pub mod mcfr;
pub mod pbm;
pub mod smt;

pub use dsm::DsmRouter;
pub use grd::GrdRouter;
pub use gvg::GvgRouter;
pub use lgk::LgkRouter;
pub use lgs::LgsRouter;
pub use mcfr::McfrRouter;
pub use pbm::{PbmConfig, PbmRouter};
pub use smt::SmtRouter;
