//! Unweighted `(S, h, σ)` source detection (Lenzen & Peleg, PODC 2013) as a
//! CONGEST program.
//!
//! This is the building block of the paper's partial distance estimation:
//! given a source set `S`, a hop horizon `h` and a list size `σ`, every
//! node must learn the `σ` lexicographically smallest `(distance, source)`
//! pairs among sources within `h` hops. The pipelined algorithm solves this
//! in `h + σ` rounds, broadcasting at most one pair per node per round, and
//! (Lemma 3.4 of the PODC 2015 paper) each node broadcasts `O(σ²)`
//! messages in total.
//!
//! The implementation is *delay-aware*: run on a topology whose arcs carry
//! integer delays (the subdivided graphs `G_i` of Section 3), "hop
//! distance" means delay-sum distance, which is exactly the hop distance in
//! the virtual subdivided graph. On unit delays it is the plain unweighted
//! algorithm.
//!
//! # Example
//!
//! ```
//! use congest::{NodeId, Topology};
//! use sourcedetect::{run_detection, DetectParams};
//!
//! # fn main() -> Result<(), congest::TopologyError> {
//! // Path 0-1-2-3; sources {0, 3}.
//! let topo = Topology::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)])?;
//! let sources = vec![true, false, false, true];
//! let out = run_detection(
//!     &topo,
//!     &sources,
//!     &[false; 4],
//!     &DetectParams { h: 3, sigma: 2, msg_cap: None, exact_rounds: false },
//! );
//! assert_eq!(out.lists[1].len(), 2);
//! assert_eq!(out.lists[1][0].src, NodeId(0));
//! assert_eq!(out.lists[1][0].dist, 1);
//! assert_eq!(out.lists[1][1].src, NodeId(3));
//! assert_eq!(out.lists[1][1].dist, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod native;
mod program;
mod reference;
mod runner;

pub use native::{native_detection, native_solve, NativeSolution};
pub use program::{SdEntry, SdMsg, SdProgram, SourceSpace};
pub use reference::delayed_detection_reference;
pub use runner::{run_detection, DetectParams, DetectionOutput};
