//! Centralized reference algorithms (ground truth for the distributed ones).

mod apsp;
mod detection;
mod dijkstra;
mod hops;
mod props;

pub use apsp::{apsp, apsp_with_first_hops, sssp_with_first_hops, Apsp};
pub use detection::{detection_reference, DetectionList};
pub use dijkstra::{dijkstra, Sssp, DIAL_WEIGHT_LIMIT};
pub use hops::hop_limited_distances;
pub use props::{hop_diameter, shortest_path_diameter};
