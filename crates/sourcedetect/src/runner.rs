//! Driver for a detection run.

use crate::program::{SdEntry, SdProgram, SourceSpace};
use congest::{Config, Metrics, Runtime, Topology};
use std::sync::Arc;

/// Parameters of an `(S, h, σ)`-detection run.
#[derive(Clone, Debug)]
pub struct DetectParams {
    /// Hop horizon `h` (in delay-hops of the given topology).
    pub h: u64,
    /// List size σ.
    pub sigma: usize,
    /// Optional per-node message cap (Lemma 3.4 allows `O(σ²)`).
    pub msg_cap: Option<u64>,
    /// Run exactly `h + σ + 1` rounds (the theoretical budget) instead of
    /// stopping at quiescence. Used when validating the round bound.
    pub exact_rounds: bool,
}

/// Result of a detection run.
#[derive(Debug)]
pub struct DetectionOutput {
    /// Per-node top-σ lists, sorted lexicographically.
    pub lists: Vec<Vec<SdEntry>>,
    /// Per-node broadcast counts (for the Lemma 3.4 experiment).
    pub msgs_per_node: Vec<u64>,
    /// Simulator metrics.
    pub metrics: Metrics,
}

/// Runs `(S, h, σ)`-detection on `topo`.
///
/// `sources[v]` marks membership in `S`; `tags[v]` is the auxiliary bit
/// attached to `v`'s announcements (e.g. "also in `S_{l+1}`").
///
/// The round budget is the theoretical `h + σ + 1` (one extra round for the
/// round-0 initialization); by default the run stops earlier at
/// quiescence.
///
/// # Panics
///
/// Panics if the flag slices don't have one entry per node.
pub fn run_detection(
    topo: &Topology,
    sources: &[bool],
    tags: &[bool],
    params: &DetectParams,
) -> DetectionOutput {
    assert_eq!(sources.len(), topo.len(), "one source flag per node");
    assert_eq!(tags.len(), topo.len(), "one tag flag per node");

    let space = Arc::new(SourceSpace::new(sources, tags));
    let programs: Vec<SdProgram> = topo
        .nodes()
        .map(|v| {
            let src = sources[v.index()].then_some(tags[v.index()]);
            SdProgram::new(
                Arc::clone(&space),
                src,
                params.h,
                params.sigma,
                params.msg_cap,
            )
        })
        .collect();

    let budget = params.h + params.sigma as u64 + 1;
    let cfg = if params.exact_rounds {
        Config::exact_rounds(budget)
    } else {
        Config::up_to_rounds(budget)
    };
    let mut rt = Runtime::new(topo, programs, cfg);
    rt.run();
    let (programs, metrics) = rt.into_parts();

    DetectionOutput {
        lists: programs.iter().map(SdProgram::list).collect(),
        msgs_per_node: programs.iter().map(SdProgram::msgs_sent).collect(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::delayed_detection_reference;
    use congest::NodeId;

    fn params(h: u64, sigma: usize) -> DetectParams {
        DetectParams {
            h,
            sigma,
            msg_cap: None,
            exact_rounds: false,
        }
    }

    fn check_against_reference(topo: &Topology, sources: &[bool], h: u64, sigma: usize) {
        let out = run_detection(topo, sources, &vec![false; topo.len()], &params(h, sigma));
        let reference = delayed_detection_reference(topo, sources, h, sigma);
        for v in topo.nodes() {
            let got: Vec<(u64, NodeId)> = out.lists[v.index()]
                .iter()
                .map(|e| (e.dist, e.src))
                .collect();
            assert_eq!(
                got,
                reference[v.index()],
                "node {v} list mismatch (h={h}, sigma={sigma})"
            );
        }
    }

    #[test]
    fn path_all_horizons() {
        let topo =
            Topology::from_edges(6, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)])
                .unwrap();
        let sources = [true, false, true, false, false, true];
        for h in 1..=6 {
            for sigma in 1..=3 {
                check_against_reference(&topo, &sources, h, sigma);
            }
        }
    }

    #[test]
    fn grid_with_delays() {
        // 3x3 grid with mixed delays.
        let mut edges = Vec::new();
        let id = |r: u32, c: u32| r * 3 + c;
        for r in 0..3u32 {
            for c in 0..3u32 {
                if c + 1 < 3 {
                    edges.push((id(r, c), id(r, c + 1), 1 + u64::from(r)));
                }
                if r + 1 < 3 {
                    edges.push((id(r, c), id(r + 1, c), 2));
                }
            }
        }
        let topo = Topology::from_edges(9, &edges).unwrap().with_delays(|w| w);
        let sources = [true, false, false, false, true, false, false, false, true];
        for h in [2, 4, 8] {
            for sigma in [1, 2, 3] {
                check_against_reference(&topo, &sources, h, sigma);
            }
        }
    }

    #[test]
    fn finishes_within_theory_budget() {
        // Theorem ([10]): h + σ rounds suffice. Run with the exact budget
        // and verify correctness anyway (quiescence may come earlier).
        let topo = Topology::from_edges(
            8,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 6, 1),
                (6, 7, 1),
                (0, 7, 1),
            ],
        )
        .unwrap();
        let sources = [true, true, true, true, false, false, false, false];
        let h = 8;
        let sigma = 4;
        let out = run_detection(
            &topo,
            &sources,
            &[false; 8],
            &DetectParams {
                h,
                sigma,
                msg_cap: None,
                exact_rounds: true,
            },
        );
        let reference = delayed_detection_reference(&topo, &sources, h, sigma);
        for v in topo.nodes() {
            let got: Vec<(u64, NodeId)> = out.lists[v.index()]
                .iter()
                .map(|e| (e.dist, e.src))
                .collect();
            assert_eq!(got, reference[v.index()]);
        }
        assert_eq!(out.metrics.rounds, h + sigma as u64 + 1);
    }

    #[test]
    fn tags_are_carried() {
        let topo = Topology::from_edges(3, &[(0, 1, 1), (1, 2, 1)]).unwrap();
        let out = run_detection(
            &topo,
            &[true, false, true],
            &[true, false, false],
            &params(5, 5),
        );
        let l1 = &out.lists[1];
        assert_eq!(l1.len(), 2);
        let tag_of = |src: u32| l1.iter().find(|e| e.src == NodeId(src)).unwrap().tag;
        assert!(tag_of(0));
        assert!(!tag_of(2));
    }

    #[test]
    fn message_cap_limits_broadcasts() {
        let topo = Topology::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]).unwrap();
        let sources = [true, true, true, true, true];
        let capped = run_detection(
            &topo,
            &sources,
            &[false; 5],
            &DetectParams {
                h: 5,
                sigma: 5,
                msg_cap: Some(2),
                exact_rounds: false,
            },
        );
        assert!(capped.msgs_per_node.iter().all(|&m| m <= 2));
    }
}
