//! Deterministic document partitioning for scatter-gather retrieval.
//!
//! Cluster mode replicates the corpus on every worker (so collection
//! statistics — idf, avgdl — are global and scores stay bit-identical to
//! single-node) and splits the *computation*: each fanout request restricts
//! scoring to the documents owned by one partition. Ownership is a pure
//! function of the [`DocId`] — a SplitMix64-style mix reduced modulo the
//! partition count — so routers and workers agree on it with no shared
//! state, and the partitions of `0..count` exactly cover the corpus.

use crate::doc::DocId;

/// Which slice of the doc-hash space a request should score.
///
/// `index` must be `< count`; `count == 1` owns everything. The same spec
/// on the same corpus always selects the same documents, on any machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionSpec {
    /// Partition index, `0..count`.
    pub index: u32,
    /// Total partitions the corpus is split into (`>= 1`).
    pub count: u32,
}

impl PartitionSpec {
    /// Build a spec, rejecting `count == 0` and `index >= count`.
    pub fn new(index: u32, count: u32) -> Option<Self> {
        if count == 0 || index >= count {
            return None;
        }
        Some(Self { index, count })
    }

    /// Whether this partition owns `doc`.
    pub fn owns(&self, doc: DocId) -> bool {
        self.count <= 1 || doc_partition(doc, self.count) == self.index
    }
}

/// The partition that owns `doc` when the space is split `count` ways.
///
/// SplitMix64's finalizer scrambles the sequential doc ids so partitions
/// get near-uniform load even on range-correlated corpora; the modulo
/// reduction keeps the function exactly reproducible across platforms.
pub fn doc_partition(doc: DocId, count: u32) -> u32 {
    debug_assert!(count > 0, "partition count must be >= 1");
    if count <= 1 {
        return 0;
    }
    let mut z = (doc.0 as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % count as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_doc_owned_by_exactly_one_partition() {
        for count in 1..=8u32 {
            for d in 0..500u32 {
                let doc = DocId(d);
                let owners: Vec<u32> = (0..count)
                    .filter(|&i| PartitionSpec { index: i, count }.owns(doc))
                    .collect();
                assert_eq!(
                    owners.len(),
                    1,
                    "doc {d} owned by {owners:?} under count {count}"
                );
                assert_eq!(owners[0], doc_partition(doc, count));
            }
        }
    }

    #[test]
    fn partitions_are_reasonably_balanced() {
        let count = 4u32;
        let mut sizes = vec![0usize; count as usize];
        for d in 0..4000u32 {
            sizes[doc_partition(DocId(d), count) as usize] += 1;
        }
        for (i, &s) in sizes.iter().enumerate() {
            assert!(
                (700..=1300).contains(&s),
                "partition {i} holds {s} of 4000 docs — hash is skewed"
            );
        }
    }

    #[test]
    fn single_partition_owns_everything() {
        let spec = PartitionSpec::new(0, 1).unwrap();
        for d in 0..64 {
            assert!(spec.owns(DocId(d)));
        }
    }

    #[test]
    fn new_rejects_degenerate_specs() {
        assert!(PartitionSpec::new(0, 0).is_none());
        assert!(PartitionSpec::new(3, 3).is_none());
        assert!(PartitionSpec::new(7, 8).is_some());
    }
}
