//! Block-compressed posting lists — the index's only posting storage.
//!
//! Postings are stored as fixed-size blocks (128 postings by default) of
//! delta-encoded document ids bit-packed to the block's maximum gap width,
//! with term frequencies packed alongside at the block's maximum tf width.
//! Each block header records its document-id range and its position in the
//! list, so a reader can stop after any block without decoding the rest.
//!
//! Encoding, per block of `count` postings:
//!
//! * the first document id is stored raw in the block header;
//! * the remaining `count - 1` ids are stored as `gap - 1` (gaps between
//!   strictly ascending ids are ≥ 1, so dense runs pack to 0 bits), at the
//!   width of the block's largest encoded gap;
//! * term frequencies are stored as `tf - 1` (postings always have `tf ≥ 1`)
//!   at the width of the block's largest encoded tf.
//!
//! Both payloads are bit-packed little-endian into one shared `u64` word
//! buffer, each starting on a word boundary so a block decodes without
//! knowing its predecessors. The buffer ends with one padding word so the
//! decoder's two-word window read never branches on the tail.
//!
//! Decoding is structure-of-arrays: document ids and term frequencies land
//! in separate `u32` arrays via a branch-free unpack loop (a `u128` window
//! shift per value, no per-value conditionals), which rustc autovectorizes,
//! followed by a prefix sum over the gaps.

use crate::doc::DocId;
use crate::index::Posting;

/// Default number of postings per block.
pub const DEFAULT_BLOCK_SIZE: usize = 128;

/// Per-block header: the block's document-id range and where its payload
/// lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMeta {
    /// First document id in the block (stored raw, not delta-encoded).
    pub first_doc: u32,
    /// Last (largest) document id in the block.
    pub last_doc: u32,
    /// Number of postings in the block (only the final block may be short).
    pub count: u32,
    /// Index of the block's first posting within the whole list.
    pub start: u32,
    /// Width in bits of each encoded doc-id gap.
    doc_bits: u8,
    /// Width in bits of each encoded tf.
    tf_bits: u8,
    /// Word offset of the gap payload.
    doc_word: u32,
    /// Word offset of the tf payload.
    tf_word: u32,
}

/// One term's postings, block-compressed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompressedPostings {
    len: usize,
    words: Vec<u64>,
    blocks: Vec<BlockMeta>,
}

/// Bits needed to represent `v` (0 for `v == 0`).
fn width_of(v: u32) -> u8 {
    (32 - v.leading_zeros()) as u8
}

/// Append `values`, each `width` bits wide, little-endian into `words`.
fn pack(values: impl Iterator<Item = u32>, width: u8, words: &mut Vec<u64>) {
    if width == 0 {
        return;
    }
    let width = width as u32;
    let mut acc = 0u64;
    let mut used = 0u32;
    for v in values {
        acc |= (v as u64) << used;
        if used + width >= 64 {
            words.push(acc);
            acc = if used + width > 64 {
                (v as u64) >> (64 - used)
            } else {
                0
            };
        }
        used = (used + width) % 64;
    }
    if used > 0 {
        words.push(acc);
    }
}

/// Unpack `out.len()` values of `width` bits starting at word `start`.
///
/// The inner loop is branch-free: every value is read through a two-word
/// `u128` window (the buffer's trailing padding word keeps `words[w + 1]`
/// in bounds), shifted, and masked.
fn unpack(words: &[u64], start: usize, width: u8, out: &mut [u32]) {
    if width == 0 {
        out.fill(0);
        return;
    }
    let width = width as u64;
    let mask = (1u64 << width) - 1;
    for (i, slot) in out.iter_mut().enumerate() {
        let bit = i as u64 * width;
        let w = start + (bit >> 6) as usize;
        let shift = (bit & 63) as u32;
        let window = (words[w] as u128) | ((words[w + 1] as u128) << 64);
        *slot = (((window >> shift) as u64) & mask) as u32;
    }
}

impl CompressedPostings {
    /// Compress `list` (strictly ascending doc ids, every `tf ≥ 1`) into
    /// blocks of `block_size` postings.
    pub fn compress(list: &[Posting], block_size: usize) -> Self {
        let block_size = block_size.max(1);
        let mut words = Vec::new();
        let mut blocks = Vec::with_capacity(list.len().div_ceil(block_size));
        for (b, chunk) in list.chunks(block_size).enumerate() {
            debug_assert!(chunk.iter().all(|p| p.tf >= 1));
            debug_assert!(chunk.windows(2).all(|w| w[0].doc < w[1].doc));
            let gaps = || chunk.windows(2).map(|w| w[1].doc.0 - w[0].doc.0 - 1);
            let doc_bits = width_of(gaps().max().unwrap_or(0));
            let tf_bits = width_of(chunk.iter().map(|p| p.tf - 1).max().unwrap_or(0));
            let doc_word = words.len() as u32;
            pack(gaps(), doc_bits, &mut words);
            let tf_word = words.len() as u32;
            pack(chunk.iter().map(|p| p.tf - 1), tf_bits, &mut words);
            blocks.push(BlockMeta {
                first_doc: chunk[0].doc.0,
                last_doc: chunk[chunk.len() - 1].doc.0,
                count: chunk.len() as u32,
                start: (b * block_size) as u32,
                doc_bits,
                tf_bits,
                doc_word,
                tf_word,
            });
        }
        // Padding word: the decoder's two-word window may read one word past
        // the last payload word.
        words.push(0);
        Self {
            len: list.len(),
            words,
            blocks,
        }
    }

    /// Total number of postings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The per-block skip metadata, in list order.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Decode block `b`'s document ids into `docs` (cleared and refilled).
    pub fn decode_block_docs(&self, b: usize, docs: &mut Vec<u32>) {
        let m = &self.blocks[b];
        let n = m.count as usize;
        docs.clear();
        docs.resize(n, 0);
        unpack(&self.words, m.doc_word as usize, m.doc_bits, &mut docs[1..]);
        docs[0] = m.first_doc;
        let mut prev = m.first_doc;
        for slot in &mut docs[1..] {
            prev = prev + *slot + 1;
            *slot = prev;
        }
    }

    /// Decode block `b` fully: document ids into `docs`, term frequencies
    /// into `tfs` (both cleared and refilled, structure-of-arrays).
    pub fn decode_block(&self, b: usize, docs: &mut Vec<u32>, tfs: &mut Vec<u32>) {
        self.decode_block_docs(b, docs);
        let m = &self.blocks[b];
        let n = m.count as usize;
        tfs.clear();
        tfs.resize(n, 0);
        unpack(&self.words, m.tf_word as usize, m.tf_bits, tfs);
        for tf in tfs.iter_mut() {
            *tf += 1;
        }
    }

    /// Stream the whole list as `Posting`s, decoding one block at a time —
    /// the round-trip inverse of [`CompressedPostings::compress`].
    pub fn iter(&self) -> impl Iterator<Item = Posting> + '_ {
        let (mut block, mut at, mut docs, mut tfs) = (0, 0, Vec::new(), Vec::new());
        std::iter::from_fn(move || {
            if at == docs.len() {
                if block == self.blocks.len() {
                    return None;
                }
                self.decode_block(block, &mut docs, &mut tfs);
                (block, at) = (block + 1, 0);
            }
            at += 1;
            Some(Posting {
                doc: DocId(docs[at - 1]),
                tf: tfs[at - 1],
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(list: &[Posting], block_size: usize) {
        let c = CompressedPostings::compress(list, block_size);
        assert_eq!(c.len(), list.len());
        assert_eq!(c.iter().collect::<Vec<_>>(), list);
    }

    fn postings(pairs: &[(u32, u32)]) -> Vec<Posting> {
        pairs
            .iter()
            .map(|&(d, tf)| Posting { doc: DocId(d), tf })
            .collect()
    }

    #[test]
    fn empty_list() {
        let c = CompressedPostings::compress(&[], 128);
        assert!(c.is_empty());
        assert!(c.blocks().is_empty());
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn dense_run_packs_to_zero_gap_bits() {
        let list = postings(&(0..200).map(|d| (d, 1)).collect::<Vec<_>>());
        roundtrip(&list, 128);
        let c = CompressedPostings::compress(&list, 128);
        // Consecutive ids and tf == 1 everywhere: both widths collapse to 0,
        // leaving only the padding word.
        assert_eq!(c.words.len(), 1);
        assert_eq!(c.blocks().len(), 2);
        assert_eq!(c.blocks()[1].start, 128);
    }

    #[test]
    fn wide_gaps_and_tfs_roundtrip() {
        let list = postings(&[
            (0, 1),
            (1, 7),
            (1_000_000, 1),
            (1_000_001, 300),
            (u32::MAX - 2, 2),
            (u32::MAX - 1, 1),
        ]);
        for bs in [1, 2, 3, 4, 128] {
            roundtrip(&list, bs);
        }
    }

    #[test]
    fn block_boundaries_roundtrip() {
        for n in [127usize, 128, 129, 255, 256, 257] {
            let list = postings(
                &(0..n as u32)
                    .map(|d| (d * 3 + (d % 3), d % 7 + 1))
                    .collect::<Vec<_>>(),
            );
            roundtrip(&list, 128);
        }
    }

    #[test]
    fn metadata_tracks_block_extremes() {
        let list = postings(&[(2, 5), (9, 1), (40, 3), (41, 9)]);
        let c = CompressedPostings::compress(&list, 2);
        assert_eq!(c.blocks().len(), 2);
        let b0 = c.blocks()[0];
        assert_eq!(
            (b0.first_doc, b0.last_doc, b0.count, b0.start),
            (2, 9, 2, 0)
        );
        let b1 = c.blocks()[1];
        assert_eq!((b1.first_doc, b1.last_doc, b1.start), (40, 41, 2));
    }

    #[test]
    fn partial_decode_matches_full_decode() {
        let list = postings(
            &(0..300u32)
                .map(|d| (d * d / 7 + d, (d % 13) + 1))
                .collect::<Vec<_>>(),
        );
        let c = CompressedPostings::compress(&list, 64);
        let mut docs = Vec::new();
        let mut tfs = Vec::new();
        let mut at = 0usize;
        for b in 0..c.blocks().len() {
            c.decode_block(b, &mut docs, &mut tfs);
            assert_eq!(c.blocks()[b].start as usize, at);
            for (i, (&d, &tf)) in docs.iter().zip(tfs.iter()).enumerate() {
                assert_eq!(list[at + i], Posting { doc: DocId(d), tf });
            }
            at += docs.len();
        }
        assert_eq!(at, list.len());
    }

    #[test]
    fn single_posting_blocks() {
        let list = postings(&[(7, 4)]);
        roundtrip(&list, 128);
        let c = CompressedPostings::compress(&list, 128);
        assert_eq!(c.blocks().len(), 1);
        assert_eq!(c.blocks()[0].doc_bits, 0);
    }
}
