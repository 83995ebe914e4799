//! Compressed sparse column (CSC) encoding for PE-local sparse execution.
//!
//! Eyeriss v1 exploits sparsity twice — zero-gating the datapath
//! (Section V-E) and run-length compressing DRAM traffic ([`crate::rlc`])
//! — but every zero still occupies a scratchpad slot and a datapath
//! cycle's worth of inspection. Eyeriss v2 goes further: activations and
//! weights are *stored* compressed (a data vector plus a count/address
//! vector, its CSC format) and the PE iterates nonzeros directly, so zero
//! MACs are never even issued. This module provides the row codec and the
//! storage accounting; the PE-side iteration lives in
//! [`Pe::run_primitive_csc`](crate::pe::Pe::run_primitive_csc). A CSC chip
//! run needs only each row's nonzero count ([`row_nnz`]): its psums equal
//! the dense kernel's, and its counters are closed forms of the count.
//!
//! The encoder writes into caller-owned buffers, so a caller that reuses
//! them encodes allocation-free, exactly like the RLC codec it sits
//! beside.

use eyeriss_nn::{Fix16, Tensor4};

/// Nonzero count of `row`.
pub fn row_nnz(row: &[Fix16]) -> usize {
    row.iter().filter(|v| !v.is_zero()).count()
}

/// CSC storage accounting over every innermost row of `t` — the
/// granularity the PE consumes (one CSC vector per `(i0, i1, i2)` row).
/// Used to price DRAM traffic for tensors the chip stores compressed.
pub fn tensor_stats(t: &Tensor4<Fix16>) -> CscStats {
    let [d0, d1, d2, _] = t.dims();
    let mut cs = CscStats::default();
    for i0 in 0..d0 {
        for i1 in 0..d1 {
            for i2 in 0..d2 {
                let row = t.row(i0, i1, i2);
                cs.add_row(row.len(), row_nnz(row));
            }
        }
    }
    cs
}

/// Encodes one row into CSC form: `values[i]` is the i-th nonzero and
/// `indices[i]` its position in the dense row. Both buffers are cleared
/// first and only grow on the largest row ever seen (arena reuse).
///
/// # Panics
///
/// Panics if the row is longer than `u16::MAX` positions (layer
/// dimensions are bounded far below that).
pub fn encode_row_into(row: &[Fix16], values: &mut Vec<Fix16>, indices: &mut Vec<u16>) {
    assert!(
        row.len() <= u16::MAX as usize,
        "row too long for u16 indices"
    );
    values.clear();
    indices.clear();
    for (j, v) in row.iter().enumerate() {
        if !v.is_zero() {
            values.push(*v);
            indices.push(j as u16);
        }
    }
}

/// 16-bit words a CSC-encoded row occupies: one data word per nonzero,
/// 4-bit position counts packed four to a word, and one address word
/// anchoring the row in the combined vector (the v2 storage layout).
pub fn storage_words(nnz: usize) -> usize {
    nnz + nnz.div_ceil(4) + 1
}

/// Storage accounting of one layer's tensors under CSC: dense words vs.
/// encoded words, for the ifmap and filter data a run touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CscStats {
    /// Dense storage of the encoded tensors, in 16-bit words.
    pub dense_words: u64,
    /// CSC storage of the same tensors, in 16-bit words.
    pub sparse_words: u64,
}

impl CscStats {
    /// Adds one row of `len` dense words with `nnz` nonzeros.
    pub fn add_row(&mut self, len: usize, nnz: usize) {
        self.dense_words += len as u64;
        self.sparse_words += storage_words(nnz) as u64;
    }

    /// Merges another accounting into this one.
    pub fn merge(&mut self, other: &CscStats) {
        self.dense_words += other.dense_words;
        self.sparse_words += other.sparse_words;
    }

    /// Dense / sparse storage ratio (1.0 when nothing was encoded; below
    /// 1.0 means the data was too dense for CSC to pay off).
    pub fn compression_ratio(&self) -> f64 {
        if self.sparse_words == 0 {
            1.0
        } else {
            self.dense_words as f64 / self.sparse_words as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f32) -> Fix16 {
        Fix16::from_f32(v)
    }

    #[test]
    fn encode_keeps_only_nonzeros() {
        let row = [
            f(1.0),
            Fix16::ZERO,
            f(-2.0),
            Fix16::ZERO,
            Fix16::ZERO,
            f(0.5),
        ];
        let (mut vals, mut idxs) = (Vec::new(), Vec::new());
        encode_row_into(&row, &mut vals, &mut idxs);
        assert_eq!(vals, vec![f(1.0), f(-2.0), f(0.5)]);
        assert_eq!(idxs, vec![0, 2, 5]);
        assert_eq!(row_nnz(&row), 3);
        // Reuse clears the previous contents.
        encode_row_into(&[Fix16::ZERO; 4], &mut vals, &mut idxs);
        assert!(vals.is_empty() && idxs.is_empty());
    }

    #[test]
    fn storage_counts_data_counts_and_address() {
        assert_eq!(storage_words(0), 1); // empty row still needs its address
        assert_eq!(storage_words(4), 4 + 1 + 1);
        assert_eq!(storage_words(5), 5 + 2 + 1);
    }

    #[test]
    fn stats_ratio_rewards_sparsity() {
        let mut s = CscStats::default();
        s.add_row(32, 4);
        s.add_row(32, 0);
        assert_eq!(s.dense_words, 64);
        assert_eq!(s.sparse_words, (4 + 1 + 1) + 1);
        assert!(s.compression_ratio() > 5.0);
        let mut t = CscStats::default();
        t.merge(&s);
        assert_eq!(t, s);
        assert_eq!(CscStats::default().compression_ratio(), 1.0);
    }
}
