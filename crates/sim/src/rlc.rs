//! Run-length compression (RLC) of sparse activation data (Section V-E).
//!
//! The Eyeriss chip compresses DRAM traffic by encoding runs of zeros:
//! each 64-bit word packs three (5-bit run, 16-bit level) pairs plus a
//! continuation flag in the LSB. ReLU layers make activation maps highly
//! sparse, so this "compresses the data to reduce data movement" on top of
//! the dataflow savings.
//!
//! Format per 64-bit word (LSB to MSB):
//! `[flag:1][run0:5][level0:16][run1:5][level1:16][run2:5][level2:16]`;
//! the flag is 1 on the final word and trailing unused pairs in the final
//! word are zero-filled (decode stops at the original length).

use eyeriss_nn::Fix16;

/// Maximum zero-run length per pair (5-bit field).
const MAX_RUN: usize = 31;

/// Encodes a stream of Q8.8 values: packs `(run, level)` pairs into
/// `words` as values arrive, with no intermediate pair buffer. `words`
/// is cleared first (so a caller that reuses it compresses one stream
/// after another in a single allocation) and always ends holding at
/// least the flag word. Returns the number of values consumed.
pub(crate) fn encode_stream(values: impl Iterator<Item = Fix16>, words: &mut Vec<u64>) -> usize {
    words.clear();
    let mut cur: u64 = 0;
    let mut pair_i = 0usize;
    let mut push_pair = |words: &mut Vec<u64>, r: usize, lvl: u16| {
        let shift = 1 + pair_i * 21;
        cur |= ((r as u64) & 0x1f) << shift;
        cur |= (lvl as u64) << (shift + 5);
        pair_i += 1;
        if pair_i == 3 {
            words.push(cur);
            cur = 0;
            pair_i = 0;
        }
    };
    let mut run = 0usize;
    let mut len = 0usize;
    for v in values {
        len += 1;
        if v.is_zero() && run < MAX_RUN {
            run += 1;
            continue;
        }
        push_pair(words, run, v.raw() as u16);
        run = 0;
    }
    if run > 0 {
        // Trailing zeros: emit them as a run ending in a zero level.
        push_pair(words, run, 0);
    }
    if pair_i > 0 {
        words.push(cur);
    }
    if words.is_empty() {
        words.push(0);
    }
    *words.last_mut().expect("non-empty") |= 1; // final-word flag
    len
}

/// Compression ratio of a packed stream: original bits / compressed
/// bits, 1.0 for an empty word buffer.
pub(crate) fn ratio_of(original_len: usize, words: &[u64]) -> f64 {
    if words.is_empty() {
        return 1.0;
    }
    (original_len as f64 * 16.0) / (words.len() as f64 * 64.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A packed stream and the number of values it encodes.
    #[derive(Debug)]
    struct Compressed {
        words: Vec<u64>,
        original_len: usize,
    }

    impl Compressed {
        fn ratio(&self) -> f64 {
            ratio_of(self.original_len, &self.words)
        }
    }

    fn encode(values: &[Fix16]) -> Compressed {
        let mut words = Vec::new();
        let original_len = encode_stream(values.iter().copied(), &mut words);
        Compressed {
            words,
            original_len,
        }
    }

    /// The decoder, kept as the oracle that the encoder's words describe
    /// its input losslessly (so the word count the chip prices is the
    /// size of a real encoding).
    ///
    /// # Panics
    ///
    /// Panics if the stream is malformed (decodes past `original_len`
    /// plus a trailing run, or the final flag is missing).
    fn decode(c: &Compressed) -> Vec<Fix16> {
        let mut out = Vec::with_capacity(c.original_len);
        for (wi, w) in c.words.iter().enumerate() {
            let is_last = wi + 1 == c.words.len();
            assert_eq!(w & 1 == 1, is_last, "final-word flag misplaced");
            for i in 0..3 {
                if out.len() >= c.original_len {
                    break;
                }
                let shift = 1 + i * 21;
                let run = ((w >> shift) & 0x1f) as usize;
                let level = ((w >> (shift + 5)) & 0xffff) as u16;
                for _ in 0..run {
                    out.push(Fix16::ZERO);
                }
                if out.len() < c.original_len {
                    out.push(Fix16::from_raw(level as i16));
                }
            }
        }
        // A final zero run may be encoded implicitly.
        while out.len() < c.original_len {
            out.push(Fix16::ZERO);
        }
        assert_eq!(out.len(), c.original_len, "malformed RLC stream");
        out
    }

    #[test]
    fn roundtrip_simple() {
        let data: Vec<Fix16> = [0i16, 0, 5, 0, -3, 7, 0, 0, 0, 0]
            .iter()
            .map(|&r| Fix16::from_raw(r))
            .collect();
        assert_eq!(decode(&encode(&data)), data);
    }

    #[test]
    fn empty_input_roundtrips() {
        let data: Vec<Fix16> = Vec::new();
        let c = encode(&data);
        assert_eq!(decode(&c), data);
    }

    #[test]
    fn all_zero_compresses_hard() {
        let data = vec![Fix16::ZERO; 3100];
        let c = encode(&data);
        assert_eq!(decode(&c), data);
        assert!(c.ratio() > 10.0, "ratio {}", c.ratio());
    }

    #[test]
    fn dense_data_expands_modestly() {
        let data: Vec<Fix16> = (1..=300).map(Fix16::from_raw).collect();
        let c = encode(&data);
        assert_eq!(decode(&c), data);
        // One pair (21 bits) per dense value: worst case ~4/3 expansion.
        assert!(c.ratio() > 0.7, "ratio {}", c.ratio());
    }

    #[test]
    fn long_runs_split_at_31() {
        let mut data = vec![Fix16::ZERO; 40];
        data.push(Fix16::ONE);
        let c = encode(&data);
        assert_eq!(decode(&c), data);
    }

    #[test]
    fn run_of_exactly_max_run_zeros() {
        // A run of exactly 31 zeros saturates the 5-bit field in a single
        // (run, level) pair.
        let mut data = vec![Fix16::ZERO; MAX_RUN];
        data.push(Fix16::ONE);
        let c = encode(&data);
        assert_eq!(decode(&c), data);
        assert_eq!(c.words.len(), 1, "31 zeros + level fit one pair");
    }

    #[test]
    fn run_of_exactly_max_run_plus_one_zeros() {
        // 32 zeros must split into a saturated pair (31, 0) plus the
        // 32nd zero starting the next pair's run.
        let mut data = vec![Fix16::ZERO; MAX_RUN + 1];
        data.push(Fix16::ONE);
        let c = encode(&data);
        assert_eq!(decode(&c), data);
        let run0 = ((c.words[0] >> 1) & 0x1f) as usize;
        assert_eq!(run0, MAX_RUN, "first pair must carry a saturated run");
    }

    #[test]
    fn trailing_zero_runs_at_the_31_32_boundary() {
        // All-zero tails of exactly 31 and 32 values: the encoder's
        // trailing-run and implicit-final-run paths both roundtrip.
        for tail in [MAX_RUN, MAX_RUN + 1] {
            let mut data = vec![Fix16::ONE];
            data.extend(std::iter::repeat_n(Fix16::ZERO, tail));
            let c = encode(&data);
            assert_eq!(decode(&c), data, "tail of {tail} zeros");
        }
    }

    #[test]
    fn all_zero_inputs_at_boundary_lengths() {
        for len in [1usize, MAX_RUN, MAX_RUN + 1, 3 * MAX_RUN, 96] {
            let data = vec![Fix16::ZERO; len];
            let c = encode(&data);
            assert_eq!(decode(&c), data, "all-zero length {len}");
            assert_eq!(c.original_len, len);
        }
    }

    #[test]
    fn scratch_entry_points_match_the_owning_api() {
        // One word buffer reused across streams of every length, longest
        // first: each encoding equals a fresh buffer's and roundtrips.
        let mut words = Vec::new();
        for data in [
            (1..=100).map(Fix16::from_raw).collect::<Vec<_>>(),
            vec![Fix16::ZERO; 40],
            [0i16, 0, 5, 0, -3, 7, 0, 0]
                .iter()
                .map(|&r| Fix16::from_raw(r))
                .collect(),
            vec![],
        ] {
            let owned = encode(&data);
            let len = encode_stream(data.iter().copied(), &mut words);
            assert_eq!(len, data.len());
            assert_eq!(words, owned.words);
            assert_eq!(ratio_of(len, &words), owned.ratio());
            assert_eq!(decode(&owned), data);
        }
    }

    #[test]
    fn streaming_encoder_accepts_iterators() {
        // A generated stream, never materialized (as the chip streams its
        // quantized ofmap), encodes like the same values in a slice.
        let value = |i: i16| {
            if i % 7 == 0 {
                Fix16::from_raw(i)
            } else {
                Fix16::ZERO
            }
        };
        let data: Vec<Fix16> = (0..50).map(value).collect();
        let mut words = Vec::new();
        let len = encode_stream((0..50).map(value), &mut words);
        assert_eq!(len, data.len());
        assert_eq!(words, encode(&data).words);
        assert_eq!(decode(&encode(&data)), data);
    }

    #[test]
    fn zero_length_input_ratio_is_neutral() {
        let c = encode(&[]);
        assert_eq!(c.original_len, 0);
        assert_eq!(decode(&c), Vec::<Fix16>::new());
        // The flag word still exists; ratio stays consistent with the
        // definition (0 original bits / 64 compressed bits = 0).
        assert_eq!(c.words.len(), 1);
        assert_eq!(c.ratio(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(raw in proptest::collection::vec(-300i16..300, 0..200),
                          sparsify in 0u8..4) {
            let data: Vec<Fix16> = raw
                .iter()
                .map(|&r| {
                    if sparsify > 0 && r.rem_euclid(sparsify as i16 + 1) != 0 {
                        Fix16::ZERO
                    } else {
                        Fix16::from_raw(r)
                    }
                })
                .collect();
            let c = encode(&data);
            prop_assert_eq!(decode(&c), data);
            // ratio() must agree with the packed stream's actual size.
            let expect = if c.words.is_empty() {
                1.0
            } else {
                (c.original_len as f64 * 16.0) / (c.words.len() as f64 * 64.0)
            };
            prop_assert!((c.ratio() - expect).abs() < 1e-12);
        }

        #[test]
        fn prop_sparser_is_smaller(n in 50usize..300) {
            let dense: Vec<Fix16> = (0..n).map(|i| Fix16::from_raw(i as i16 + 1)).collect();
            let sparse: Vec<Fix16> = (0..n)
                .map(|i| if i % 8 == 0 { Fix16::ONE } else { Fix16::ZERO })
                .collect();
            prop_assert!(encode(&sparse).words.len() <= encode(&dense).words.len());
        }
    }
}
