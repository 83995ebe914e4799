//! The three on-chip networks of the Eyeriss architecture (Section V-E):
//! global multicast NoCs for filters and ifmaps, and the local PE-to-PE
//! chain for psums.
//!
//! The chip tags each PE with a (row, col) ID and buses deliver packets to
//! all PEs whose tag matches; here the tag sets are computed from the
//! mapping (horizontal rows for filters — Fig. 6a, diagonals for ifmaps —
//! Fig. 6b, columns for psums — Fig. 6c) and the networks count word
//! deliveries (array-level hops in the Table IV accounting). The pass
//! walk records a whole pass's traffic on a network in one counted
//! update.

/// Counters for one network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Multicast/chain transactions issued.
    pub transactions: u64,
    /// Word deliveries summed over receiving PEs (the array-hop count).
    pub word_hops: u64,
}

impl NocStats {
    /// Records `transactions` multicasts of `words` words each, reaching
    /// `receivers` PEs summed over the transactions.
    ///
    /// # Panics
    ///
    /// Panics if some multicast would have no receiver (`receivers <
    /// transactions`) — the mapping should never multicast into the void.
    pub fn multicast(&mut self, transactions: usize, words: usize, receivers: usize) {
        assert!(
            receivers >= transactions,
            "multicast needs at least one receiver"
        );
        self.transactions += transactions as u64;
        self.word_hops += (words * receivers) as u64;
    }

    /// Records `transactions` spatial accumulations of a `words`-wide psum
    /// row along a chain of `length` PEs: `length - 1` hop steps each.
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty.
    pub fn accumulate(&mut self, transactions: usize, words: usize, length: usize) {
        assert!(length > 0, "psum chain must contain at least one PE");
        self.transactions += transactions as u64;
        self.word_hops += (transactions * words * (length - 1)) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicast_counts_words_times_receivers() {
        let mut bus = NocStats::default();
        bus.multicast(1, 11, 4);
        bus.multicast(1, 5, 1);
        assert_eq!(bus.transactions, 2);
        assert_eq!(bus.word_hops, 44 + 5);
        // Three rows to 2, 3 and 1 PEs: one counted update.
        bus.multicast(3, 7, 6);
        assert_eq!(bus.transactions, 5);
        assert_eq!(bus.word_hops, 49 + 42);
    }

    #[test]
    fn chain_counts_length_minus_one() {
        let mut chain = NocStats::default();
        chain.accumulate(1, 13, 3);
        assert_eq!(chain.word_hops, 26);
        chain.accumulate(1, 13, 1); // single PE: no hops
        assert_eq!(chain.word_hops, 26);
        chain.accumulate(4, 13, 3);
        assert_eq!((chain.transactions, chain.word_hops), (6, 26 * 5));
    }

    #[test]
    #[should_panic(expected = "at least one receiver")]
    fn empty_multicast_panics() {
        NocStats::default().multicast(1, 4, 0);
    }
}
