//! The global buffer: capacity-checked staging storage between DRAM and
//! the PE array, with read/write counters.
//!
//! The simulator does not model addresses; it models *occupancy* (the
//! resident tiles of each data type must fit, as in Section V-B's second
//! folding phase) and *traffic* (every word staged in or read out is
//! counted at buffer cost).

use crate::error::SimError;

/// Occupancy and traffic accounting for the global buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct GlobalBuffer {
    capacity_words: usize,
    ifmap_words: usize,
    filter_words: usize,
    psum_words: usize,
    /// Words read out of the buffer.
    pub(crate) reads: u64,
    /// Words written into the buffer.
    pub(crate) writes: u64,
}

impl GlobalBuffer {
    /// Creates an empty buffer of `capacity_words` 16-bit words (psum
    /// entries are wider on chip; the paper's accounting is word-based).
    pub(crate) fn new(capacity_words: usize) -> Self {
        GlobalBuffer {
            capacity_words,
            ifmap_words: 0,
            filter_words: 0,
            psum_words: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// Total words currently resident.
    pub(crate) fn occupancy(&self) -> usize {
        self.ifmap_words + self.filter_words + self.psum_words
    }

    fn check(&self) -> Result<(), SimError> {
        if self.occupancy() > self.capacity_words {
            return Err(SimError::new(format!(
                "global buffer over capacity: {} of {} words (ifmap {}, filter {}, psum {})",
                self.occupancy(),
                self.capacity_words,
                self.ifmap_words,
                self.filter_words,
                self.psum_words
            )));
        }
        Ok(())
    }

    /// Replaces the resident ifmap tile with one of `words` words,
    /// counting the staging writes.
    ///
    /// # Errors
    ///
    /// Fails if the new occupancy exceeds capacity.
    pub(crate) fn stage_ifmap(&mut self, words: usize) -> Result<(), SimError> {
        self.ifmap_words = words;
        self.writes += words as u64;
        self.check()
    }

    /// Replaces the resident filter tile.
    ///
    /// # Errors
    ///
    /// Fails if the new occupancy exceeds capacity.
    pub(crate) fn stage_filters(&mut self, words: usize) -> Result<(), SimError> {
        self.filter_words = words;
        self.writes += words as u64;
        self.check()
    }

    /// Reserves the psum tile (allocated once per strip; updates are
    /// counted through [`GlobalBuffer::read_words`]/[`GlobalBuffer::write_words`]).
    ///
    /// # Errors
    ///
    /// Fails if the new occupancy exceeds capacity.
    pub(crate) fn reserve_psums(&mut self, words: usize) -> Result<(), SimError> {
        self.psum_words = words;
        self.check()
    }

    /// Releases the psum tile.
    pub(crate) fn release_psums(&mut self) {
        self.psum_words = 0;
    }

    /// Counts `n` words read out of the buffer.
    pub(crate) fn read_words(&mut self, n: usize) {
        self.reads += n as u64;
    }

    /// Counts `n` words written into the buffer.
    pub(crate) fn write_words(&mut self, n: usize) {
        self.writes += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_counts_writes() {
        let mut g = GlobalBuffer::new(100);
        g.stage_ifmap(40).unwrap();
        g.stage_filters(30).unwrap();
        assert_eq!(g.occupancy(), 70);
        assert_eq!(g.writes, 70);
    }

    #[test]
    fn over_capacity_is_an_error() {
        let mut g = GlobalBuffer::new(100);
        g.stage_ifmap(60).unwrap();
        g.reserve_psums(30).unwrap();
        let err = g.stage_filters(20).unwrap_err();
        assert!(err.to_string().contains("over capacity"));
    }

    #[test]
    fn restaging_replaces_not_accumulates() {
        let mut g = GlobalBuffer::new(100);
        g.stage_ifmap(90).unwrap();
        g.stage_ifmap(50).unwrap();
        assert_eq!(g.occupancy(), 50);
        assert_eq!(g.writes, 140);
    }

    #[test]
    fn psum_release_frees_space() {
        let mut g = GlobalBuffer::new(100);
        g.reserve_psums(100).unwrap();
        assert!(g.stage_ifmap(10).is_err());
        g.release_psums();
        // Re-stage now fits (ifmap tile was still recorded from the failed
        // attempt, so set it again).
        g.stage_ifmap(10).unwrap();
        assert_eq!(g.occupancy(), 10);
    }
}
