//! Per-phase simulation statistics.

use serde::{Deserialize, Serialize};

/// Operand classes tracked separately in the global-buffer counters — the
/// breakdown of Fig. 13 (Adj / Inp / Int / Wt / Op / Psum) extended with the
/// per-edge attention scores an SDDMM phase produces (`Score`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum OperandClass {
    /// CSR adjacency structure + values (`Adj`).
    Adjacency,
    /// Dense input feature matrix (`Inp`).
    Input,
    /// The intermediate matrix between the phases (`Int`).
    Intermediate,
    /// Weight matrix (`Wt`).
    Weight,
    /// Final output matrix (`Op`).
    Output,
    /// Spilled partial sums (`Psum`).
    Psum,
    /// Per-edge attention scores (`Score`): the adjacency-shaped output of an
    /// SDDMM scoring phase, re-read as the aggregation weights of an
    /// attention GNN.
    EdgeScore,
}

/// Number of distinct [`OperandClass`] buckets (length of the counter arrays).
pub const NUM_OPERAND_CLASSES: usize = 7;

impl OperandClass {
    /// All classes in Fig. 13 order (the attention-score bucket last).
    pub const ALL: [OperandClass; NUM_OPERAND_CLASSES] = [
        OperandClass::Adjacency,
        OperandClass::Input,
        OperandClass::Intermediate,
        OperandClass::Weight,
        OperandClass::Output,
        OperandClass::Psum,
        OperandClass::EdgeScore,
    ];

    /// Index into counter arrays.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            OperandClass::Adjacency => 0,
            OperandClass::Input => 1,
            OperandClass::Intermediate => 2,
            OperandClass::Weight => 3,
            OperandClass::Output => 4,
            OperandClass::Psum => 5,
            OperandClass::EdgeScore => 6,
        }
    }

    /// Fig. 13 legend label.
    pub fn label(self) -> &'static str {
        match self {
            OperandClass::Adjacency => "Adj",
            OperandClass::Input => "Inp",
            OperandClass::Intermediate => "Int",
            OperandClass::Weight => "Wt",
            OperandClass::Output => "Op",
            OperandClass::Psum => "Psum",
            OperandClass::EdgeScore => "Score",
        }
    }
}

impl std::fmt::Display for OperandClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Buffer access counters for one simulated phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Deserialize, Serialize)]
pub struct AccessCounters {
    /// Global-buffer reads per operand class.
    pub gb_reads: [u64; NUM_OPERAND_CLASSES],
    /// Global-buffer writes per operand class.
    pub gb_writes: [u64; NUM_OPERAND_CLASSES],
    /// Register-file reads (all operands).
    pub rf_reads: u64,
    /// Register-file writes (all operands).
    pub rf_writes: u64,
}

impl AccessCounters {
    /// Adds `n` GB reads of class `c`.
    #[inline]
    pub fn read(&mut self, c: OperandClass, n: u64) {
        self.gb_reads[c.idx()] += n;
    }

    /// Adds `n` GB writes of class `c`.
    #[inline]
    pub fn write(&mut self, c: OperandClass, n: u64) {
        self.gb_writes[c.idx()] += n;
    }

    /// Total GB reads across classes.
    pub fn total_gb_reads(&self) -> u64 {
        self.gb_reads.iter().sum()
    }

    /// Total GB writes across classes.
    pub fn total_gb_writes(&self) -> u64 {
        self.gb_writes.iter().sum()
    }

    /// GB reads + writes of one class.
    pub fn gb_of(&self, c: OperandClass) -> u64 {
        self.gb_reads[c.idx()] + self.gb_writes[c.idx()]
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &AccessCounters) {
        for i in 0..NUM_OPERAND_CLASSES {
            self.gb_reads[i] += other.gb_reads[i];
            self.gb_writes[i] += other.gb_writes[i];
        }
        self.rf_reads += other.rf_reads;
        self.rf_writes += other.rf_writes;
    }
}

/// A phase's `Pel`-chunk timeline, run-length encoded: maximal runs of
/// consecutive chunks with equal durations, as `(per-chunk duration, chunk
/// count)`. A batched walk stamps a run of identical passes in O(1) and the
/// PP composition reads it in O(runs), so a timeline of millions of chunks
/// costs a few kilobytes. [`Self::marks`] expands the cumulative marks
/// [`PhaseStats::chunk_marks`] reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkTimeline {
    runs: Vec<(u64, u64)>,
    len: u64,
    end: u64,
}

impl ChunkTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The timeline of the cumulative `marks`; each chunk lasts
    /// `mark − previous mark`, saturating at 0 like
    /// [`PhaseStats::chunk_durations`].
    pub fn from_marks(marks: &[u64]) -> Self {
        let mut t = Self::new();
        let mut prev = 0;
        for &m in marks {
            t.push(m.saturating_sub(prev), 1);
            prev = m;
        }
        t
    }

    /// Appends `count` chunks of `duration` cycles each, extending the last
    /// run when its duration is the same.
    #[inline]
    pub fn push(&mut self, duration: u64, count: u64) {
        if count == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some((d, n)) if *d == duration => *n += count,
            _ => self.runs.push((duration, count)),
        }
        self.len += count;
        self.end += duration * count;
    }

    /// Appends one chunk ending at cumulative time `mark` (≥ [`Self::end`]).
    #[inline]
    pub(crate) fn push_mark(&mut self, mark: u64) {
        debug_assert!(mark >= self.end, "chunk marks must not decrease");
        self.push(mark - self.end, 1);
    }

    /// Moves the last chunk's end to cumulative time `mark` (no earlier than
    /// the chunk before it ends). No-op on an empty timeline.
    pub(crate) fn retime_last(&mut self, mark: u64) {
        let Some((d, n)) = self.runs.last_mut() else { return };
        let d = *d;
        *n -= 1;
        if *n == 0 {
            self.runs.pop();
        }
        self.len -= 1;
        self.end -= d;
        self.push_mark(mark);
    }

    /// Number of chunks.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the timeline holds no chunk.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sum of the chunk durations: the last mark.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The runs, as `(per-chunk duration, chunk count)` in chunk order; no
    /// count is 0 and no two neighbours share a duration.
    pub fn runs(&self) -> &[(u64, u64)] {
        &self.runs
    }

    /// The cumulative chunk marks, expanded lazily.
    pub fn marks(&self) -> Marks<'_> {
        Marks { runs: self.runs.iter(), duration: 0, left: 0, at: 0, remaining: self.len }
    }
}

/// The cumulative marks of a [`ChunkTimeline`], in chunk order
/// ([`ChunkTimeline::marks`]). Exact-size, so collecting them allocates once.
#[derive(Debug, Clone)]
pub struct Marks<'a> {
    runs: std::slice::Iter<'a, (u64, u64)>,
    /// Duration and chunks left of the run being expanded.
    duration: u64,
    left: u64,
    /// The last mark yielded.
    at: u64,
    remaining: u64,
}

impl Iterator for Marks<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        while self.left == 0 {
            (self.duration, self.left) = *self.runs.next()?;
        }
        self.left -= 1;
        self.remaining -= 1;
        self.at += self.duration;
        Some(self.at)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for Marks<'_> {}

/// Result of simulating one phase under one intra-phase dataflow.
#[derive(Debug, Clone, Deserialize, Serialize)]
pub struct PhaseStats {
    /// Total cycles, including stalls.
    pub cycles: u64,
    /// Cycles lost to distribution/collection bandwidth (subset of `cycles`).
    pub stall_cycles: u64,
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// Buffer access counters.
    pub counters: AccessCounters,
    /// PEs occupied by this phase's tiling.
    pub pe_footprint: usize,
    /// Cumulative cycle timestamps at which successive `Pel` chunks of the
    /// intermediate matrix were produced/consumed (empty when no chunking was
    /// requested). The final entry always equals `cycles`.
    pub chunk_marks: Vec<u64>,
    /// `true` if partial sums overflowed the register files and spilled to the
    /// global buffer somewhere in this phase.
    pub psum_spilled: bool,
    /// Peak per-PE register-file working set this phase *demands*, in bytes:
    /// stationary + stream slots, live partial sums, and the per-PE share of
    /// any residency pins (`input_resident` / `output_stays_local` /
    /// `scores_resident` matrices). Reported unconditionally; compared against
    /// a budget only when capacity enforcement is on.
    pub rf_peak_bytes: u64,
    /// Peak global-buffer staging working set this phase demands, in bytes:
    /// the operand tiles the GB must hold concurrently to feed one pass.
    pub gb_peak_bytes: u64,
}

impl PhaseStats {
    /// Stats of a degenerate phase (a workload with no work at all): zero
    /// cycles/traffic on `pe_footprint` allocated PEs.
    pub fn empty(pe_footprint: usize) -> Self {
        PhaseStats {
            cycles: 0,
            stall_cycles: 0,
            macs: 0,
            counters: AccessCounters::default(),
            pe_footprint,
            chunk_marks: Vec::new(),
            psum_spilled: false,
            rf_peak_bytes: 0,
            gb_peak_bytes: 0,
        }
    }

    /// Per-chunk durations derived from the cumulative marks.
    pub fn chunk_durations(&self) -> Vec<u64> {
        let mut prev = 0;
        self.chunk_marks
            .iter()
            .map(|&m| {
                let d = m.saturating_sub(prev);
                prev = m;
                d
            })
            .collect()
    }

    /// Average achieved MACs per PE per cycle (compute utilisation), in `[0, 1]`.
    pub fn compute_utilisation(&self) -> f64 {
        if self.cycles == 0 || self.pe_footprint == 0 {
            return 0.0;
        }
        self.macs as f64 / (self.cycles as f64 * self.pe_footprint as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_distinct() {
        let idxs: std::collections::HashSet<_> = OperandClass::ALL.iter().map(|c| c.idx()).collect();
        assert_eq!(idxs.len(), NUM_OPERAND_CLASSES);
        assert_eq!(OperandClass::Adjacency.label(), "Adj");
        assert_eq!(OperandClass::Psum.to_string(), "Psum");
        assert_eq!(OperandClass::EdgeScore.label(), "Score");
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = AccessCounters::default();
        a.read(OperandClass::Input, 10);
        a.write(OperandClass::Output, 4);
        a.rf_reads = 7;
        let mut b = AccessCounters::default();
        b.read(OperandClass::Input, 5);
        b.rf_writes = 2;
        a.merge(&b);
        assert_eq!(a.gb_reads[OperandClass::Input.idx()], 15);
        assert_eq!(a.total_gb_reads(), 15);
        assert_eq!(a.total_gb_writes(), 4);
        assert_eq!(a.gb_of(OperandClass::Input), 15);
        assert_eq!(a.gb_of(OperandClass::Output), 4);
        assert_eq!(a.rf_reads, 7);
        assert_eq!(a.rf_writes, 2);
    }

    #[test]
    fn chunk_timeline_merges_runs_and_expands_its_marks() {
        let mut t = ChunkTimeline::new();
        assert!(t.is_empty() && t.marks().next().is_none());
        t.push(4, 2);
        t.push(4, 1); // extends the run
        t.push(0, 0); // no chunk, no run
        t.push_mark(20);
        t.push(3, 2);
        assert_eq!(t.runs(), [(4, 3), (8, 1), (3, 2)]);
        assert_eq!((t.len(), t.end()), (6, 26));
        assert_eq!(t.marks().collect::<Vec<_>>(), [4, 8, 12, 20, 23, 26]);
        assert_eq!(ChunkTimeline::from_marks(&[4, 8, 12, 20, 23, 26]), t);
        t.retime_last(30);
        assert_eq!(t.runs(), [(4, 3), (8, 1), (3, 1), (7, 1)]);
        t.retime_last(26); // back onto the run it left
        assert_eq!(t.runs(), [(4, 3), (8, 1), (3, 2)]);
        // Falling marks saturate like `chunk_durations`.
        assert_eq!(ChunkTimeline::from_marks(&[5, 3, 12]).runs(), [(5, 1), (0, 1), (9, 1)]);
    }

    #[test]
    fn chunk_durations_from_marks() {
        let s = PhaseStats {
            cycles: 100,
            stall_cycles: 0,
            macs: 0,
            counters: AccessCounters::default(),
            pe_footprint: 1,
            chunk_marks: vec![30, 70, 100],
            psum_spilled: false,
            rf_peak_bytes: 0,
            gb_peak_bytes: 0,
        };
        assert_eq!(s.chunk_durations(), vec![30, 40, 30]);
    }

    #[test]
    fn compute_utilisation_bounds() {
        let s = PhaseStats {
            cycles: 10,
            stall_cycles: 0,
            macs: 40,
            counters: AccessCounters::default(),
            pe_footprint: 8,
            chunk_marks: vec![],
            psum_spilled: false,
            rf_peak_bytes: 0,
            gb_peak_bytes: 0,
        };
        assert!((s.compute_utilisation() - 0.5).abs() < 1e-12);
        let zero = PhaseStats { cycles: 0, pe_footprint: 0, ..s };
        assert_eq!(zero.compute_utilisation(), 0.0);
    }
}
