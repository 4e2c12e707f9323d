//! The PP pipeline schedule (Section IV-C).

use omega_accel::ChunkTimeline;

/// Total runtime of a two-stage pipeline over per-chunk durations.
///
/// The producer works on chunk `i` while the consumer processes chunk `i−1`
/// (Fig. 7a); a pipeline step takes as long as the slower phase
/// ("The runtime of one pipeline step is equal to the runtime of the slower
/// phase for producing Pel elements. The total runtime is the sum of runtimes
/// of individual steps `sum(max(t_AGG, t_CMB)_Pel)`", Section IV-C), plus the
/// fill (first producer chunk) and drain (last consumer chunk) steps.
///
/// # Panics
/// Panics if the slices have different lengths (chunk streams must align).
pub fn pipeline_runtime(producer: &[u64], consumer: &[u64]) -> u64 {
    assert_eq!(producer.len(), consumer.len(), "chunk streams must have equal length");
    if producer.is_empty() {
        return 0;
    }
    let k = producer.len();
    let mut total = producer[0];
    for i in 1..k {
        total += producer[i].max(consumer[i - 1]);
    }
    total + consumer[k - 1]
}

/// Redistributes a duration sequence into `k` chunks with the same total.
///
/// Needed when the producer and consumer account chunk progress in different
/// units (e.g. a CA consumer counts edge visits while the producer counts
/// intermediate elements) and their mark counts differ.
///
/// The resampled boundary `i` sits at cumulative time `⌊total·i/k⌋` — i.e. the
/// total is split uniformly (with integer rounding spread across the chunks).
/// This is exactly what the original "piecewise-linear interpolation on the
/// cumulative curve" computed: interpolating *time* targets on a curve whose x
/// and y axes are both cumulative time degenerates to the identity, so the
/// boundary always landed on the target itself. The historical inner
/// interpolation loop (`mark = cum + (target - cum)`) was therefore dead code —
/// and O(k·n), which made pipeline schedules with millions of chunks
/// intractable; this direct form is O(k).
pub fn resample_durations(durations: &[u64], k: usize) -> Vec<u64> {
    if k == 0 {
        return Vec::new();
    }
    let total: u64 = durations.iter().sum();
    if durations.is_empty() || total == 0 {
        return vec![0; k];
    }
    let mut out = Vec::with_capacity(k);
    let mut prev_mark = 0u64;
    for i in 1..=k {
        let mark = (total as u128 * i as u128 / k as u128) as u64;
        out.push(mark - prev_mark);
        prev_mark = mark;
    }
    out
}

/// The PP composition straight from the two phases' run-length chunk
/// timelines: [`pipeline_runtime`] over their durations, the consumer
/// resampled to the producer's chunk count ([`resample_durations`]) when the
/// counts differ, and an empty producer timeline read as one zero-length
/// chunk. Equal counts take O(runs of both) steps, since a pipeline step over
/// a stretch where both sides repeat their durations repeats too; the
/// resampled consumer is generated chunk by chunk (O(chunks)).
pub(crate) fn pipeline_runtime_of_timelines(
    producer: &ChunkTimeline,
    consumer: &ChunkTimeline,
) -> u64 {
    let k = producer.len().max(1);
    let p = producer.runs().iter().copied().chain(producer.is_empty().then_some((0, 1)));
    if consumer.len() == k {
        return pipeline_over_runs(p, consumer.runs().iter().copied());
    }
    let total = consumer.end();
    let mark = move |i: u64| (total as u128 * i as u128 / k as u128) as u64;
    pipeline_over_runs(p, (1..=k).map(move |i| (mark(i) - mark(i - 1), 1)))
}

/// [`pipeline_runtime`] over two `(duration, count)` run streams holding the
/// same number of chunks (at least one). The steps pair producer chunk
/// `i + 1` with consumer chunk `i`, so each step of the merge advances both
/// streams by the shorter of their current runs.
fn pipeline_over_runs(
    mut producer: impl Iterator<Item = (u64, u64)>,
    mut consumer: impl Iterator<Item = (u64, u64)>,
) -> u64 {
    let (first, n) = producer.next().expect("at least one chunk");
    let mut total = first;
    let (mut p, mut c) = ((first, n - 1), (0, 0));
    loop {
        if p.1 == 0 {
            match producer.next() {
                Some(run) => p = run,
                None => break,
            }
        }
        if c.1 == 0 {
            c = consumer.next().expect("equal lengths");
        }
        let step = p.1.min(c.1);
        total += step * p.0.max(c.0);
        p.1 -= step;
        c.1 -= step;
    }
    if c.1 == 0 {
        c = consumer.next().expect("equal lengths");
    }
    debug_assert!(c.1 == 1 && consumer.next().is_none(), "equal lengths");
    total + c.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The composition over expanded durations: the consumer resampled to
    /// the producer's count when they differ, an empty producer read as one
    /// zero-length chunk.
    fn reference(p: &[u64], c: &[u64]) -> u64 {
        let k = p.len().max(1);
        let c = if c.len() == k { c.to_vec() } else { resample_durations(c, k) };
        let p = if p.is_empty() { vec![0] } else { p.to_vec() };
        pipeline_runtime(&p, &c)
    }

    fn durations(t: &ChunkTimeline) -> Vec<u64> {
        t.runs().iter().flat_map(|&(d, n)| std::iter::repeat_n(d, n as usize)).collect()
    }

    #[test]
    fn marks_composition_matches_the_duration_form() {
        let cases: [(&[u64], &[u64]); 7] = [
            (&[], &[]),
            (&[], &[5, 9]),
            (&[4], &[7]),
            (&[3, 8, 8, 20], &[5, 6, 30, 31]),
            (&[3, 8, 8, 20], &[2, 50, 51]),
            (&[10, 11, 40, 41, 90], &[7, 100]),
            (&[5, 3, 12], &[0, 0, 0, 0]),
        ];
        for (p, c) in cases {
            let (p, c) = (ChunkTimeline::from_marks(p), ChunkTimeline::from_marks(c));
            assert_eq!(
                pipeline_runtime_of_timelines(&p, &c),
                reference(&durations(&p), &durations(&c)),
                "{p:?} / {c:?}"
            );
        }
    }

    fn timeline(runs: &[(u64, u64)]) -> ChunkTimeline {
        let mut t = ChunkTimeline::new();
        for &(d, n) in runs {
            t.push(d, n);
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The run-wise composition equals [`pipeline_runtime`] over the
        /// expanded durations: equal counts, a resampled consumer, an empty
        /// producer, and a single producer chunk.
        #[test]
        fn run_composition_matches_the_expanded_durations(
            p_runs in proptest::collection::vec((0u64..40, 1u64..9), 0..12),
            c_runs in proptest::collection::vec((0u64..40, 1u64..9), 0..12),
            case in 0u8..4,
        ) {
            let mut p = timeline(&p_runs);
            let mut c = timeline(&c_runs);
            match case {
                // Equal counts: trim or pad the consumer to the producer's.
                0 => {
                    let k = p.len().max(1);
                    let mut d = durations(&c);
                    d.resize(k as usize, 7);
                    c = timeline(&d.iter().map(|&x| (x, 1)).collect::<Vec<_>>());
                }
                // Resampled: counts that differ.
                1 => {
                    if c.len() == p.len().max(1) {
                        c.push(3, 1);
                    }
                }
                2 => p = ChunkTimeline::new(),
                _ => p = timeline(&[(p_runs.first().map_or(5, |r| r.0), 1)]),
            }
            let want = reference(&durations(&p), &durations(&c));
            prop_assert_eq!(pipeline_runtime_of_timelines(&p, &c), want);
            // The marks round trip: a timeline rebuilt from its expanded
            // marks composes to the same total.
            let marks = |t: &ChunkTimeline| t.marks().collect::<Vec<u64>>();
            let p2 = ChunkTimeline::from_marks(&marks(&p));
            let c2 = ChunkTimeline::from_marks(&marks(&c));
            prop_assert_eq!(&p2, &p);
            prop_assert_eq!(pipeline_runtime_of_timelines(&p2, &c2), want);
        }
    }

    #[test]
    fn single_chunk_is_sequential() {
        // One chunk: no overlap possible — fill + drain = both phases in full.
        assert_eq!(pipeline_runtime(&[10], &[7]), 17);
    }

    #[test]
    fn balanced_pipeline_overlaps() {
        // 4 chunks of 10 vs 10: total = 10 (fill) + 3×10 + 10 (drain) = 50,
        // versus 80 sequential.
        assert_eq!(pipeline_runtime(&[10; 4], &[10; 4]), 50);
    }

    #[test]
    fn slower_phase_dominates() {
        // Consumer 3× slower: total ≈ fill + Σ consumer.
        let p = [10u64; 5];
        let c = [30u64; 5];
        assert_eq!(pipeline_runtime(&p, &c), 10 + 4 * 30 + 30);
    }

    #[test]
    fn imbalanced_chunks() {
        let p = [5u64, 50, 5];
        let c = [20u64, 20, 20];
        // 5 + max(50,20) + max(5,20) + 20 = 95.
        assert_eq!(pipeline_runtime(&p, &c), 95);
    }

    #[test]
    fn empty_pipeline() {
        assert_eq!(pipeline_runtime(&[], &[]), 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        pipeline_runtime(&[1, 2], &[1]);
    }

    #[test]
    fn resample_preserves_total() {
        let d = vec![10u64, 20, 30, 40];
        for k in [1, 2, 3, 4, 5, 8, 100] {
            let r = resample_durations(&d, k);
            assert_eq!(r.len(), k);
            assert_eq!(r.iter().sum::<u64>(), 100, "k={k}");
        }
    }

    #[test]
    fn resample_identity_when_uniform() {
        let d = vec![25u64; 4];
        assert_eq!(resample_durations(&d, 4), d);
    }

    #[test]
    fn resample_is_uniform_regardless_of_input_distribution() {
        // The documented (and historical) semantics: boundaries sit at
        // ⌊total·i/k⌋, so a skewed input resamples exactly like a flat one.
        let skewed = resample_durations(&[1000, 1, 1, 1], 4);
        let flat = resample_durations(&[251, 251, 251, 250], 4);
        assert_eq!(skewed, flat);
        assert_eq!(skewed, vec![250, 251, 251, 251]);
    }

    #[test]
    fn resample_edge_cases() {
        assert_eq!(resample_durations(&[], 3), vec![0, 0, 0]);
        assert_eq!(resample_durations(&[0, 0], 2), vec![0, 0]);
        assert!(resample_durations(&[5, 5], 0).is_empty());
    }
}
