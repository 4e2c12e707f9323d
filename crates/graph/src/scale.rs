//! Million-node scale generators with streaming CSR construction.
//!
//! The Table IV stand-ins (a few thousand vertices) exercise every dataflow
//! regime, but the summary-driven walk earns its keep on graphs whose `nnz`
//! dwarfs the number of degree classes. This module provides the classic
//! scale-free generators at that size:
//!
//! * [`rmat`] — Graph500-style recursive-matrix graphs (`a=0.57, b=c=0.19,
//!   d=0.05`), with **stateless per-edge generation**: each edge is a pure
//!   function of `(seed, edge index)`, so the edge stream is replayed instead
//!   of stored, and any contiguous range of it can be generated on its own.
//! * [`chung_lu_scaled`] — the power-law expected-degree model of
//!   [`crate::generators::chung_lu`], lifted to power-of-two scales by
//!   re-running its deterministic O(n + m) sampling walk per pass.
//!
//! Both build the CSR directly in two passes over the edge stream, never
//! materialising an edge list. The stream is split into `P` contiguous edge
//! ranges, one per available core (fewer for small graphs; always one for
//! the sequential Chung-Lu walk):
//!
//! 1. **Count.** Each range counts its row slots into its own `u32` array.
//! 2. **Prefix sum.** One serial pass lays out row `r`'s slots as its self
//!    loop, then range 0's slots, range 1's, …, and turns each range's count
//!    array into its cursor array in place.
//! 3. **Fill.** The ranges replay their edges concurrently, each writing only
//!    through its own cursors, so no two ranges touch the same slot.
//! 4. **Sort/dedupe.** Row blocks balanced by slot count sort and dedupe
//!    their rows concurrently, then one serial pass compacts the survivors.
//!
//! Peak memory is the finished CSR plus the `P` count/cursor arrays (one
//! `u32` per vertex each) and the per-row slot offsets. Rows are sorted before they are deduped, so the
//! result depends on neither `P` nor the fill order, and it is bit-identical
//! to feeding the same stream through [`GraphBuilder`] with its defaults
//! (undirected mirror for `u != v`, a self loop on every vertex, duplicates
//! collapsed, unit values) — pinned by differential tests below and by the
//! golden hashes in `tests/scale_golden.rs`.
//!
//! [`scale_graph`] resolves `"rmat-20"` / `"chung-lu-18"` style names (parsed
//! by [`parse_spec`]) so CLIs and workload specs can address the family next
//! to the Table IV datasets, and [`sample_subgraph`] cuts deterministic
//! induced subgraphs for model-level tests that want realistic degree shapes
//! at test-suite sizes.

use std::sync::atomic::{AtomicU32, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use omega_matrix::CsrMatrix;

use crate::{Graph, GraphBuilder};

/// Feature width of every [`scale_graph`] workload.
pub const SCALE_FEATURE_DIM: usize = 64;

/// Undirected edges per vertex of every [`scale_graph`] workload.
pub const SCALE_EDGE_FACTOR: usize = 8;

/// Largest `N` [`parse_spec`] accepts (≈ 67M vertices), so a typo cannot ask
/// for terabytes.
const MAX_SCALE: u32 = 26;

/// Fewest edges (or, for the sort/dedupe, stored slots) worth a range of
/// their own: below this a thread costs more than it saves.
const MIN_EDGES_PER_RANGE: u64 = 1 << 16;

/// How many ranges to split `work` items into: one per available core, but
/// none smaller than [`MIN_EDGES_PER_RANGE`].
fn ranges_for(work: u64) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    (work / MIN_EDGES_PER_RANGE).clamp(1, cores as u64) as usize
}

/// Runs `f` on every item, each on its own scoped thread (inline for a
/// single item), and returns the results in item order.
fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = items.into_iter().map(|item| s.spawn(move || f(item))).collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

/// SplitMix64 mix — the same finalizer [`Graph::features`] uses.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `p · 2^53` for a cumulative quadrant probability `p ∈ [0.5, 1)`. Such a
/// `p` is a 53-bit integer times `2^-53`, so the product is exact, and for a
/// 53-bit draw `x` the integer test `x < threshold(p)` is exactly the float
/// test `x as f64 / 2^53 < p`.
const fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64) as u64
}

/// Quadrant boundaries of the Graph500 partition: `a`, `a + b`, `a + b + c`.
const T_A: u64 = threshold(0.57);
const T_AB: u64 = threshold(0.76);
const T_ABC: u64 = threshold(0.95);

/// R-MAT edges `e..e + L` of a `2^scale`-vertex graph. Each edge is a pure
/// function of `(seed, edge index)`, so both CSR passes regenerate the
/// identical stream. The `L` edges advance in lockstep: their SplitMix
/// chains are independent, so they overlap in the pipeline instead of each
/// waiting out the previous chain's multiply latency.
fn rmat_edges<const L: usize>(scale: u32, seed: u64, e: u64) -> [(usize, usize); L] {
    let mut s: [u64; L] = std::array::from_fn(|l| {
        splitmix64(seed ^ e.wrapping_add(l as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    });
    let (mut u, mut v) = ([0usize; L], [0usize; L]);
    for _ in 0..scale {
        for ((s, u), v) in s.iter_mut().zip(&mut u).zip(&mut v) {
            *s = splitmix64(*s);
            // 53 uniform bits pick one quadrant per recursion level without
            // a branch: a = (0,0), b = (0,1), c = (1,0), d = (1,1).
            let x = *s >> 11;
            let bu = (x >= T_AB) as usize;
            let bv = (x >= T_A) as usize ^ bu ^ (x >= T_ABC) as usize;
            *u = (*u << 1) | bu;
            *v = (*v << 1) | bv;
        }
    }
    std::array::from_fn(|l| (u[l], v[l]))
}

/// Edges [`rmat_edges`] generates in lockstep.
const LANES: usize = 4;

/// Edges generated into a stack buffer before the CSR passes scatter them,
/// so the scatter's cache misses overlap one another instead of stalling
/// the kernel's arithmetic. A multiple of [`LANES`].
const EDGE_BATCH: usize = 256;

/// Streams a deterministic, replayable edge stream into a CSR adjacency
/// with [`GraphBuilder`]-default semantics — symmetric mirror for `u != v`,
/// a self loop on every vertex, duplicates collapsed, values `1.0` — without
/// ever materialising the edge list. The stream is `parts` ranges:
/// `emit_range(t, sink)` feeds range `t`'s edges to `sink`, is called twice
/// per range (possibly concurrently with other ranges), and must produce
/// the same sequence both times.
fn build_streamed(
    name: &str,
    n: usize,
    feature_dim: usize,
    parts: usize,
    emit_range: impl Fn(usize, &mut dyn FnMut(usize, usize)) + Sync,
) -> Graph {
    // Pass 1: each range counts its own row slots.
    let mut cursors = par_map((0..parts).collect(), |t| {
        let mut counts = vec![0u32; n];
        emit_range(t, &mut |u, v| {
            counts[u] += 1;
            if u != v {
                counts[v] += 1;
            }
        });
        counts
    });

    // Row r's slots: its self loop, then range 0's, range 1's, … Each
    // range's counts become its cursors into that layout.
    let mut slot = Vec::with_capacity(n + 1);
    let mut next = 0u64;
    for r in 0..n {
        slot.push(next);
        next += 1;
        for cursor in &mut cursors {
            let count = cursor[r] as u64;
            cursor[r] = next as u32;
            next += count;
        }
    }
    slot.push(next);
    assert!(next <= u32::MAX as u64, "edge slots overflow u32 CSR indices");

    // Pass 2: fill every range's slots concurrently. Ranges write disjoint
    // slots, so relaxed stores suffice; the scope join orders them before
    // the reads below.
    let cols: Vec<AtomicU32> = (0..next).map(|_| AtomicU32::new(0)).collect();
    for (r, &s) in slot[..n].iter().enumerate() {
        cols[s as usize].store(r as u32, Ordering::Relaxed);
    }
    par_map(cursors.into_iter().enumerate().collect(), |(t, mut cursor)| {
        emit_range(t, &mut |u, v| {
            cols[cursor[u] as usize].store(v as u32, Ordering::Relaxed);
            cursor[u] += 1;
            if u != v {
                cols[cursor[v] as usize].store(u as u32, Ordering::Relaxed);
                cursor[v] += 1;
            }
        });
    });
    let mut col_idx: Vec<u32> = cols.into_iter().map(AtomicU32::into_inner).collect();

    // At least one row block per edge range, so every range split also
    // splits the sort/dedupe.
    let row_ptr = sort_dedupe_rows(&mut col_idx, &slot, ranges_for(next).max(parts));
    let values = vec![1.0; col_idx.len()];
    let csr = CsrMatrix::from_raw_parts(n, n, row_ptr, col_idx, values)
        .expect("streamed CSR satisfies the structural invariants by construction");
    Graph::new(name, csr, feature_dim)
}

/// Sorts and dedupes every row `cols[slot[r]..slot[r + 1]]` on `blocks`
/// contiguous row blocks of near-equal slot count, then compacts the unique
/// columns to the front of `cols` (truncating it) and returns the CSR row
/// pointers. Each row is sorted, so the result does not depend on `blocks`.
fn sort_dedupe_rows(cols: &mut Vec<u32>, slot: &[u64], blocks: usize) -> Vec<u32> {
    let n = slot.len() - 1;
    let total = slot[n];
    // Block b covers rows bounds[b]..bounds[b + 1].
    let mut bounds = vec![0];
    bounds.extend(
        (1..blocks).map(|b| slot[..n].partition_point(|&s| s < total * b as u64 / blocks as u64)),
    );
    bounds.push(n);

    let mut unique = vec![0u32; n];
    let (mut rest_cols, mut rest_unique) = (&mut cols[..], &mut unique[..]);
    let mut jobs = Vec::with_capacity(blocks);
    for w in bounds.windows(2) {
        let (r0, r1) = (w[0], w[1]);
        let (block_cols, tail) =
            std::mem::take(&mut rest_cols).split_at_mut((slot[r1] - slot[r0]) as usize);
        rest_cols = tail;
        let (block_unique, tail) = std::mem::take(&mut rest_unique).split_at_mut(r1 - r0);
        rest_unique = tail;
        jobs.push((r0, block_cols, block_unique));
    }
    par_map(jobs, |(r0, block_cols, block_unique)| {
        let base = slot[r0];
        for (r, k) in (r0..).zip(block_unique.iter_mut()) {
            let row = &mut block_cols[(slot[r] - base) as usize..(slot[r + 1] - base) as usize];
            row.sort_unstable();
            *k = dedupe_sorted(row) as u32;
        }
    });

    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut w = 0;
    for (&s, &k) in slot.iter().zip(&unique) {
        let (s, k) = (s as usize, k as usize);
        cols.copy_within(s..s + k, w);
        w += k;
        row_ptr.push(w as u32);
    }
    cols.truncate(w);
    row_ptr
}

/// Moves the distinct values of a sorted slice to its front and returns how
/// many there are.
fn dedupe_sorted(row: &mut [u32]) -> usize {
    let mut k = 0;
    for i in 0..row.len() {
        if k == 0 || row[i] != row[k - 1] {
            row[k] = row[i];
            k += 1;
        }
    }
    k
}

/// R-MAT graph over `2^scale` vertices with `edge_factor · 2^scale` generated
/// edges (Graph500 partition probabilities). Deterministic in `seed`; memory
/// is the finished CSR plus one counter per vertex and core, so `scale = 20`
/// (≈ 1M vertices, ≈ 17M stored non-zeros) builds comfortably in-process.
pub fn rmat(name: &str, scale: u32, edge_factor: usize, feature_dim: usize, seed: u64) -> Graph {
    let m = (edge_factor << scale) as u64;
    rmat_in_ranges(name, scale, edge_factor, feature_dim, seed, ranges_for(m))
}

/// [`rmat`] with its edge stream split into exactly `parts` ranges.
fn rmat_in_ranges(
    name: &str,
    scale: u32,
    edge_factor: usize,
    feature_dim: usize,
    seed: u64,
    parts: usize,
) -> Graph {
    let n = 1usize << scale;
    let m = (edge_factor * n) as u64;
    build_streamed(name, n, feature_dim, parts, |t, sink| {
        // Range t: the t-th of `parts` contiguous, near-equal slices of 0..m.
        let (t, p) = (t as u64, parts as u64);
        let range = m * t / p..m * (t + 1) / p;
        let mut batch = [(0, 0); EDGE_BATCH];
        for first in range.clone().step_by(EDGE_BATCH) {
            let k = (range.end - first).min(EDGE_BATCH as u64) as usize;
            // The last group may run past the range; its extra edges are
            // never emitted.
            let groups = batch[..k.next_multiple_of(LANES)].chunks_exact_mut(LANES);
            for (g, group) in groups.enumerate() {
                let e = first + (g * LANES) as u64;
                group.copy_from_slice(&rmat_edges::<LANES>(scale, seed, e));
            }
            for &(u, v) in &batch[..k] {
                sink(u, v);
            }
        }
    })
}

/// [`crate::generators::chung_lu`] at power-of-two scale with streaming CSR
/// construction: same truncated power-law weights, same Miller–Hagberg
/// O(n + m) sampling walk, but the edge stream goes straight into the CSR
/// passes instead of an edge list. Deterministic in `seed`. The walk is
/// sequential, so its stream is a single range; only the per-row
/// sort/dedupe runs in parallel.
pub fn chung_lu_scaled(
    name: &str,
    scale: u32,
    edge_factor: usize,
    gamma: f64,
    feature_dim: usize,
    seed: u64,
) -> Graph {
    let n = 1usize << scale;
    let undirected_edges = edge_factor * n;
    let alpha = 1.0 / (gamma - 1.0);
    let mut weights: Vec<f64> = (0..n).map(|i| ((i + 5) as f64).powf(-alpha)).collect();
    let wsum: f64 = weights.iter().sum();
    let scale_w = (2.0 * undirected_edges as f64) / wsum;
    for w in &mut weights {
        *w *= scale_w;
    }
    let total_w: f64 = weights.iter().sum();
    build_streamed(name, n, feature_dim, 1, |_, sink| {
        chung_lu_stream(&weights, total_w, seed, sink);
    })
}
/// One deterministic Miller–Hagberg sampling walk over the weight sequence,
/// emitting each sampled undirected edge once. Re-seeding per call replays
/// the identical stream, which is what [`build_streamed`]'s two passes need.
fn chung_lu_stream(weights: &[f64], total_w: f64, seed: u64, sink: &mut dyn FnMut(usize, usize)) {
    let n = weights.len();
    let mut rng = StdRng::seed_from_u64(seed);
    for u in 0..n {
        let mut v = u + 1;
        let mut p = (weights[u] * weights[v.min(n - 1)] / total_w).min(1.0);
        while v < n && p > 0.0 {
            if p < 1.0 {
                let r: f64 = rng.gen_range(0.0f64..1.0).max(f64::MIN_POSITIVE);
                let skip = (r.ln() / (1.0 - p).ln()).floor() as usize;
                v += skip;
            }
            if v >= n {
                break;
            }
            let q = (weights[u] * weights[v] / total_w).min(1.0);
            if rng.gen_range(0.0f64..1.0) < q / p {
                sink(u, v);
            }
            p = q;
            v += 1;
        }
    }
}

/// Parses a scale-family name without generating anything: `rmat-N` or
/// `chung-lu-N` (kind case-insensitive, `1 ≤ N ≤ 26`) becomes the canonical
/// kind (`"rmat"` or `"chung-lu"`) and `N`. Returns `None` for any other
/// name, so callers can check a request's size before paying for the graph.
pub fn parse_spec(spec: &str) -> Option<(&'static str, u32)> {
    let (kind, scale) = spec.rsplit_once('-')?;
    let scale: u32 = scale.parse().ok()?;
    if !(1..=MAX_SCALE).contains(&scale) {
        return None;
    }
    let kind = ["rmat", "chung-lu"].into_iter().find(|k| kind.eq_ignore_ascii_case(k))?;
    Some((kind, scale))
}

/// Resolves a scale-family workload name (see [`parse_spec`]): `rmat-N`
/// (R-MAT) or `chung-lu-N` (power-law expected-degree, `γ = 2.1`) over `2^N`
/// vertices, edge factor [`SCALE_EDGE_FACTOR`], feature width
/// [`SCALE_FEATURE_DIM`]. Returns `None` for names outside the family, so
/// callers can try the Table IV registry first and fall through here.
pub fn scale_graph(spec: &str, seed: u64) -> Option<Graph> {
    let (kind, scale) = parse_spec(spec)?;
    Some(if kind == "rmat" {
        rmat(spec, scale, SCALE_EDGE_FACTOR, SCALE_FEATURE_DIM, seed)
    } else {
        chung_lu_scaled(spec, scale, SCALE_EDGE_FACTOR, 2.1, SCALE_FEATURE_DIM, seed)
    })
}

/// Deterministic induced subgraph on `k` uniformly-sampled vertices: the
/// stored structure (mirrors, self loops) restricted to the sample, with
/// vertices renumbered in ascending original order. Model-level tests use
/// this to shrink a scale-family graph to suite-friendly size while keeping
/// its degree shape.
pub fn sample_subgraph(g: &Graph, k: usize, seed: u64) -> Graph {
    let n = g.num_vertices();
    let k = k.min(n);
    let mut rng = StdRng::seed_from_u64(seed);
    // Floyd's algorithm: k distinct vertices, O(k) expected.
    let mut chosen = std::collections::HashSet::with_capacity(k);
    for j in n - k..n {
        let t = rng.gen_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let mut verts: Vec<usize> = chosen.into_iter().collect();
    verts.sort_unstable();
    let index: std::collections::HashMap<usize, usize> =
        verts.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut b = GraphBuilder::new(format!("{}[sub{k}]", g.name), verts.len(), g.feature_dim());
    // The source graph already materialises mirrors and self loops; copy its
    // stored pattern verbatim instead of re-running the preprocessing.
    b.undirected(false).self_loops(false);
    let a = g.adjacency();
    for (new_u, &u) in verts.iter().enumerate() {
        for &c in a.row_cols(u) {
            if let Some(&new_v) = index.get(&(c as usize)) {
                b.edge(new_u, new_v);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branchy float kernel the threshold kernel replaced: the oracle
    /// [`rmat_edges`] must match edge for edge.
    fn rmat_edge_reference(scale: u32, seed: u64, e: u64) -> (usize, usize) {
        let mut s = splitmix64(seed ^ e.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            s = splitmix64(s);
            let r = (s >> 11) as f64 / (1u64 << 53) as f64;
            let (bu, bv) = if r < 0.57 {
                (0, 0)
            } else if r < 0.76 {
                (0, 1)
            } else if r < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | bu;
            v = (v << 1) | bv;
        }
        (u, v)
    }

    /// `GraphBuilder` fed the reference kernel's edge stream.
    fn rmat_reference(scale: u32, edge_factor: usize, feature_dim: usize, seed: u64) -> Graph {
        let n = 1usize << scale;
        let mut b = GraphBuilder::new("r", n, feature_dim);
        for e in 0..(edge_factor * n) as u64 {
            let (u, v) = rmat_edge_reference(scale, seed, e);
            b.edge(u, v);
        }
        b.build()
    }

    #[test]
    fn thresholds_round_trip_exactly() {
        for (t, p) in [(T_A, 0.57), (T_AB, 0.76), (T_ABC, 0.95)] {
            assert_eq!(t as f64 / (1u64 << 53) as f64, p, "threshold of {p}");
        }
    }

    #[test]
    fn kernel_matches_the_float_reference_on_every_edge() {
        for scale in [1u32, 8, 14] {
            let m = (SCALE_EDGE_FACTOR << scale) as u64;
            for seed in [0, 1, 7, 91, u64::MAX] {
                for first in (0..m).step_by(LANES) {
                    let reference: [_; LANES] =
                        std::array::from_fn(|l| rmat_edge_reference(scale, seed, first + l as u64));
                    assert_eq!(
                        rmat_edges::<LANES>(scale, seed, first),
                        reference,
                        "scale {scale} seed {seed} edges from {first}"
                    );
                }
            }
            // A single lane is the same kernel.
            assert_eq!(rmat_edges::<1>(scale, 3, m - 1), [rmat_edge_reference(scale, 3, m - 1)]);
        }
    }

    /// The streamed build must match `GraphBuilder` fed the same edge stream.
    #[test]
    fn streamed_build_matches_graph_builder() {
        for seed in [0, 7, 91] {
            let streamed = rmat("r", 8, SCALE_EDGE_FACTOR, 16, seed);
            let reference = rmat_reference(8, SCALE_EDGE_FACTOR, 16, seed);
            assert_eq!(streamed.adjacency(), reference.adjacency(), "seed {seed}");
        }
    }

    /// The range split is invisible in the output: uneven ranges (2,048
    /// edges in 3), more ranges than edges (2 edges in 8), and scale 1.
    #[test]
    fn range_count_does_not_change_the_graph() {
        for (scale, edge_factor, seed) in [(8u32, 8usize, 3u64), (5, 3, 0), (1, 8, 5), (1, 1, 9)] {
            let reference = rmat_reference(scale, edge_factor, 4, seed);
            for parts in [1, 2, 3, 8] {
                let g = rmat_in_ranges("r", scale, edge_factor, 4, seed, parts);
                assert_eq!(
                    g.adjacency(),
                    reference.adjacency(),
                    "scale {scale} edge factor {edge_factor} seed {seed} parts {parts}"
                );
            }
        }
    }

    #[test]
    fn chung_lu_scaled_matches_graph_builder() {
        let (scale, ef, gamma, seed) = (9u32, 4usize, 2.1, 3u64);
        let streamed = chung_lu_scaled("cl", scale, ef, gamma, 8, seed);
        // Feed the identical replayed stream through GraphBuilder.
        let n = 1usize << scale;
        let alpha = 1.0 / (gamma - 1.0);
        let mut weights: Vec<f64> = (0..n).map(|i| ((i + 5) as f64).powf(-alpha)).collect();
        let wsum: f64 = weights.iter().sum();
        let scale_w = (2.0 * (ef * n) as f64) / wsum;
        for w in &mut weights {
            *w *= scale_w;
        }
        let total_w: f64 = weights.iter().sum();
        let mut b = GraphBuilder::new("cl", n, 8);
        chung_lu_stream(&weights, total_w, seed, &mut |u, v| {
            b.edge(u, v);
        });
        assert_eq!(streamed.adjacency(), b.build().adjacency());
    }

    #[test]
    fn rmat_is_deterministic_and_seed_sensitive() {
        let a = rmat("r", 7, 8, 8, 1);
        let b = rmat("r", 7, 8, 8, 1);
        let c = rmat("r", 7, 8, 8, 2);
        assert_eq!(a.adjacency(), b.adjacency());
        assert_ne!(a.adjacency().col_idx(), c.adjacency().col_idx());
    }

    #[test]
    fn rmat_is_skewed_toward_low_ids() {
        // Quadrant probabilities concentrate mass on low vertex ids: vertex 0
        // must be a hub far above the mean degree.
        let g = rmat("r", 10, 8, 8, 5);
        let mean = g.adjacency().mean_degree();
        let hub = g.degree(0) as f64;
        assert!(hub > 8.0 * mean, "hub {hub} vs mean {mean}");
    }

    #[test]
    fn scale_graph_resolves_the_family() {
        let g = scale_graph("rmat-6", 11).expect("rmat family");
        assert_eq!(g.num_vertices(), 64);
        assert_eq!(g.feature_dim(), SCALE_FEATURE_DIM);
        let cl = scale_graph("chung-lu-6", 11).expect("chung-lu family");
        assert_eq!(cl.num_vertices(), 64);
        assert!(scale_graph("rmat-99", 11).is_none(), "scale cap");
        assert!(scale_graph("rmat-x", 11).is_none());
        assert!(scale_graph("cora", 11).is_none(), "registry names are not ours");
        assert_eq!(parse_spec("RMAT-20"), Some(("rmat", 20)));
        assert_eq!(parse_spec("Chung-Lu-26"), Some(("chung-lu", 26)));
        assert_eq!(parse_spec("rmat-27"), None, "scale cap");
        assert_eq!(parse_spec("rmat-0"), None);
        assert_eq!(parse_spec("erdos-12"), None);
    }

    #[test]
    fn sample_subgraph_preserves_stored_structure() {
        let g = rmat("r", 8, 4, 8, 9);
        let sub = sample_subgraph(&g, 50, 13);
        assert_eq!(sub.num_vertices(), 50);
        assert_eq!(sub.feature_dim(), g.feature_dim());
        // Every sampled vertex keeps its self loop (the source graph has one
        // on every vertex), so no degree is zero.
        assert!((0..50).all(|v| sub.degree(v) >= 1));
        // Determinism.
        let again = sample_subgraph(&g, 50, 13);
        assert_eq!(sub.adjacency(), again.adjacency());
    }
}
