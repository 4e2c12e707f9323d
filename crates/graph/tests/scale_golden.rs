//! Golden pins for the scale-family generators: every generated CSR must stay
//! bit-identical to the one the original serial two-pass builder produced.
//!
//! Each pin is an FNV-1a 64 hash over `row_ptr` then `col_idx`, fed as
//! little-endian `u32` words. A generator change that alters even one column
//! index moves the hash.

use omega_graph::scale_graph;

fn fnv1a64(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn check(spec: &str, seed: u64, hash: u64, nnz: Option<usize>) {
    let g = scale_graph(spec, seed).expect("scale-family name");
    let a = g.adjacency();
    if let Some(nnz) = nnz {
        assert_eq!(a.col_idx().len(), nnz, "{spec} seed {seed}: nnz");
    }
    let got = fnv1a64(a.row_ptr().iter().chain(a.col_idx()).copied());
    assert_eq!(got, hash, "{spec} seed {seed}: got {got:#018x}, pinned {hash:#018x}");
}

#[test]
fn rmat_10_seed_1() {
    check("rmat-10", 1, 0x45ed_bae9_11a7_0dd5, Some(13_076));
}

#[test]
fn rmat_16_seeds_1_and_11() {
    check("rmat-16", 1, 0x550c_1a84_a492_a133, Some(1_020_102));
    check("rmat-16", 11, 0x159d_df97_0446_7406, None);
}

#[test]
fn chung_lu_10_seed_3() {
    check("chung-lu-10", 3, 0x0e44_1d06_6620_9a65, None);
}

#[test]
fn chung_lu_16_seed_1() {
    check("chung-lu-16", 1, 0x3b6e_2481_e518_e0b9, None);
}

/// Too slow for the debug test profile; CI runs it with
/// `cargo test --release -p omega_graph --test scale_golden -- --ignored`.
#[test]
#[ignore]
fn rmat_18_seed_1() {
    check("rmat-18", 1, 0x91c4_ed94_2262_1bd0, Some(4_201_474));
}
