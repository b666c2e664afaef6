//! Same answers: the served forests of a fresh generator, pinned bit for bit.
//!
//! A fresh [`ForestGenerator`] with [`ServerConfig::default`] over the
//! benchmark's synthetic San Francisco prior (the fixed `GowallaLikeConfig`
//! dataset on the SF grid, smoothing 0.5) generates, in this order, the level-1
//! forests δ = 0..=6 and then the level-2 forests δ ∈ {0, 5, 17, 33}.  The
//! order matters: later solves are warm-started from the seeds of earlier
//! ones.  Each forest's matrices are hashed over the bits of every
//! probability (FNV-1a, 64 bit), and the hash must equal the one recorded
//! before the lane-batched Newton kernels replaced the per-block kernels.
//!
//! The constants are for x86_64 Linux with glibc: the prior and the LP
//! objective go through `exp`, `ln` and trigonometric functions of the C
//! library, whose last bits may differ on another platform.  A change that
//! moves a served bit on purpose re-records the constants and says why.

use corgi::core::LocationTree;
use corgi::datagen::{GowallaLikeConfig, GowallaLikeGenerator, PriorDistribution};
use corgi::framework::{messages::MatrixRequest, ForestGenerator, ServerConfig};
use corgi::hexgrid::{HexGrid, HexGridConfig};

/// `(privacy_level, δ, FNV-1a hash of the forest's matrix bits)`, in
/// generation order.
const PINNED: [(u8, usize, u64); 11] = [
    (1, 0, 0xd6cb_9039_dc9f_6f19),
    (1, 1, 0x94d9_beba_782d_4295),
    (1, 2, 0x8fdf_b5a4_088b_6b8b),
    (1, 3, 0xcb0b_aada_77d2_26d3),
    (1, 4, 0xc3fc_2a31_fc4d_d119),
    (1, 5, 0x5f12_3a95_b7bf_90af),
    (1, 6, 0x69d4_946c_24a8_cb06),
    (2, 0, 0x59de_04f5_87dd_19d0),
    (2, 5, 0x9ad0_ee6e_c1c1_6590),
    (2, 17, 0x655b_24d9_5643_43bd),
    (2, 33, 0x0ae2_b526_5d05_1f91),
];

fn fnv1a(hash: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn served_forests_match_the_recorded_hashes() {
    let grid = HexGrid::new(HexGridConfig::san_francisco()).expect("the SF grid is valid");
    let (dataset, _) = GowallaLikeGenerator::new(GowallaLikeConfig::default()).generate(&grid);
    let prior = PriorDistribution::from_dataset(&grid, &dataset, 0.5);
    let generator = ForestGenerator::new(LocationTree::new(grid), prior, ServerConfig::default());

    let mut got = Vec::new();
    for &(privacy_level, delta, _) in &PINNED {
        let forest = generator
            .generate_serial(MatrixRequest {
                privacy_level,
                delta,
            })
            .expect("the forest generates");
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for entry in &forest.entries {
            for &p in entry.matrix.data() {
                fnv1a(&mut hash, p.to_bits());
            }
        }
        got.push((privacy_level, delta, hash));
    }
    for (want, got) in PINNED.iter().zip(&got) {
        eprintln!(
            "level {} δ {}: {:#018x} (pinned {:#018x})",
            got.0, got.1, got.2, want.2
        );
    }
    assert_eq!(got, PINNED, "a served forest changed bits");
}
