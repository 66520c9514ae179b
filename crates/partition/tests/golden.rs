//! Golden partitions of the benchmark circuits.
//!
//! Pins `(cut, FxHash of assignment)` for the five circuits the
//! benchmark runs, at every k the drivers use, under the default
//! [`PartitionConfig`]. Any change to the move rule, the tie rule, the
//! seed assignment or the stopping rule shows up here.

use pf_partition::{partition_network, PartitionConfig};
use pf_sop::fx::FxHasher;
use pf_workloads::{generate, profile_by_name, scale_profile};
use std::hash::{Hash, Hasher};

/// `(profile, scale, k, cut, FxHash of the assignment)`.
const GOLDEN: &[(&str, f64, usize, u64, u64)] = &[
    ("des", 2.0, 2, 106, 0x6b719e600ad1361b),
    ("des", 2.0, 3, 173, 0x59c5d24f7c695edd),
    ("des", 2.0, 4, 185, 0xccf08154e67ebd2c),
    ("des", 2.0, 6, 230, 0x5957898117a1ff11),
    ("ex1010", 0.25, 2, 0, 0xe027631e4357e3ec),
    ("ex1010", 0.25, 3, 0, 0xcd9c18db2b065120),
    ("ex1010", 0.25, 4, 0, 0xaa481e0c1aa93be5),
    ("ex1010", 0.25, 6, 0, 0xc1989f9b61ff2b9c),
    ("dalu", 2.0, 2, 98, 0xe2db3a2d49603157),
    ("dalu", 2.0, 3, 160, 0x4effce694bd2ef21),
    ("dalu", 2.0, 4, 188, 0x7c82df2d0fe3261e),
    ("dalu", 2.0, 6, 229, 0xcf621281fb34c593),
    ("seq", 1.0, 2, 380, 0x65ca5713ceb7f84c),
    ("seq", 1.0, 3, 625, 0xd16237a36106785f),
    ("seq", 1.0, 4, 709, 0xf7aa6216099e33a3),
    ("seq", 1.0, 6, 832, 0x9d9dbd281e90ed13),
    ("misex3", 1.0, 2, 0, 0x4963ecf01ed22c24),
    ("misex3", 1.0, 3, 0, 0x0a0be0b808a8e3ee),
    ("misex3", 1.0, 4, 0, 0x3f1532eceabc6f95),
    ("misex3", 1.0, 6, 0, 0x44c01adbf17ab78d),
];

fn fingerprint(profile: &str, scale: f64, k: usize) -> (u64, u64) {
    let nw = generate(&scale_profile(&profile_by_name(profile).unwrap(), scale));
    let p = partition_network(&nw, k, &PartitionConfig::default());
    let mut h = FxHasher::default();
    p.assignment.hash(&mut h);
    (p.cut, h.finish())
}

#[test]
fn benchmark_circuits_partition_as_pinned() {
    for &(name, scale, k, cut, hash) in GOLDEN {
        assert_eq!(
            fingerprint(name, scale, k),
            (cut, hash),
            "{name}@{scale} k={k}: (cut, assignment hash) moved"
        );
    }
}
