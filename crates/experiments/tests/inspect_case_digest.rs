//! Frozen `inspect_case` output at reduced scale.
//!
//! The binary runs with `--cases 3 --jobs 20 --access-points 5 --servers 4
//! --opt-nodes 20000` (CI's scale) for two seeds, and its whole stdout is
//! folded into one FNV-1a digest per seed. The digests were recorded from
//! the output of the binary while it still read its lowest-priority probes
//! through the naive reference bounds, so the evaluator-based probes must
//! print the same bytes.

use std::process::Command;

/// The reduced scale, as `inspect_case` flags.
const FLAGS: [&str; 10] = [
    "--cases",
    "3",
    "--jobs",
    "20",
    "--access-points",
    "5",
    "--servers",
    "4",
    "--opt-nodes",
    "20000",
];

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn reduced_scale_output_matches_the_frozen_digests() {
    for (seed, digest) in [(2024u64, 0xb831_1985_1f56_e6ab), (7, 0x25c3_212d_30c9_03f2)] {
        let output = Command::new(env!("CARGO_BIN_EXE_inspect_case"))
            .args(FLAGS)
            .args(["--seed", &seed.to_string()])
            .output()
            .expect("inspect_case runs");
        assert!(output.status.success(), "seed {seed}: {output:?}");
        let text = String::from_utf8_lossy(&output.stdout);
        assert_eq!(fnv1a(&output.stdout), digest, "seed {seed} moved:\n{text}");
    }
}
