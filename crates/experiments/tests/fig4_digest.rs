//! Frozen Fig. 4 at reduced scale.
//!
//! Every panel is rendered with `--cases 3 --jobs 20 --access-points 5
//! --servers 4 --opt-nodes 20000` (seed 2024) and the exact text
//! `fig4 --panel X` prints is folded into one FNV-1a digest per panel. The
//! digests were recorded from the stdout of the four per-panel binaries
//! that `fig4` replaced (panels A–C re-recorded from `fig4` when OPT's
//! undecided column became an integer count), so any change to a cell, a
//! label, the column layout or the title shows up here. The table is also
//! read back: OPT dominates DMR and OPDCA on every acceptance row, OPT's
//! undecided cases are a count, and each panel has the paper's number of
//! points.

use msmr_experiments::cli::RunOptions;
use msmr_experiments::{render, Panel};

/// The reduced scale, as the `fig4` flags that produce it.
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

/// FNV-1a over the bytes of a string.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The cells of every data row of a rendered table (title, header and
/// separator lines skipped).
fn data_rows(text: &str) -> Vec<Vec<&str>> {
    text.lines()
        .skip(3)
        .filter(|line| !line.is_empty())
        .map(|line| line.trim_matches('|').split('|').map(str::trim).collect())
        .collect()
}

#[test]
fn reduced_scale_figure_matches_the_frozen_digests() {
    let options = RunOptions::parse_from(FLAGS.iter().map(ToString::to_string)).unwrap();
    let expected: [(Panel, u64, usize); 4] = [
        (Panel::A, 0x3a92_48b8_8e46_e96e, 4),
        (Panel::B, 0x21ea_deb2_8140_3e3f, 4),
        (Panel::C, 0x6872_a65c_2ef8_70a6, 4),
        (Panel::D, 0xed52_2dbe_bbaa_e810, 6),
    ];
    for (panel, digest, points) in expected {
        let text = render(panel, &options).unwrap();
        assert_eq!(fnv1a(&text), digest, "{panel:?} moved:\n{text}");
        let rows = data_rows(&text);
        assert_eq!(rows.len(), points, "{panel:?}");
        if panel == Panel::D {
            continue;
        }
        // Columns: parameter, DM, DMR, OPDCA, OPT, DCMP, OPT undecided.
        for row in rows {
            let ratio = |column: usize| row[column].parse::<f64>().unwrap();
            assert!(ratio(4) >= ratio(2), "{panel:?} {}: OPT < DMR", row[0]);
            assert!(ratio(4) >= ratio(3), "{panel:?} {}: OPT < OPDCA", row[0]);
            let undecided = row[6].parse::<usize>();
            assert!(undecided.is_ok(), "{panel:?} {}: {:?}", row[0], row[6]);
        }
    }
}
