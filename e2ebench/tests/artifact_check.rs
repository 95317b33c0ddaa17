//! The correctness check against the committed artifacts: it passes
//! them unchanged and flags any one-byte change.

use e2ebench::check::{compare, Doc};
use e2ebench::workload::{committed_doc, Inputs, Scale, Workload};

/// Flips one bit of byte `i` of `text`.
fn flip(text: &str, i: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    bytes[i] ^= 0x01;
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn committed_artifacts_pass_and_every_one_byte_change_fails() {
    let inputs = Inputs::new(0, Scale::artifact());
    for workload in Workload::ALL {
        let reference = committed_doc(workload).expect("committed artifact");
        let (cells, per_row) = inputs.cells(workload);
        let clean = compare(&reference, &reference.clone(), per_row);
        assert_eq!(clean.cells, cells as u64, "{workload:?} cell count");
        assert_eq!(clean.failed, 0);

        // Every 7th byte of the JSON (and its first and last), and a
        // spread of Markdown bytes.
        let json_len = reference.json.len();
        let positions = (0..json_len).step_by(7).chain([json_len - 1]);
        for i in positions {
            let got = Doc {
                json: flip(&reference.json, i),
                md: reference.md.clone(),
            };
            let verdict = compare(&reference, &got, per_row);
            assert!(
                verdict.failed >= 1,
                "{workload:?}: json byte {i} not flagged"
            );
        }
        for i in (0..reference.md.len()).step_by(97) {
            let got = Doc {
                json: reference.json.clone(),
                md: flip(&reference.md, i),
            };
            assert_eq!(compare(&reference, &got, per_row).failed, cells as u64);
        }
    }
}

#[test]
fn one_changed_mpki_value_fails_one_sweep_cell() {
    let reference = committed_doc(Workload::SweepPaper).expect("committed artifact");
    // The first row's first MPKI and its mean, as a faster simulator
    // with a changed statistic would print them.
    let got = Doc {
        json: reference
            .json
            .replacen("\"mpki\": [7.429211,", "\"mpki\": [7.429212,", 1)
            .replacen("\"mean_mpki\": 18.144994,", "\"mean_mpki\": 18.144995,", 1),
        md: reference.md.clone(),
    };
    assert_ne!(got.json, reference.json);
    assert_eq!(compare(&reference, &got, 8).failed, 1);
}
