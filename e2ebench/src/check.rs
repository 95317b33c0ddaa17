//! The correctness check: an artifact against its reference, cell by
//! cell.
//!
//! All three artifact JSON documents share one layout: a frame of
//! suite-level fields around a list of row objects, each opening with a
//! line `    {` and closing with `    }` or `    },`. A report or sweep
//! row holds one predictor's MPKI on every benchmark (`"mpki": [...]`,
//! one cell each); a scenario row is one predictor's run (one cell).
//! Every byte of the document falls in the frame or in one row, so any
//! byte that differs fails at least one cell.

/// A rendered artifact: the JSON and Markdown documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc {
    /// The `.json` artifact text.
    pub json: String,
    /// The `.md` artifact text.
    pub md: String,
}

/// Outcome of one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Verdict {
    /// Cells compared (the reference's cell count).
    pub cells: u64,
    /// Cells whose result differs from the reference.
    pub failed: u64,
}

/// Splits an artifact JSON document into its frame (every line outside
/// a row object) and its row objects.
fn split_rows(json: &str) -> (String, Vec<&str>) {
    let mut frame = String::new();
    let mut rows = Vec::new();
    let mut row_start: Option<usize> = None;
    let mut offset = 0;
    for line in json.split_inclusive('\n') {
        let bare = line.trim_end_matches('\n');
        match row_start {
            None if bare == "    {" => row_start = Some(offset),
            None => frame.push_str(line),
            Some(start) if bare == "    }" || bare == "    }," => {
                rows.push(&json[start..offset + line.len()]);
                row_start = None;
            }
            Some(_) => {}
        }
        offset += line.len();
    }
    if let Some(start) = row_start {
        // An unterminated row cannot be matched up: keep it in the
        // frame, which then differs as a whole.
        frame.push_str(&json[start..]);
    }
    (frame, rows)
}

/// A row's per-cell MPKI values (`"mpki": [a, b, ...]`) and the row
/// text without the lines derived from them (`mpki`, `mean_mpki`).
fn row_cells(row: &str) -> (Vec<&str>, String) {
    let mut cells = Vec::new();
    let mut rest = String::new();
    for line in row.split_inclusive('\n') {
        let trimmed = line.trim();
        if let Some(list) = trimmed.strip_prefix("\"mpki\": [") {
            cells = list
                .trim_end_matches(',')
                .trim_end_matches(']')
                .split(", ")
                .collect();
        } else if !trimmed.starts_with("\"mean_mpki\": ") {
            rest.push_str(line);
        }
    }
    (cells, rest)
}

/// Compares `got` with `reference`, `cells_per_row` cells to a row.
///
/// A row that differs only in its MPKI list fails the cells whose
/// values differ; a row that differs anywhere else fails all its cells
/// (its other fields aggregate every cell). A frame, row-count or
/// Markdown difference fails every cell.
pub fn compare(reference: &Doc, got: &Doc, cells_per_row: usize) -> Verdict {
    let (ref_frame, ref_rows) = split_rows(&reference.json);
    let (got_frame, got_rows) = split_rows(&got.json);
    let cells = (ref_rows.len() * cells_per_row).max(1) as u64;
    if ref_frame != got_frame || ref_rows.len() != got_rows.len() || reference.md != got.md {
        return Verdict {
            cells,
            failed: cells,
        };
    }
    let mut failed = 0u64;
    for (r, g) in ref_rows.iter().zip(&got_rows) {
        if r == g {
            continue;
        }
        let (ref_cells, ref_rest) = row_cells(r);
        let (got_cells, got_rest) = row_cells(g);
        let differing = ref_cells
            .iter()
            .zip(&got_cells)
            .filter(|(a, b)| a != b)
            .count();
        let whole_row = cells_per_row == 1
            || ref_rest != got_rest
            || ref_cells.len() != cells_per_row
            || got_cells.len() != cells_per_row
            || differing == 0;
        failed += if whole_row { cells_per_row } else { differing } as u64;
    }
    if failed == 0 && reference.json != got.json {
        failed = 1;
    }
    Verdict { cells, failed }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "{\n  \"suite\": \"s\",\n  \"rows\": [\n    {\n      \"name\": \"a\",\n      \"mean_mpki\": 1.5,\n      \"mpki\": [1.0, 2.0],\n      \"x\": 1\n    },\n    {\n      \"name\": \"b\",\n      \"mean_mpki\": 3.5,\n      \"mpki\": [3.0, 4.0],\n      \"x\": 2\n    }\n  ]\n}\n";

    fn doc(json: &str) -> Doc {
        Doc {
            json: json.to_owned(),
            md: "# t\n".to_owned(),
        }
    }

    #[test]
    fn identical_documents_pass() {
        let v = compare(&doc(DOC), &doc(DOC), 2);
        assert_eq!(
            v,
            Verdict {
                cells: 4,
                failed: 0
            }
        );
    }

    #[test]
    fn one_cell_fails_alone() {
        let got = DOC
            .replace("[3.0, 4.0]", "[3.0, 4.5]")
            .replace("3.5,", "3.75,");
        assert_eq!(compare(&doc(DOC), &doc(&got), 2).failed, 1);
    }

    #[test]
    fn aggregate_difference_fails_the_row() {
        let got = DOC.replace("\"x\": 2", "\"x\": 3");
        assert_eq!(compare(&doc(DOC), &doc(&got), 2).failed, 2);
    }

    #[test]
    fn frame_or_markdown_difference_fails_everything() {
        let got = DOC.replace("\"s\"", "\"t\"");
        assert_eq!(compare(&doc(DOC), &doc(&got), 2).failed, 4);
        let mut md = doc(DOC);
        md.md.push('!');
        assert_eq!(compare(&doc(DOC), &md, 2).failed, 4);
    }

    #[test]
    fn every_single_byte_change_fails_a_cell() {
        for i in 0..DOC.len() {
            let mut bytes = DOC.as_bytes().to_vec();
            bytes[i] ^= 0x01;
            let got = String::from_utf8_lossy(&bytes).into_owned();
            assert!(compare(&doc(DOC), &doc(&got), 2).failed >= 1, "byte {i}");
        }
    }
}
