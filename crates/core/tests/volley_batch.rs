//! The byte-level volley reader against the string reader it replaces.
//!
//! `VolleyBatch::parse` scans ASCII lines in place and sends every other
//! line through `split_whitespace` and `Time::from_str`. These properties
//! feed both readers random texts built from the fragments that tell the
//! two paths apart — Unicode whitespace, `∞`, signs, 20-digit numbers,
//! comments, CRLF — and require the same rows or the same error message.

use proptest::prelude::*;
use st_core::{Time, VolleyBatch};

const FRAGMENTS: &[&str] = &[
    "0",
    "7",
    "42",
    "254",
    "255",
    "007",
    "+3",
    "-1",
    " ",
    " ",
    "  ",
    "\t",
    "\n",
    "\n",
    "\r\n",
    "\r",
    "\u{b}",
    "\u{c}",
    "\u{1c}",
    "#",
    "# note ∞\n",
    "inf",
    "INF",
    "Infinity",
    "infinit",
    "∞",
    "\u{a0}",
    "\u{2003}",
    "x",
    "9999999999999999999",
    "18446744073709551614",
    "18446744073709551615",
    "99999999999999999999",
];

/// The reader `spacetime batch` used before `VolleyBatch::parse`, plus
/// its width check: the first ragged volley is the error.
fn reference(text: &str, path: &str, width: usize) -> Result<Vec<Vec<Time>>, String> {
    let mut rows = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let row: Result<Vec<Time>, String> = line
            .split_whitespace()
            .map(|tok| {
                tok.parse::<Time>()
                    .map_err(|e| format!("{path}:{}: {e}", lineno + 1))
            })
            .collect();
        rows.push(row?);
    }
    if let Some(index) = rows.iter().position(|r| r.len() != width) {
        return Err(format!(
            "{path}: volley {index} failed: ArityMismatch {{ expected: {width}, actual: {} }}",
            rows[index].len()
        ));
    }
    Ok(rows)
}

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..FRAGMENTS.len(), 0..48)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

#[test]
fn edge_cases_agree_with_the_string_reader() {
    let rows = "# header\n3 4 5\n\n0 1 2   # c\n1 0 inf\r\n2\t2\u{b}0\r\n  \nINF 0 1\n\
                0 infinity 2\n∞ ∞ 0\n5\u{a0}6 7\n+7 007 18446744073709551614\n\
                9999999999999999999 0 0";
    let bad_literals = [
        "0 1 2\n1 x 2\n",
        "0 1 2\n1 2 18446744073709551615\n",
        "0 1 2\n1 2 99999999999999999999\n",
        "0 1 2\n1 2 -3\n",
        "0 1 2\n1 \u{1}\n",
        "0 1 2\n1 2 ∞x\n",
        "0 1 2\n\n1 2\n0 oops 1\n",
    ];
    for text in std::iter::once(rows).chain(bad_literals) {
        let got = VolleyBatch::parse(text, "v.txt", 3)
            .map(|batch| batch.rows().map(<[Time]>::to_vec).collect::<Vec<_>>())
            .map_err(|e| e.to_string());
        assert_eq!(got, reference(text, "v.txt", 3), "text {text:?}");
    }
    assert!(VolleyBatch::parse(rows, "v.txt", 3).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parse_agrees_with_the_string_reader(text in arb_text(), width in 1usize..4) {
        let got = VolleyBatch::parse(&text, "v.txt", width)
            .map(|batch| batch.rows().map(<[Time]>::to_vec).collect::<Vec<_>>())
            .map_err(|e| e.to_string());
        prop_assert_eq!(got, reference(&text, "v.txt", width), "text {:?}", text);
    }

    #[test]
    fn written_text_is_volley_display_and_parses_back(text in arb_text()) {
        let Ok(batch) = VolleyBatch::parse(&text, "v.txt", 2) else {
            return Ok(());
        };
        let mut out = Vec::new();
        batch.write_text(&mut out);
        let shown: String = batch.to_volleys().iter().map(|v| format!("{v}\n")).collect();
        prop_assert_eq!(String::from_utf8(out).unwrap(), shown);
        let exact = batch.times().iter().filter_map(|t| t.value()).max();
        prop_assert_eq!(batch.max_finite(), exact);
    }
}
