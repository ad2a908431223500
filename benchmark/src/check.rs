//! Independent references for every output the benchmark times.
//!
//! Volley files are re-read here with the benchmark's own tokenizer and
//! outputs are rendered with its own formatter, so a defect in the CLI's
//! reader or writer cannot hide behind the same code on both sides.

use spacetime::core::{FunctionTable, Time};

/// One volley as read by the benchmark: `None` is a silent line (`inf`).
pub type RefVolley = Vec<Option<u64>>;

/// Reads a generated volley file: whitespace-separated decimal ticks or
/// `inf`, one volley per line.
///
/// # Errors
///
/// A token that is neither.
pub fn read_volleys(text: &[u8]) -> Result<Vec<RefVolley>, String> {
    let text = std::str::from_utf8(text).map_err(|e| format!("volley file: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            line.split_whitespace()
                .map(|tok| match tok {
                    "inf" => Ok(None),
                    _ => tok
                        .parse()
                        .map(Some)
                        .map_err(|_| format!("bad token {tok:?}")),
                })
                .collect()
        })
        .collect()
}

/// The engines' spike-time value for a reference entry.
#[must_use]
pub fn to_time(entry: Option<u64>) -> Time {
    entry.map_or(Time::INFINITY, Time::finite)
}

/// Renders one output line the way `spacetime batch` documents it:
/// `[t1, t2, …]` with `∞` for silence.
pub fn render_line(out: &mut String, entries: impl IntoIterator<Item = Option<u64>>) {
    out.push('[');
    for (i, entry) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match entry {
            Some(v) => out.push_str(&v.to_string()),
            None => out.push('∞'),
        }
    }
    out.push_str("]\n");
}

/// The sorter's reference: each volley sorted ascending, silence last.
#[must_use]
pub fn sorted(volley: &RefVolley) -> RefVolley {
    let mut v = volley.clone();
    v.sort_by_key(|e| e.unwrap_or(u64::MAX));
    v
}

/// Expected `spacetime batch` output for the sorter over `volleys`.
#[must_use]
pub fn expected_sorter(volleys: &[RefVolley]) -> Vec<u8> {
    let mut out = String::with_capacity(volleys.len() * 16);
    for v in volleys {
        render_line(&mut out, sorted(v));
    }
    out.into_bytes()
}

/// Expected `spacetime batch` output for a table's synthesized network:
/// [`FunctionTable::eval`] of the source table on each volley.
///
/// # Errors
///
/// A volley of the wrong width.
pub fn expected_table(table: &FunctionTable, volleys: &[RefVolley]) -> Result<Vec<u8>, String> {
    let mut out = String::with_capacity(volleys.len() * 4);
    for v in volleys {
        let times: Vec<Time> = v.iter().copied().map(to_time).collect();
        let t = table.eval(&times).map_err(|e| format!("{e:?}"))?;
        render_line(&mut out, [t.value()]);
    }
    Ok(out.into_bytes())
}

/// Output lines that differ from the reference (missing and extra lines
/// count too); 0 exactly when the bytes agree.
#[must_use]
pub fn mismatched_lines(actual: &[u8], expected: &[u8]) -> u64 {
    if actual == expected {
        return 0;
    }
    let a: Vec<&[u8]> = actual.split(|&b| b == b'\n').collect();
    let e: Vec<&[u8]> = expected.split(|&b| b == b'\n').collect();
    let differing = a.iter().zip(&e).filter(|(x, y)| x != y).count();
    (differing + a.len().abs_diff(e.len())).max(1) as u64
}

/// The volleys `spacetime verify --json` reports having checked (the sum
/// over its proofs), or `None` when the report is not a clean proof of
/// both lowerings with no counterexample.
#[must_use]
pub fn proved_volleys(code: i32, json: &str) -> Option<u64> {
    if code != 0 || !json.contains("\"counterexamples\": []") {
        return None;
    }
    let proofs = section(json, "\"proofs\": [")?;
    let counts: Vec<u64> = proofs
        .match_indices("\"volleys\": ")
        .filter_map(|(at, key)| {
            let rest = &proofs[at + key.len()..];
            let end = rest.find(|c: char| !c.is_ascii_digit())?;
            rest[..end].parse().ok()
        })
        .collect();
    let lowerings = proofs
        .matches("\"left\": \"table\", \"right\": \"net\"")
        .count()
        + proofs
            .matches("\"left\": \"net\", \"right\": \"grl\"")
            .count();
    (lowerings == 2 && counts.len() == 2).then(|| counts.iter().sum())
}

/// Whether `spacetime verify --against <mutant> --json` gave the known
/// verdict: exit 1 with a counterexample on which the original table and
/// the mutant really differ, and whose left side is the original's value.
#[must_use]
pub fn refuted(code: i32, json: &str, original: &FunctionTable, mutant: &FunctionTable) -> bool {
    if code != 1 {
        return false;
    }
    let Some(cex) = section(json, "\"counterexamples\": [") else {
        return false;
    };
    let (Some(inputs), Some(left)) = (list(cex, "\"inputs\": ["), list(cex, "\"left_outputs\": ["))
    else {
        return false;
    };
    let times: Vec<Time> = inputs.into_iter().map(to_time).collect();
    match (original.eval(&times), mutant.eval(&times)) {
        (Ok(a), Ok(b)) => a != b && left == [a.value()],
        _ => false,
    }
}

/// The text of a JSON array opened by `key`, up to its matching `]`.
fn section<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(key)? + key.len();
    let mut depth = 1usize;
    for (i, c) in json[start..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// A flat array of ticks (`null` for silence) opened by `key`.
fn list(json: &str, key: &str) -> Option<Vec<Option<u64>>> {
    section(json, key)?
        .split(',')
        .map(|tok| match tok.trim() {
            "null" => Some(None),
            t => t.parse().ok().map(Some),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "0 1 inf 0 -> 2\n2 0 0 inf -> 3\n";
    const MUTANT: &str = "0 1 inf 0 -> 3\n2 0 0 inf -> 3\n";

    #[test]
    fn sorter_reference_sorts_with_silence_last() {
        let volleys = read_volleys(b"3 1 inf 0\n5 5 2 9\n").unwrap();
        assert_eq!(
            expected_sorter(&volleys),
            "[0, 1, 3, ∞]\n[2, 5, 5, 9]\n".as_bytes()
        );
    }

    #[test]
    fn a_corrupted_output_line_is_caught() {
        let volleys = read_volleys(b"3 1 inf 0\n5 5 2 9\n4 4 4 4\n").unwrap();
        let expected = expected_sorter(&volleys);
        assert_eq!(mismatched_lines(&expected, &expected), 0);
        let corrupted = String::from_utf8(expected.clone())
            .unwrap()
            .replace("[2, 5, 5, 9]", "[2, 5, 9, 5]");
        assert_eq!(mismatched_lines(corrupted.as_bytes(), &expected), 1);
        let truncated = &expected[..expected.len() - 13];
        assert!(mismatched_lines(truncated, &expected) >= 1);
        let table = FunctionTable::parse(SPEC).unwrap();
        let good = expected_table(&table, &volleys).unwrap();
        let bad = String::from_utf8(good.clone())
            .unwrap()
            .replacen('∞', "7", 1);
        assert!(mismatched_lines(bad.as_bytes(), &good) >= 1);
    }

    #[test]
    fn a_flipped_verdict_is_caught() {
        let proved = "\"proofs\": [\n { \"left\": \"table\", \"right\": \"net\", \"window\": 4, \"volleys\": 1296 },\n { \"left\": \"net\", \"right\": \"grl\", \"window\": 4, \"volleys\": 1296 }\n],\n\"counterexamples\": [],";
        assert_eq!(proved_volleys(0, proved), Some(2592));
        assert_eq!(proved_volleys(1, proved), None, "exit 1 is not a proof");
        let one_proof = proved.replacen(
            "\"left\": \"net\", \"right\": \"grl\"",
            "\"left\": \"net\", \"right\": \"net\"",
            1,
        );
        assert_eq!(
            proved_volleys(0, &one_proof),
            None,
            "a lowering went unproved"
        );

        let spec = FunctionTable::parse(SPEC).unwrap();
        let mutant = FunctionTable::parse(MUTANT).unwrap();
        let cex = "\"counterexamples\": [ { \"inputs\": [0, 1, null, 0], \"left_outputs\": [2], \"right_outputs\": [3] } ],";
        assert!(refuted(1, cex, &spec, &mutant));
        assert!(
            !refuted(0, cex, &spec, &mutant),
            "exit 0 is not a refutation"
        );
        assert!(!refuted(1, "\"counterexamples\": [],", &spec, &mutant));
        let bogus = cex.replace("[0, 1, null, 0]", "[2, 0, 0, null]");
        assert!(
            !refuted(1, &bogus, &spec, &mutant),
            "the tables agree there"
        );
    }
}
