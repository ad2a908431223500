//! Seeded input generation: the only place a workload's inputs come from.
//!
//! Every generated file is a pure function of `(workload, seed)` (plus the
//! committed `examples/data/sorter4.net`, copied in unchanged), so the same
//! seed gives byte-identical inputs on every machine. The program under
//! test only ever sees these files.

use std::fmt::Write as _;
use std::path::Path;

use spacetime::core::{enumerate_inputs, FunctionTable};

use crate::Workload;

/// The committed sorter netlist the kernel workloads run.
pub const SORTER_PATH: &str = "examples/data/sorter4.net";

/// Volleys per `stream-sort-kernel` pass: large enough that parse and
/// format dominate the process, as they do for real volley files.
pub const SORT_VOLLEYS: usize = 100_000;
/// Rows of the `stream-table-net` table (about 1,100 gates once
/// synthesized), so the event-driven gate loop dominates.
pub const NET_TABLE_ROWS: usize = 120;
/// Volleys per `stream-table-net` pass.
pub const NET_VOLLEYS: usize = 1_500;
/// Rows of the `verify-synth` table: small enough for about forty passes
/// in a 20-second run, large enough that the GRL simulation inside
/// `check_equiv` still sets the time to verdict.
pub const VERIFY_TABLE_ROWS: usize = 12;
/// Volleys per `burst-64` batch.
pub const BURST_BATCH: usize = 64;
/// Batches per `burst-64` pass.
pub const BURST_BATCHES: usize = 400;

/// Finite entries per table row, cycled by row index. Of the distinct
/// normalized arity-4 patterns over `{0, 1, 2, inf}`, 30 have two finite
/// entries, 76 three and 65 four; a 120-row table takes 20, 60 and 40.
const FINITE_ENTRY_CYCLE: [usize; 6] = [3, 4, 2, 3, 4, 3];
/// The largest finite spike time in generated volleys.
const VOLLEY_MAX_TIME: u64 = 15;
/// The verification window of the generated tables: every finite row
/// entry is at most 2, so `spacetime verify` picks its default window 4.
pub const VERIFY_WINDOW: u64 = 4;

/// `SplitMix64`: a tiny, fully specified generator, so inputs do not depend
/// on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(workload, seed)` pair.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One generated file: its name inside the work directory and its bytes.
pub type File = (&'static str, Vec<u8>);

/// Generates every input file of `workload` for `seed`.
///
/// # Errors
///
/// The committed sorter netlist cannot be read, or no one-row mutant of
/// the verify table changes its function (never seen; reported rather
/// than silently skipping the counterexample check).
pub fn generate(workload: Workload, seed: u64, root: &Path) -> Result<Vec<File>, String> {
    let mut rng = Rng::new(seed, workload as u64 + 1);
    let sorter = || {
        std::fs::read(root.join(SORTER_PATH)).map_err(|e| format!("cannot read {SORTER_PATH}: {e}"))
    };
    Ok(match workload {
        Workload::StreamSortKernel => vec![
            ("sorter4.net", sorter()?),
            ("volleys.txt", volley_text(&mut rng, SORT_VOLLEYS)),
            ("empty.txt", Vec::new()),
        ],
        Workload::StreamTableNet => vec![
            (
                "spec.table",
                table_text(&mut rng, NET_TABLE_ROWS).into_bytes(),
            ),
            ("volleys.txt", volley_text(&mut rng, NET_VOLLEYS)),
            ("empty.txt", Vec::new()),
        ],
        Workload::VerifySynth => {
            let spec = table_text(&mut rng, VERIFY_TABLE_ROWS);
            let mutant = mutant_text(&mut rng, &spec)?;
            vec![
                ("spec.table", spec.into_bytes()),
                ("mutant.table", mutant.into_bytes()),
                ("empty.txt", Vec::new()),
            ]
        }
        Workload::Burst64 => vec![
            ("sorter4.net", sorter()?),
            (
                "volleys.txt",
                volley_text(&mut rng, BURST_BATCH * BURST_BATCHES),
            ),
        ],
    })
}

/// Width-4 volleys with times `0..=15` and about 10% `inf`: every value
/// fits the kernel's lane bound, so every batch takes the SWAR path.
fn volley_text(rng: &mut Rng, count: usize) -> Vec<u8> {
    let mut out = String::with_capacity(count * 12);
    for _ in 0..count {
        for line in 0..4 {
            if line > 0 {
                out.push(' ');
            }
            if rng.below(10) == 0 {
                out.push_str("inf");
            } else {
                let _ = write!(out, "{}", rng.below(VOLLEY_MAX_TIME + 1));
            }
        }
        out.push('\n');
    }
    out.into_bytes()
}

/// A normalized, causal arity-4 table with distinct rows: entries in
/// `{0, 1, 2, inf}` with at least one `0`, and each output one or two
/// ticks after the row's latest finite entry.
///
/// The rows' shapes are fixed by their index, not drawn: the count of
/// finite entries cycles through [`FINITE_ENTRY_CYCLE`] and the output
/// offset alternates. Only the values and positions are random. This keeps
/// the synthesized network's size, and so the workload's cost, nearly the
/// same for every seed.
fn table_text(rng: &mut Rng, rows: usize) -> String {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = String::new();
    while seen.len() < rows {
        let index = seen.len();
        let finite = FINITE_ENTRY_CYCLE[index % FINITE_ENTRY_CYCLE.len()];
        let mut entries: [Option<u64>; 4] = [None; 4];
        let mut placed = 0;
        while placed < finite {
            let at = rng.below(4) as usize;
            if entries[at].is_none() {
                entries[at] = Some(if placed == 0 { 0 } else { rng.below(3) });
                placed += 1;
            }
        }
        if !seen.insert(entries) {
            continue;
        }
        let latest = entries.iter().flatten().max().copied().unwrap_or(0);
        let output = latest + 1 + ((index / FINITE_ENTRY_CYCLE.len()) % 2) as u64;
        let cells: Vec<String> = entries
            .iter()
            .map(|e| e.map_or_else(|| "inf".to_owned(), |v| v.to_string()))
            .collect();
        let _ = writeln!(out, "{} -> {output}", cells.join(" "));
    }
    out
}

/// The spec with one row's output moved one tick later, choosing (from a
/// seeded start) the first row whose change alters the function inside the
/// verification window, so `verify --against` must find a counterexample.
fn mutant_text(rng: &mut Rng, spec: &str) -> Result<String, String> {
    let lines: Vec<&str> = spec.lines().collect();
    let original = FunctionTable::parse(spec).map_err(|e| e.to_string())?;
    let start = rng.below(lines.len() as u64) as usize;
    for offset in 0..lines.len() {
        let row = (start + offset) % lines.len();
        let (inputs, output) = lines[row]
            .split_once("->")
            .ok_or("generated row without an arrow")?;
        let output: u64 = output.trim().parse().map_err(|_| "generated bad output")?;
        let mut candidate: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
        candidate[row] = format!("{}-> {}", inputs, output + 1);
        let text = candidate.join("\n") + "\n";
        let mutant = FunctionTable::parse(&text).map_err(|e| e.to_string())?;
        let differs = enumerate_inputs(4, VERIFY_WINDOW)
            .any(|volley| original.eval(&volley).ok() != mutant.eval(&volley).ok());
        if differs {
            return Ok(text);
        }
    }
    Err("no one-row mutant changes the table's function".to_owned())
}

/// FNV-1a over a file's bytes: the digest every result records per input.
#[must_use]
pub fn digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
    format!("fnv1a64:{hash:016x}")
}
