//! The bounded equivalence checker.
//!
//! Bounded space-time functions have finite normalized tables (§ IV),
//! so equivalence over a coding window is *decidable* by exhausting the
//! normalized input space: every volley whose entries are drawn from
//! `{0, …, w} ∪ {∞}`. The checker walks that space in order of
//! increasing window so the first disagreement it finds is a **minimal
//! counterexample** — no volley with a smaller temporal extent separates
//! the two sides.
//!
//! Each extent's volleys are enumerated into a reused [`VolleyBatch`] of
//! at most 4,096 rows, and both sides evaluate whole batches
//! ([`Evaluator::eval_batch`]), so memory does not grow with the domain.
//! The first differing row in enumeration order is the counterexample,
//! exactly as a volley-by-volley walk would find it.

use core::fmt;

use st_core::{enumerate_inputs, Time, VolleyBatch};
use st_trace::{Instrument, NullInstrument, SpanId};

use crate::eval::Evaluator;

/// A hard ceiling on volleys per check, guarding against accidentally
/// enormous `(window + 2)^width` domains.
const MAX_VOLLEYS: u64 = 4_000_000;

/// The most volleys evaluated in one batch.
const BATCH_ROWS: usize = 4_096;

/// A positive result: the two sides agreed on every normalized volley in
/// the window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivProof {
    /// Tag of the left evaluator.
    pub left: String,
    /// Tag of the right evaluator.
    pub right: String,
    /// The coding window that was exhausted.
    pub window: u64,
    /// How many volleys were compared.
    pub volleys: u64,
}

impl fmt::Display for EquivProof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ≡ {} over window {} ({} volleys)",
            self.left, self.right, self.window, self.volleys
        )
    }
}

/// A refutation: a concrete input volley on which the two sides
/// disagree, minimal in temporal extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Tag of the left evaluator.
    pub left: String,
    /// Tag of the right evaluator.
    pub right: String,
    /// The separating input volley.
    pub inputs: Vec<Time>,
    /// The left side's full output volley.
    pub left_outputs: Vec<Time>,
    /// The right side's full output volley.
    pub right_outputs: Vec<Time>,
    /// The first output line on which the sides differ.
    pub output: usize,
}

impl Counterexample {
    /// The separating volley in the whitespace text form that
    /// `spacetime batch <artifact> --volleys <file>` replays.
    #[must_use]
    pub fn volley_line(&self) -> String {
        let cells: Vec<String> = self.inputs.iter().map(ToString::to_string).collect();
        cells.join(" ")
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "on input [{}]: {} says {}, {} says {} (output {})",
            self.volley_line(),
            self.left,
            self.left_outputs[self.output],
            self.right,
            self.right_outputs[self.output],
            self.output
        )
    }
}

/// The outcome of a bounded equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum EquivResult {
    /// The sides agree on the whole normalized window.
    Proved(EquivProof),
    /// The sides disagree; the witness is minimal in temporal extent.
    Refuted(Counterexample),
}

impl EquivResult {
    /// The proof, if the check succeeded.
    #[must_use]
    pub fn proof(&self) -> Option<&EquivProof> {
        match self {
            EquivResult::Proved(p) => Some(p),
            EquivResult::Refuted(_) => None,
        }
    }

    /// The counterexample, if the check failed.
    #[must_use]
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            EquivResult::Proved(_) => None,
            EquivResult::Refuted(c) => Some(c),
        }
    }
}

/// Exhaustively compares two evaluators over every normalized volley
/// with entries in `{0, …, window} ∪ {∞}`.
///
/// Volleys are visited in order of increasing temporal extent (all
/// volleys of extent `w` before any of extent `w + 1`), so a refutation
/// carries a minimal counterexample.
///
/// # Errors
///
/// Returns a message when the two sides have incompatible shapes, an
/// evaluation fails, or the domain exceeds the safety ceiling — these
/// are operational failures, not semantic verdicts.
pub fn check_equiv(
    left: &dyn Evaluator,
    right: &dyn Evaluator,
    window: u64,
) -> Result<EquivResult, String> {
    check_equiv_traced(left, right, window, &mut NullInstrument, SpanId::NONE)
}

/// [`check_equiv`] with one `verify.window` span recorded under `parent`
/// per enumerated extent, so profiles show how proof cost grows with
/// temporal extent. With a [`NullInstrument`] this is exactly
/// [`check_equiv`].
///
/// # Errors
///
/// Exactly the operational failures [`check_equiv`] reports.
pub fn check_equiv_traced<T: Instrument>(
    left: &dyn Evaluator,
    right: &dyn Evaluator,
    window: u64,
    tracer: &mut T,
    parent: SpanId,
) -> Result<EquivResult, String> {
    if left.input_width() != right.input_width() {
        return Err(format!(
            "input width mismatch: {} has {}, {} has {}",
            left.name(),
            left.input_width(),
            right.name(),
            right.input_width()
        ));
    }
    if left.output_width() != right.output_width() {
        return Err(format!(
            "output width mismatch: {} has {}, {} has {}",
            left.name(),
            left.output_width(),
            right.name(),
            right.output_width()
        ));
    }
    let width = left.input_width();
    let total = (window + 2)
        .checked_pow(u32::try_from(width).unwrap_or(u32::MAX))
        .unwrap_or(u64::MAX);
    if total > MAX_VOLLEYS {
        return Err(format!(
            "domain too large: ({window} + 2)^{width} volleys exceed the {MAX_VOLLEYS} ceiling; \
             lower --window"
        ));
    }
    let mut volleys = 0u64;
    let mut batch = VolleyBatch::new(width);
    let (mut l, mut r) = (VolleyBatch::default(), VolleyBatch::default());
    for extent in 0..=window {
        let _span = tracer.span("verify.window", parent);
        // Volleys already covered at a smaller extent are skipped: only
        // those that actually use tick `extent` are new.
        let mut fresh = enumerate_inputs(width, extent)
            .filter(|inputs| extent == 0 || inputs.contains(&Time::finite(extent)));
        loop {
            batch.reset(width, 0);
            for inputs in fresh.by_ref().take(BATCH_ROWS) {
                batch.push_row(&inputs).map_err(|e| e.to_string())?;
            }
            if batch.is_empty() {
                break;
            }
            volleys += batch.len() as u64;
            if let Some(cex) = first_difference(left, right, &batch, &mut l, &mut r)? {
                return Ok(EquivResult::Refuted(cex));
            }
        }
    }
    Ok(EquivResult::Proved(EquivProof {
        left: left.name().to_owned(),
        right: right.name().to_owned(),
        window,
        volleys,
    }))
}

/// Evaluates `batch` on both sides and returns the first row on which
/// they differ, or the first evaluation failure, whichever comes first
/// in row order — the left side's at a tie, as if each row were
/// evaluated left then right.
fn first_difference(
    left: &dyn Evaluator,
    right: &dyn Evaluator,
    batch: &VolleyBatch,
    l: &mut VolleyBatch,
    r: &mut VolleyBatch,
) -> Result<Option<Counterexample>, String> {
    let l_err = left.eval_batch(batch, l).err();
    let r_err = right.eval_batch(batch, r).err();
    let stop = [&l_err, &r_err]
        .into_iter()
        .flatten()
        .map(|&(row, _)| row)
        .min()
        .unwrap_or(batch.len());
    for row in 0..stop {
        let (lo, ro) = (l.row(row), r.row(row));
        if let Some(output) = (0..lo.len()).find(|&i| lo[i] != ro[i]) {
            return Ok(Some(Counterexample {
                left: left.name().to_owned(),
                right: right.name().to_owned(),
                inputs: batch.row(row).to_vec(),
                left_outputs: lo.to_vec(),
                right_outputs: ro.to_vec(),
                output,
            }));
        }
    }
    match (l_err, r_err) {
        (Some((row, e)), r_err) if r_err.as_ref().is_none_or(|&(r_row, _)| row <= r_row) => {
            Err(format!("{} failed: {e}", left.name()))
        }
        (_, Some((_, e))) => Err(format!("{} failed: {e}", right.name())),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::TableEvaluator;
    use st_core::FunctionTable;

    fn fig7() -> FunctionTable {
        FunctionTable::parse("0 1 2 -> 3\n1 0 ∞ -> 2\n2 2 0 -> 2\n").unwrap()
    }

    #[test]
    fn a_table_is_equivalent_to_itself() {
        let t = fig7();
        let result = check_equiv(&TableEvaluator::new(&t), &TableEvaluator::spec(&t), 3).unwrap();
        let proof = result.proof().expect("self-equivalence");
        assert_eq!(proof.window, 3);
        // Every volley over {0..3, ∞}³, counted once: 5³.
        assert_eq!(proof.volleys, 125);
    }

    #[test]
    fn different_tables_yield_a_minimal_counterexample() {
        let t = fig7();
        let changed = FunctionTable::parse("0 1 2 -> 4\n1 0 ∞ -> 2\n2 2 0 -> 2\n").unwrap();
        let result =
            check_equiv(&TableEvaluator::new(&t), &TableEvaluator::spec(&changed), 3).unwrap();
        let cex = result.counterexample().expect("tables differ").clone();
        // Minimality: the separating volley uses no tick beyond the
        // changed row's own pattern.
        let extent = cex
            .inputs
            .iter()
            .filter_map(|t| t.value())
            .max()
            .expect("finite entries");
        assert_eq!(extent, 2, "{cex}");
        assert_eq!(cex.volley_line(), "0 1 2");
        assert_ne!(cex.left_outputs, cex.right_outputs);
    }

    #[test]
    fn shape_mismatches_and_huge_domains_are_operational_errors() {
        let t = fig7();
        let narrow = FunctionTable::parse("0 -> 1\n").unwrap();
        let err =
            check_equiv(&TableEvaluator::new(&t), &TableEvaluator::spec(&narrow), 3).unwrap_err();
        assert!(err.contains("width mismatch"), "{err}");
        let err = check_equiv(
            &TableEvaluator::new(&t),
            &TableEvaluator::spec(&t),
            1_000_000,
        )
        .unwrap_err();
        assert!(err.contains("domain too large"), "{err}");
    }

    /// Five silent lines, except that it answers `0` on `differ` and
    /// rejects `fail`.
    struct Scripted {
        differ: Option<Vec<Time>>,
        fail: Option<Vec<Time>>,
    }

    impl Evaluator for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn input_width(&self) -> usize {
            5
        }

        fn output_width(&self) -> usize {
            1
        }

        fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
            if self.fail.as_deref() == Some(inputs) {
                return Err("rejected".to_owned());
            }
            let differs = self.differ.as_deref() == Some(inputs);
            Ok(vec![if differs { Time::ZERO } else { Time::INFINITY }])
        }
    }

    #[test]
    fn batches_keep_the_volley_by_volley_verdict() {
        let silent = Scripted {
            differ: None,
            fail: None,
        };
        // 6^5 volleys; extent 4 alone adds 6^5 - 5^5 = 4,651, more than
        // one batch.
        let proof = check_equiv(&silent, &silent, 4).unwrap();
        assert_eq!(proof.proof().map(|p| p.volleys), Some(7_776));
        let extent4: Vec<Vec<Time>> = enumerate_inputs(5, 4)
            .filter(|v| v.contains(&Time::finite(4)))
            .collect();
        assert!(extent4.len() > BATCH_ROWS);
        let (early, late) = (extent4[10].clone(), extent4[BATCH_ROWS + 10].clone());

        // A difference in the second batch of an extent is found there.
        let left = Scripted {
            differ: Some(late.clone()),
            fail: None,
        };
        let cex = check_equiv(&left, &silent, 4).unwrap();
        assert_eq!(
            cex.counterexample().map(|c| c.inputs.clone()),
            Some(late.clone())
        );

        // A difference before a failure wins, and a failure before a
        // difference is the error, whichever side fails.
        let left = Scripted {
            differ: Some(early.clone()),
            fail: Some(late.clone()),
        };
        let cex = check_equiv(&left, &silent, 4).unwrap();
        assert_eq!(
            cex.counterexample().map(|c| c.inputs.clone()),
            Some(early.clone())
        );
        let right = Scripted {
            differ: None,
            fail: Some(early),
        };
        let left = Scripted {
            differ: Some(late),
            fail: None,
        };
        let err = check_equiv(&left, &right, 4).unwrap_err();
        assert_eq!(err, "scripted failed: rejected");
    }
}
