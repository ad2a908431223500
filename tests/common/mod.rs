//! Shared helpers for the top-level integration test suites.

pub mod arbitrary;

use spacetime::batch::{BatchError, BatchEvaluator, CompiledArtifact};
use spacetime::core::{Volley, VolleyBatch};
use spacetime::trace::{Instrument, SpanId};

/// Runs same-width `volleys` through [`BatchEvaluator::eval_with`] as one
/// batch and splits the output batch back into volleys.
#[allow(dead_code)] // not every suite instruments the batch engine
pub fn eval_with(
    evaluator: &BatchEvaluator,
    artifact: &CompiledArtifact,
    volleys: &[Volley],
    inst: &mut impl Instrument,
    parent: SpanId,
) -> Result<Vec<Volley>, BatchError> {
    let width = volleys
        .first()
        .map_or(artifact.input_width(), Volley::width);
    let input = VolleyBatch::from_fn(width, volleys.len(), |row, line| volleys[row].times()[line]);
    let mut out = VolleyBatch::default();
    evaluator.eval_with(artifact, &input, &mut out, inst, parent)?;
    Ok(out.to_volleys())
}
