//! Error types for the space-time algebra core.

use core::fmt;

use crate::time::Time;

/// Errors produced while constructing or evaluating core algebra objects.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A function was applied to the wrong number of inputs.
    ArityMismatch {
        /// Number of inputs the function expects.
        expected: usize,
        /// Number of inputs actually supplied.
        actual: usize,
    },
    /// A function table row has the wrong number of entries.
    RowArityMismatch {
        /// Index of the offending row.
        row: usize,
        /// Number of inputs the table expects.
        expected: usize,
        /// Number of entries in the row.
        actual: usize,
    },
    /// A normalized table row must contain at least one `0` input.
    RowNotNormalized {
        /// Index of the offending row.
        row: usize,
    },
    /// A normalized table row's output must be finite.
    RowOutputInfinite {
        /// Index of the offending row.
        row: usize,
    },
    /// A row's finite input occurs after the row's output, which would
    /// violate causality (the output could not depend on it).
    RowViolatesCausality {
        /// Index of the offending row.
        row: usize,
        /// Index of the offending input within the row.
        input: usize,
        /// The late input value.
        input_time: Time,
        /// The row's output value.
        output_time: Time,
    },
    /// Two rows specify the same normalized input pattern.
    DuplicateRow {
        /// Index of the first occurrence.
        first: usize,
        /// Index of the duplicate.
        second: usize,
    },
    /// Two rows can match the same input vector with different outputs.
    InconsistentRows {
        /// Index of one conflicting row.
        row_a: usize,
        /// Index of the other conflicting row.
        row_b: usize,
        /// A witness input on which the rows disagree.
        witness: Vec<Time>,
    },
    /// A table must have at least one input column.
    EmptyArity,
    /// An expression references an input index beyond the supplied arity.
    InputOutOfRange {
        /// The referenced input index.
        index: usize,
        /// The number of inputs supplied.
        arity: usize,
    },
    /// A cycle-accurate simulation would have to run past the largest
    /// finite time: its latest event plus the cycles needed to settle
    /// after it do not fit a [`Time`].
    HorizonOverflow {
        /// The latest finite input (or constant-driven fall, when that is
        /// later than any input can reach).
        latest: u64,
        /// Cycles the simulation runs after it: for a GRL netlist, its
        /// deepest flip-flop path + 1 (1 after a constant's fall).
        settle: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ArityMismatch { expected, actual } => {
                write!(f, "expected {expected} inputs, found {actual}")
            }
            CoreError::RowArityMismatch { row, expected, actual } => {
                write!(f, "row {row} has {actual} entries, table expects {expected}")
            }
            CoreError::RowNotNormalized { row } => {
                write!(f, "row {row} has no zero entry, so it is not in normal form")
            }
            CoreError::RowOutputInfinite { row } => {
                write!(f, "row {row} has an infinite output, which normal form forbids")
            }
            CoreError::RowViolatesCausality {
                row,
                input,
                input_time,
                output_time,
            } => write!(
                f,
                "row {row} input {input} occurs at {input_time}, after the row output {output_time}; \
                 a causal function cannot depend on it"
            ),
            CoreError::DuplicateRow { first, second } => {
                write!(f, "rows {first} and {second} have identical input patterns")
            }
            CoreError::InconsistentRows { row_a, row_b, witness } => {
                write!(f, "rows {row_a} and {row_b} disagree on input [")?;
                for (i, t) in witness.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "]")
            }
            CoreError::EmptyArity => write!(f, "a function table must have at least one input"),
            CoreError::InputOutOfRange { index, arity } => {
                write!(f, "expression references input {index} but only {arity} inputs were supplied")
            }
            CoreError::HorizonOverflow { latest, settle } => write!(
                f,
                "an event at {latest} plus {settle} settling cycles runs past the largest finite time"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(CoreError, &str)> = vec![
            (
                CoreError::ArityMismatch {
                    expected: 3,
                    actual: 2,
                },
                "expected 3 inputs",
            ),
            (
                CoreError::RowArityMismatch {
                    row: 1,
                    expected: 3,
                    actual: 4,
                },
                "row 1 has 4 entries",
            ),
            (CoreError::RowNotNormalized { row: 2 }, "no zero entry"),
            (CoreError::RowOutputInfinite { row: 0 }, "infinite output"),
            (
                CoreError::RowViolatesCausality {
                    row: 0,
                    input: 1,
                    input_time: Time::finite(9),
                    output_time: Time::finite(2),
                },
                "after the row output",
            ),
            (
                CoreError::DuplicateRow {
                    first: 0,
                    second: 3,
                },
                "identical input patterns",
            ),
            (
                CoreError::InconsistentRows {
                    row_a: 0,
                    row_b: 1,
                    witness: vec![Time::ZERO, Time::INFINITY],
                },
                "disagree on input [0, ∞]",
            ),
            (CoreError::EmptyArity, "at least one input"),
            (
                CoreError::InputOutOfRange { index: 5, arity: 3 },
                "references input 5",
            ),
            (
                CoreError::HorizonOverflow {
                    latest: u64::MAX - 1,
                    settle: 2,
                },
                "runs past the largest finite time",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<CoreError>();
    }
}
