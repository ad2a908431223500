//! Uniform evaluation adapters over every artifact representation.
//!
//! The bounded equivalence checker ([`crate::equiv`]) compares two
//! black-box spike-time functions volley by volley; this module gives
//! each representation in the workspace — [`FunctionTable`],
//! [`Network`], [`GrlNetlist`], and [`Column`] — the same `Evaluator`
//! face, so any pair can be checked against any other.
//!
//! The checker hands evaluators whole batches of volleys
//! ([`Evaluator::eval_batch`]); by default that is a loop over
//! [`Evaluator::eval`], and the GRL netlist overrides it with the
//! bit-sliced simulator, 64 volleys per wire word.

use st_core::{FunctionTable, Time, Volley, VolleyBatch};
use st_grl::{GrlNetlist, GrlSim};
use st_net::Network;
use st_tnn::Column;
use st_trace::NullInstrument;

/// A multi-output spike-time function evaluated volley by volley.
pub trait Evaluator {
    /// A short stable tag ("table", "net", "grl", "column", "spec")
    /// naming the representation in proofs and counterexamples.
    fn name(&self) -> &'static str;

    /// The number of input lines.
    fn input_width(&self) -> usize;

    /// The number of output lines.
    fn output_width(&self) -> usize;

    /// Evaluates one input volley.
    ///
    /// # Errors
    ///
    /// Returns a message when the underlying engine rejects the volley
    /// (arity mismatch or internal failure); the checker treats this as
    /// an operational error, not a refutation.
    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String>;

    /// Evaluates every row of `input` into `out`, which is reset to one
    /// [`Evaluator::output_width`]-wide row per input row. The default is
    /// [`Evaluator::eval`] row by row.
    ///
    /// # Errors
    ///
    /// The lowest-index row [`Evaluator::eval`] rejects, with its message;
    /// the rows before it hold their outputs.
    fn eval_batch(
        &self,
        input: &VolleyBatch,
        out: &mut VolleyBatch,
    ) -> Result<(), (usize, String)> {
        let width = self.output_width();
        out.reset(width, input.len());
        let times = out.times_mut();
        for (row, inputs) in input.rows().enumerate() {
            let outputs = self.eval(inputs).map_err(|e| (row, e))?;
            times[row * width..(row + 1) * width].copy_from_slice(&outputs);
        }
        Ok(())
    }
}

/// [`FunctionTable`] as a single-output evaluator (Theorem 1 minterm
/// semantics via [`FunctionTable::eval`]).
#[derive(Debug, Clone, Copy)]
pub struct TableEvaluator<'a> {
    table: &'a FunctionTable,
    name: &'static str,
}

impl<'a> TableEvaluator<'a> {
    /// Wraps a table under the default tag `"table"`.
    #[must_use]
    pub fn new(table: &'a FunctionTable) -> TableEvaluator<'a> {
        TableEvaluator {
            table,
            name: "table",
        }
    }

    /// Wraps a table under the tag `"spec"` (for `--against` checks).
    #[must_use]
    pub fn spec(table: &'a FunctionTable) -> TableEvaluator<'a> {
        TableEvaluator {
            table,
            name: "spec",
        }
    }
}

impl Evaluator for TableEvaluator<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn input_width(&self) -> usize {
        self.table.arity()
    }

    fn output_width(&self) -> usize {
        1
    }

    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
        self.table
            .eval(inputs)
            .map(|t| vec![t])
            .map_err(|e| e.to_string())
    }
}

/// [`Network`] as an evaluator (direct dataflow evaluation).
#[derive(Debug, Clone, Copy)]
pub struct NetEvaluator<'a> {
    net: &'a Network,
}

impl<'a> NetEvaluator<'a> {
    /// Wraps a gate network.
    #[must_use]
    pub fn new(net: &'a Network) -> NetEvaluator<'a> {
        NetEvaluator { net }
    }
}

impl Evaluator for NetEvaluator<'_> {
    fn name(&self) -> &'static str {
        "net"
    }

    fn input_width(&self) -> usize {
        self.net.input_count()
    }

    fn output_width(&self) -> usize {
        self.net.output_count()
    }

    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
        self.net.eval(inputs).map_err(|e| e.to_string())
    }
}

/// [`GrlNetlist`] as an evaluator (cycle-accurate CMOS race-logic
/// simulation via [`GrlSim`], bit-sliced over whole batches).
#[derive(Debug, Clone, Copy)]
pub struct GrlEvaluator<'a> {
    netlist: &'a GrlNetlist,
}

impl<'a> GrlEvaluator<'a> {
    /// Wraps a GRL netlist.
    #[must_use]
    pub fn new(netlist: &'a GrlNetlist) -> GrlEvaluator<'a> {
        GrlEvaluator { netlist }
    }
}

impl Evaluator for GrlEvaluator<'_> {
    fn name(&self) -> &'static str {
        "grl"
    }

    fn input_width(&self) -> usize {
        self.netlist.input_count()
    }

    fn output_width(&self) -> usize {
        self.netlist.outputs().len()
    }

    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
        GrlSim::new()
            .run(self.netlist, inputs)
            .map(|r| r.outputs)
            .map_err(|e| e.to_string())
    }

    fn eval_batch(
        &self,
        input: &VolleyBatch,
        out: &mut VolleyBatch,
    ) -> Result<(), (usize, String)> {
        GrlSim::new()
            .run_batch(self.netlist, input, out, &mut NullInstrument)
            .map_err(|e| (e.index, e.source.to_string()))
    }
}

/// [`Column`] as an evaluator (SRM0 neurons plus lateral inhibition).
#[derive(Debug, Clone)]
pub struct ColumnEvaluator<'a> {
    column: &'a Column,
}

impl<'a> ColumnEvaluator<'a> {
    /// Wraps a TNN column.
    #[must_use]
    pub fn new(column: &'a Column) -> ColumnEvaluator<'a> {
        ColumnEvaluator { column }
    }
}

impl Evaluator for ColumnEvaluator<'_> {
    fn name(&self) -> &'static str {
        "column"
    }

    fn input_width(&self) -> usize {
        self.column.input_width()
    }

    fn output_width(&self) -> usize {
        self.column.output_width()
    }

    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
        if inputs.len() != self.column.input_width() {
            return Err(format!(
                "column expects {} input(s), got {}",
                self.column.input_width(),
                inputs.len()
            ));
        }
        let out = self.column.eval(&Volley::new(inputs.to_vec()));
        Ok(out.times().to_vec())
    }
}
