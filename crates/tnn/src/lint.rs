//! Static lint frontend for TNN [`Column`]s.
//!
//! Two checks live at the column level, before any lowering:
//!
//! * **STA012** — inhibition parameters must be in range: `τ = 0`
//!   silently inhibits every neuron including the winner, `k = 0` selects
//!   no winners, and `k > n` is not a selection at all;
//!   [`Column::to_network`] would panic on all three. `parse_column`
//!   rejects them in a file, so this check guards columns built in code.
//! * **STA013** — every neuron's threshold must be *reachable*: the sum
//!   over excitatory synapses of `weight × peak unit response` is the
//!   most membrane potential perfectly aligned spikes can ever build, and
//!   a neuron whose θ exceeds it can never fire (a unit dropped from the
//!   column, § IV-E).
//!
//! When the parameters are valid the column is additionally lowered
//! through [`Column::to_network`] and run through every graph pass via
//! [`st_net::lint::lint_network`], so gate-level findings (WTA shape,
//! saturation, …) surface here too.

use st_lint::{Code, Diagnostic, LintOptions, Location, Report, Severity};

use crate::column::{Column, Inhibition};

/// Lints a column: parameter checks, threshold reachability, and (when
/// the parameters permit lowering) every gate-level pass.
#[must_use]
pub fn lint_column(column: &Column) -> Report {
    lint_column_with(column, &LintOptions::default())
}

/// Lints a column with caller-supplied gate-level options (window width,
/// the relational tier, …). The column-level parameter checks always run.
#[must_use]
pub fn lint_column_with(column: &Column, options: &LintOptions) -> Report {
    let mut report = Report::new();
    check_inhibition(column, &mut report);
    check_thresholds(column, &mut report);
    if report.is_clean() {
        report.merge(st_net::lint::lint_network_with(
            &column.to_network(),
            options,
        ));
    }
    report
}

/// STA012: inhibition parameters in range.
fn check_inhibition(column: &Column, report: &mut Report) {
    let n = column.neurons().len();
    match column.inhibition() {
        Inhibition::None => {}
        Inhibition::Wta { tau: 0 } => {
            report.push(
                Diagnostic::new(
                    Code::ColumnParams,
                    Severity::Error,
                    Location::Module,
                    "WTA inhibition window τ=0 suppresses every neuron, including the \
                     winner: the column can never spike",
                )
                .with_hint("use τ ≥ 1 so the first spike escapes inhibition (Fig. 15)"),
            );
        }
        Inhibition::Wta { .. } => {}
        Inhibition::KWta { k: 0 } => {
            report.push(
                Diagnostic::new(
                    Code::ColumnParams,
                    Severity::Error,
                    Location::Module,
                    "k-WTA with k=0 selects no winners: the column output is constantly ∞",
                )
                .with_hint("use 1 ≤ k ≤ neuron count"),
            );
        }
        Inhibition::KWta { k } if k > n => {
            report.push(
                Diagnostic::new(
                    Code::ColumnParams,
                    Severity::Error,
                    Location::Module,
                    format!("k-WTA wants k={k} winners but the column has only {n} neuron(s)"),
                )
                .with_hint("use 1 ≤ k ≤ neuron count"),
            );
        }
        Inhibition::KWta { .. } => {}
    }
}

/// STA013: thresholds must be reachable.
fn check_thresholds(column: &Column, report: &mut Report) {
    for (i, neuron) in column.neurons().iter().enumerate() {
        let unit = neuron.unit_response();
        // The most one synapse can ever contribute: its weight times the
        // unit response's best amplitude (an absent spike contributes 0,
        // so a synapse never has to contribute negatively).
        let best: i64 = neuron
            .synapses()
            .iter()
            .map(|s| {
                let w = i64::from(s.weight);
                (w * unit.peak_amplitude())
                    .max(w * unit.min_amplitude())
                    .max(0)
            })
            .sum();
        let theta = i64::from(neuron.threshold());
        if best < theta {
            report.push(
                Diagnostic::new(
                    Code::DeadNeuron,
                    Severity::Warning,
                    Location::Neuron(i),
                    format!(
                        "threshold θ={theta} exceeds the maximum achievable potential \
                         {best}: the neuron can never spike"
                    ),
                )
                .with_hint("lower θ, raise the synaptic weights, or drop the unit"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_neuron::{ResponseFn, Srm0Neuron, Synapse};

    fn neuron(weights: &[i32], theta: u32) -> Srm0Neuron {
        let unit = ResponseFn::from_steps(vec![0, 1], vec![3, 5]);
        let synapses = weights.iter().map(|&w| Synapse::new(0, w)).collect();
        Srm0Neuron::new(unit, synapses, theta)
    }

    fn column(inhibition: Inhibition) -> Column {
        Column::new(vec![neuron(&[2, 1], 3), neuron(&[1, 2], 3)], inhibition)
    }

    #[test]
    fn healthy_columns_lint_clean() {
        for inhibition in [
            Inhibition::None,
            Inhibition::Wta { tau: 1 },
            Inhibition::KWta { k: 1 },
            Inhibition::KWta { k: 2 },
        ] {
            let report = lint_column(&column(inhibition));
            assert!(report.is_clean(), "{inhibition:?}: {}", report.render());
        }
    }

    #[test]
    fn zero_window_wta_is_an_error_without_lowering() {
        let report = lint_column(&column(Inhibition::Wta { tau: 0 }));
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics()[0].code, Code::ColumnParams);
    }

    #[test]
    fn out_of_range_k_is_an_error() {
        for k in [0, 3] {
            let report = lint_column(&column(Inhibition::KWta { k }));
            assert_eq!(report.error_count(), 1, "k={k}");
            assert_eq!(report.diagnostics()[0].code, Code::ColumnParams);
        }
    }

    #[test]
    fn unreachable_threshold_is_a_dead_neuron() {
        // peak amplitude is 2 (two up-steps before any down-step), so the
        // most this neuron can reach is (2+1) × 2 = 6 < θ = 100.
        let col = Column::new(
            vec![neuron(&[2, 1], 100), neuron(&[1, 2], 3)],
            Inhibition::Wta { tau: 1 },
        );
        let report = lint_column(&col);
        let dead: Vec<_> = report.with_code(Code::DeadNeuron).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].location, Location::Neuron(0));
        assert_eq!(dead[0].severity, Severity::Warning);
        assert!(report.is_clean(), "dead neurons warn, not error");
    }
}
