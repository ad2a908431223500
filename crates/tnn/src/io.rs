//! Text formats for trained columns and labelled volley streams.
//!
//! A trained column is the artifact a TNN workflow produces; a labelled
//! volley stream is what it consumes. Both get simple line-oriented
//! formats so models and datasets survive the process that made them
//! (and so the `spacetime` CLI can train, save, and classify end to end).
//!
//! ## Column format
//!
//! ```text
//! # comment
//! inhibition wta 1            # none | wta <τ> | kwta <k>
//! response ups 1 1 2 2 5 downs 5 7 8 10 12
//! neuron theta 14 delays 0 0 0 weights 3 5 7
//! neuron theta 14 delays 0 0 0 weights 0 2 7
//! ```
//!
//! ## Stream format
//!
//! One sample per line: a label (`-` for unlabeled) , a `|`, then one
//! time per line of the volley (`∞`/`inf` for no spike):
//!
//! ```text
//! 0 | 0 3 ∞ 1
//! - | ∞ 2 2 0
//! ```

use core::fmt;

use st_core::{Time, Volley};
use st_neuron::{ResponseFn, Srm0Neuron, Synapse};

use crate::column::{Column, Inhibition};
use crate::data::LabelledVolley;

/// Error parsing a column or stream file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIoError {
    /// 1-based line number (0 for document-level problems).
    pub line: usize,
    message: String,
}

impl ParseIoError {
    fn new(line: usize, message: impl Into<String>) -> ParseIoError {
        ParseIoError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseIoError {}

/// Renders a column in the text format.
#[must_use]
pub fn column_to_text(column: &Column) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    match column.inhibition() {
        Inhibition::None => {
            let _ = writeln!(out, "inhibition none");
        }
        Inhibition::Wta { tau } => {
            let _ = writeln!(out, "inhibition wta {tau}");
        }
        Inhibition::KWta { k } => {
            let _ = writeln!(out, "inhibition kwta {k}");
        }
    }
    let response = column.neurons()[0].unit_response();
    let _ = write!(out, "response ups");
    for u in response.up_steps() {
        let _ = write!(out, " {u}");
    }
    let _ = write!(out, " downs");
    for d in response.down_steps() {
        let _ = write!(out, " {d}");
    }
    let _ = writeln!(out);
    for neuron in column.neurons() {
        let _ = write!(out, "neuron theta {} delays", neuron.threshold());
        for s in neuron.synapses() {
            let _ = write!(out, " {}", s.delay);
        }
        let _ = write!(out, " weights");
        for s in neuron.synapses() {
            let _ = write!(out, " {}", s.weight);
        }
        let _ = writeln!(out);
    }
    out
}

fn parse_numbers<T: core::str::FromStr>(
    tokens: &mut std::iter::Peekable<std::str::SplitWhitespace<'_>>,
) -> Vec<T> {
    let mut out = Vec::new();
    while let Some(tok) = tokens.peek() {
        match tok.parse::<T>() {
            Ok(v) => {
                out.push(v);
                tokens.next();
            }
            Err(_) => break,
        }
    }
    out
}

/// Parses the column text format.
///
/// The shared unit response is taken from the `response` line; every
/// `neuron` line contributes one neuron, in order. Inhibition must select
/// someone: a `wta` window and a `kwta` winner count are at least 1, and
/// `kwta` asks for no more winners than the column has neurons.
///
/// # Errors
///
/// Returns [`ParseIoError`] locating the first problem.
pub fn parse_column(text: &str) -> Result<Column, ParseIoError> {
    let mut inhibition: Option<Inhibition> = None;
    let mut inhibition_line = 0;
    let mut response: Option<ResponseFn> = None;
    let mut neurons: Vec<Srm0Neuron> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| ParseIoError::new(line_no, msg);
        let mut tokens = line.split_whitespace().peekable();
        match tokens.next() {
            Some("inhibition") => {
                // A zero window or winner count selects nothing, and the
                // WTA lowering cannot build it: both are rejected here.
                inhibition = Some(match tokens.next() {
                    Some("none") => Inhibition::None,
                    Some("wta") => Inhibition::Wta {
                        tau: tokens
                            .next()
                            .and_then(|t| t.parse().ok())
                            .filter(|&tau| tau > 0)
                            .ok_or_else(|| err("wta needs a window τ ≥ 1".into()))?,
                    },
                    Some("kwta") => Inhibition::KWta {
                        k: tokens
                            .next()
                            .and_then(|t| t.parse().ok())
                            .filter(|&k| k > 0)
                            .ok_or_else(|| err("kwta needs a winner count k ≥ 1".into()))?,
                    },
                    other => return Err(err(format!("unknown inhibition {other:?}"))),
                });
                inhibition_line = line_no;
            }
            Some("response") => {
                if tokens.next() != Some("ups") {
                    return Err(err("response line must start with `ups`".into()));
                }
                let ups: Vec<u64> = parse_numbers(&mut tokens);
                if tokens.next() != Some("downs") {
                    return Err(err("response line needs a `downs` section".into()));
                }
                let downs: Vec<u64> = parse_numbers(&mut tokens);
                response = Some(ResponseFn::from_steps(ups, downs));
            }
            Some("neuron") => {
                if tokens.next() != Some("theta") {
                    return Err(err("neuron line must start with `theta`".into()));
                }
                let theta: u32 = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("bad threshold".into()))?;
                if tokens.next() != Some("delays") {
                    return Err(err("neuron line needs a `delays` section".into()));
                }
                let delays: Vec<u64> = parse_numbers(&mut tokens);
                if tokens.next() != Some("weights") {
                    return Err(err("neuron line needs a `weights` section".into()));
                }
                let weights: Vec<i32> = parse_numbers(&mut tokens);
                if delays.len() != weights.len() || delays.is_empty() {
                    return Err(err(format!(
                        "delays ({}) and weights ({}) must be equal-length and non-empty",
                        delays.len(),
                        weights.len()
                    )));
                }
                let unit = response
                    .clone()
                    .ok_or_else(|| err("`response` line must precede neurons".into()))?;
                let synapses = delays
                    .into_iter()
                    .zip(weights)
                    .map(|(d, w)| Synapse::new(d, w))
                    .collect();
                neurons.push(Srm0Neuron::new(unit, synapses, theta.max(1)));
            }
            Some(other) => return Err(err(format!("unknown directive {other:?}"))),
            None => unreachable!("blank lines are skipped"),
        }
        if let Some(extra) = tokens.next() {
            return Err(err(format!("unexpected trailing token {extra:?}")));
        }
    }

    if neurons.is_empty() {
        return Err(ParseIoError::new(0, "no neurons defined"));
    }
    let width = neurons[0].synapses().len();
    if neurons.iter().any(|n| n.synapses().len() != width) {
        return Err(ParseIoError::new(0, "neurons disagree on input width"));
    }
    if let Some(Inhibition::KWta { k }) = inhibition {
        if k > neurons.len() {
            return Err(ParseIoError::new(
                inhibition_line,
                format!(
                    "kwta wants {k} winners but the column has {} neuron(s)",
                    neurons.len()
                ),
            ));
        }
    }
    Ok(Column::new(
        neurons,
        inhibition.unwrap_or_else(Inhibition::one_wta),
    ))
}

/// Renders a labelled stream in the text format.
#[must_use]
pub fn stream_to_text(stream: &[LabelledVolley]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for sample in stream {
        match sample.label {
            Some(l) => {
                let _ = write!(out, "{l} |");
            }
            None => {
                let _ = write!(out, "- |");
            }
        }
        for t in sample.volley.times() {
            let _ = write!(out, " {t}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Parses the stream text format; all volleys must share one width.
///
/// # Errors
///
/// Returns [`ParseIoError`] locating the first problem.
pub fn parse_stream(text: &str) -> Result<Vec<LabelledVolley>, ParseIoError> {
    let mut out = Vec::new();
    let mut width: Option<usize> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| ParseIoError::new(line_no, msg);
        let (label_part, times_part) = line
            .split_once('|')
            .ok_or_else(|| err("expected `label | times`".into()))?;
        let label = match label_part.trim() {
            "-" => None,
            l => Some(
                l.parse::<usize>()
                    .map_err(|_| err(format!("bad label {l:?}")))?,
            ),
        };
        let times: Result<Vec<Time>, _> = times_part
            .split_whitespace()
            .map(|t| t.parse::<Time>().map_err(|e| err(e.to_string())))
            .collect();
        let times = times?;
        if times.is_empty() {
            return Err(err("a sample needs at least one line time".into()));
        }
        match width {
            None => width = Some(times.len()),
            Some(w) if w != times.len() => {
                return Err(err(format!(
                    "volley width {} differs from the first sample's {w}",
                    times.len()
                )))
            }
            Some(_) => {}
        }
        out.push(LabelledVolley {
            volley: Volley::new(times),
            label,
        });
    }
    if out.is_empty() {
        return Err(ParseIoError::new(0, "no samples found"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stdp::StdpParams;
    use crate::train::{fresh_column, train_column, TrainConfig};

    #[test]
    fn column_round_trip_preserves_behaviour() {
        // Train something nontrivial, serialize, reload, compare.
        let mut ds = crate::data::PatternDataset::new(2, 10, 7, 0, 0.0, 5);
        let config = TrainConfig {
            stdp: StdpParams::default(),
            seed: 2,
            rescue: true,
            adapt_threshold: false,
        };
        let mut column = fresh_column(2, 10, 0.25, &config);
        let stream = ds.stream(150, 1.0);
        train_column(&mut column, &stream, &config);

        let text = column_to_text(&column);
        let back = parse_column(&text).unwrap();
        assert_eq!(back.inhibition(), column.inhibition());
        assert_eq!(back.neurons(), column.neurons());
        for sample in ds.stream(30, 1.0) {
            assert_eq!(back.eval(&sample.volley), column.eval(&sample.volley));
        }
        // Text is canonical: serializing again gives identical text.
        assert_eq!(column_to_text(&back), text);
    }

    #[test]
    fn hand_written_column_parses() {
        let column = parse_column(
            "# a 2-neuron detector\n\
             inhibition kwta 2\n\
             response ups 1 downs\n\
             neuron theta 3 delays 0 0 weights 3 0\n\
             neuron theta 3 delays 0 1 weights 0 3\n",
        )
        .unwrap();
        assert_eq!(column.output_width(), 2);
        assert_eq!(column.inhibition(), Inhibition::KWta { k: 2 });
        assert_eq!(column.neurons()[1].synapses()[1].delay, 1);
    }

    #[test]
    fn column_parse_errors_locate_lines() {
        let cases = [
            ("inhibition sideways\n", 1, "unknown inhibition"),
            ("inhibition wta 0\n", 1, "wta needs a window τ ≥ 1"),
            ("# c\ninhibition kwta 0\n", 2, "kwta needs a winner count k ≥ 1"),
            (
                "inhibition kwta 2\nresponse ups 1 downs\nneuron theta 1 delays 0 weights 1\n",
                1,
                "kwta wants 2 winners but the column has 1 neuron(s)",
            ),
            ("response downs 1\n", 1, "must start with `ups`"),
            ("response ups 1\n", 1, "needs a `downs`"),
            ("neuron theta 1 delays 0 weights\n", 1, "equal-length"),
            ("response ups 1 downs\nneuron theta x delays 0 weights 1\n", 2, "bad threshold"),
            ("neuron theta 1 delays 0 weights 1\n", 1, "must precede"),
            ("flumph\n", 1, "unknown directive"),
            ("", 0, "no neurons"),
            (
                "response ups 1 downs\nneuron theta 1 delays 0 weights 1\nneuron theta 1 delays 0 0 weights 1 1\n",
                0,
                "disagree on input width",
            ),
        ];
        for (text, line, needle) in cases {
            let e = parse_column(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.to_string().contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn stream_round_trip() {
        let stream = vec![
            LabelledVolley {
                volley: Volley::encode([Some(0), Some(3), None, Some(1)]),
                label: Some(0),
            },
            LabelledVolley {
                volley: Volley::silent(4),
                label: None,
            },
        ];
        let text = stream_to_text(&stream);
        assert_eq!(text, "0 | 0 3 ∞ 1\n- | ∞ ∞ ∞ ∞\n");
        let back = parse_stream(&text).unwrap();
        assert_eq!(back, stream);
    }

    #[test]
    fn stream_parse_errors() {
        let cases = [
            ("0 0 3\n", 1, "expected `label | times`"),
            ("x | 0 3\n", 1, "bad label"),
            ("0 | 0 q\n", 1, "invalid time"),
            ("0 |\n", 1, "at least one"),
            ("0 | 1 2\n1 | 1\n", 2, "differs from"),
            ("", 0, "no samples"),
        ];
        for (text, line, needle) in cases {
            let e = parse_stream(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.to_string().contains(needle), "{text:?}: {e}");
        }
    }
}
