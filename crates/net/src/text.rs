//! A plain-text netlist format for [`Network`]s.
//!
//! Synthesized networks are artifacts worth saving — a trained, optimized
//! design is the thing one would hand to a hardware flow. The format is
//! line-oriented and human-editable:
//!
//! ```text
//! # comment
//! g0 = input            # primary inputs, in order
//! g1 = input
//! g2 = const ∞          # configuration constants (∞, or a tick count)
//! g3 = min g0 g1        # n-ary min/max
//! g4 = lt g3 g2         # strict precedence
//! g5 = inc 3 g4         # delay by 3
//! outputs g5 g3
//! ```
//!
//! Gates must be defined before use (the builder's topological-order
//! discipline, spelled out); ids are symbolic labels local to the file.

use core::fmt;
use std::collections::HashMap;

use st_core::Time;

use crate::graph::{GateId, GateKind, Network, NetworkBuilder};

/// Error parsing a textual netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetworkError {
    /// 1-based line number of the problem (0 for end-of-input problems).
    pub line: usize,
    message: String,
}

impl ParseNetworkError {
    fn new(line: usize, message: impl Into<String>) -> ParseNetworkError {
        ParseNetworkError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseNetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseNetworkError {}

/// Renders a network in the textual netlist format.
#[must_use]
pub fn network_to_text(network: &Network) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (id, kind) in network.iter_gates() {
        let _ = write!(out, "g{} = ", id.index());
        match kind {
            GateKind::Input(_) => {
                let _ = write!(out, "input");
            }
            GateKind::Const(t) => {
                let _ = write!(out, "const {t}");
            }
            GateKind::Min | GateKind::Max => {
                let _ = write!(out, "{}", if kind == GateKind::Min { "min" } else { "max" });
                for s in network.sources(id).expect("valid id") {
                    let _ = write!(out, " g{}", s.index());
                }
            }
            GateKind::Lt => {
                let s = network.sources(id).expect("valid id");
                let _ = write!(out, "lt g{} g{}", s[0].index(), s[1].index());
            }
            GateKind::Inc(c) => {
                let s = network.sources(id).expect("valid id");
                let _ = write!(out, "inc {c} g{}", s[0].index());
            }
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "outputs");
    for o in network.outputs() {
        let _ = write!(out, " g{}", o.index());
    }
    let _ = writeln!(out);
    out
}

/// Parses the textual netlist format back into a [`Network`].
///
/// # Errors
///
/// Returns a [`ParseNetworkError`] locating the first problem: unknown
/// syntax, a reference to an undefined gate (which is also how cycles
/// manifest — definitions are topological), duplicate definitions, or a
/// missing `outputs` line.
pub fn parse_network(text: &str) -> Result<Network, ParseNetworkError> {
    let mut builder = NetworkBuilder::new();
    let mut names: HashMap<String, GateId> = HashMap::new();
    let mut outputs: Option<Vec<GateId>> = None;
    // One gate's sources, reused from line to line.
    let mut sources: Vec<GateId> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| ParseNetworkError::new(line_no, msg);
        if let Some(rest) = line.strip_prefix("outputs") {
            if outputs.is_some() {
                return Err(err("duplicate `outputs` line".into()));
            }
            let outs: Result<Vec<GateId>, _> = rest
                .split_whitespace()
                .map(|n| {
                    names
                        .get(n)
                        .copied()
                        .ok_or_else(|| err(format!("unknown gate {n:?} in outputs")))
                })
                .collect();
            outputs = Some(outs?);
            continue;
        }
        let (name, def) = line
            .split_once('=')
            .ok_or_else(|| err("expected `name = gate …` or `outputs …`".to_string()))?;
        let name = name.trim().to_owned();
        if names.contains_key(&name) {
            return Err(err(format!("gate {name:?} defined twice")));
        }
        let mut parts = def.split_whitespace();
        let op = parts
            .next()
            .ok_or_else(|| err("missing gate kind after `=`".to_string()))?;
        let resolve = |token: &str| -> Result<GateId, ParseNetworkError> {
            names
                .get(token)
                .copied()
                .ok_or_else(|| ParseNetworkError::new(line_no, format!("unknown gate {token:?}")))
        };
        let id = match op {
            "input" => builder.input(),
            "const" => {
                let t: Time = parts
                    .next()
                    .ok_or_else(|| err("const needs a time".to_string()))?
                    .parse()
                    .map_err(|e| err(format!("bad const time: {e}")))?;
                builder.constant(t)
            }
            "min" | "max" => {
                sources.clear();
                for token in parts.by_ref() {
                    sources.push(resolve(token)?);
                }
                if sources.is_empty() {
                    return Err(err(format!("{op} needs at least one source")));
                }
                let sources = sources.iter().copied();
                if op == "min" {
                    builder.min(sources).expect("non-empty")
                } else {
                    builder.max(sources).expect("non-empty")
                }
            }
            "lt" => {
                let a = resolve(
                    parts
                        .next()
                        .ok_or_else(|| err("lt needs two sources".to_string()))?,
                )?;
                let b = resolve(
                    parts
                        .next()
                        .ok_or_else(|| err("lt needs two sources".to_string()))?,
                )?;
                builder.lt(a, b)
            }
            "inc" => {
                let delta: u64 = parts
                    .next()
                    .ok_or_else(|| err("inc needs a delay".to_string()))?
                    .parse()
                    .map_err(|e| err(format!("bad delay: {e}")))?;
                let a = resolve(
                    parts
                        .next()
                        .ok_or_else(|| err("inc needs a source".to_string()))?,
                )?;
                builder.inc(a, delta)
            }
            other => return Err(err(format!("unknown gate kind {other:?}"))),
        };
        if let Some(extra) = parts.next() {
            return Err(err(format!("unexpected trailing token {extra:?}")));
        }
        names.insert(name, id);
    }
    let outputs = outputs.ok_or_else(|| ParseNetworkError::new(0, "missing `outputs` line"))?;
    Ok(builder.build(outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::enumerate_inputs;

    fn fig6() -> Network {
        let mut b = NetworkBuilder::new();
        let a = b.input();
        let x = b.input();
        let c = b.input();
        let a1 = b.inc(a, 1);
        let m = b.min([a1, x]).unwrap();
        let y = b.lt(m, c);
        b.build([y])
    }

    #[test]
    fn round_trip_preserves_semantics_and_structure() {
        let net = fig6();
        let text = network_to_text(&net);
        let back = parse_network(&text).unwrap();
        assert_eq!(back.gate_count(), net.gate_count());
        assert_eq!(back.input_count(), net.input_count());
        for inputs in enumerate_inputs(3, 3) {
            assert_eq!(back.eval(&inputs).unwrap(), net.eval(&inputs).unwrap());
        }
        // And the text itself round-trips to identical text.
        assert_eq!(network_to_text(&back), text);
    }

    #[test]
    fn synthesized_network_round_trips() {
        use crate::synth::{synthesize, SynthesisOptions};
        let t = Time::finite;
        let table = st_core::FunctionTable::from_rows(
            2,
            vec![(vec![t(0), t(1)], t(2)), (vec![t(1), t(0)], t(3))],
        )
        .unwrap();
        let net = synthesize(&table, SynthesisOptions::pure());
        let back = parse_network(&network_to_text(&net)).unwrap();
        for inputs in enumerate_inputs(2, 3) {
            assert_eq!(back.eval(&inputs).unwrap(), net.eval(&inputs).unwrap());
        }
    }

    #[test]
    fn hand_written_netlists_parse() {
        let net = parse_network(
            "# a micro-weighted pass-through\n\
             a = input\n\
             mu = const ∞\n\
             out = lt a mu\n\
             outputs out\n",
        )
        .unwrap();
        assert_eq!(net.eval(&[Time::finite(4)]).unwrap(), vec![Time::finite(4)]);
        // Symbolic names are free-form.
        let net = parse_network("x = input\ny = inc 2 x\noutputs y x\n").unwrap();
        assert_eq!(net.output_count(), 2);
    }

    #[test]
    fn errors_locate_the_line() {
        let cases = [
            ("a = input\nb = frob a\noutputs b\n", 2, "unknown gate kind"),
            (
                "a = input\nb = lt a zzz\noutputs b\n",
                2,
                "unknown gate \"zzz\"",
            ),
            ("a = input\na = input\noutputs a\n", 2, "defined twice"),
            ("a = input\n", 0, "missing `outputs`"),
            ("a = input\noutputs a\noutputs a\n", 3, "duplicate"),
            ("a = input\nb = min\noutputs b\n", 2, "at least one source"),
            ("a = input\nb = inc q a\noutputs b\n", 2, "bad delay"),
            (
                "a = input\nb = inc 1 a extra\noutputs b\n",
                2,
                "trailing token",
            ),
            ("justnonsense\n", 1, "expected"),
            ("a = input\noutputs a b\n", 2, "unknown gate \"b\""),
        ];
        for (text, line, needle) in cases {
            let e = parse_network(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.to_string().contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn forward_references_are_rejected_by_construction() {
        // Definitions are topological: using a gate before defining it is
        // an unknown-gate error, which is also what rules out cycles.
        let e = parse_network("a = inc 1 b\nb = input\noutputs b\n").unwrap_err();
        assert_eq!(e.line, 1);
    }
}
