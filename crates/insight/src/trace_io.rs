//! Reading `spacetime-obs/1` JSONL traces back into typed events.
//!
//! `st-obs` exports every event as one flat JSON object per line, behind
//! a schema header. Each line is parsed with the workspace's one JSON
//! reader ([`st_core::json`]) and its fields are then looked up by name,
//! so key order, whitespace and string escapes are all read correctly.
//!
//! Validation is strict: a missing or foreign schema header, an unknown
//! event kind, an unknown gate op, or an event count that disagrees with
//! the header all fail with a line-numbered [`InsightError::BadTrace`] —
//! a truncated or hand-edited trace is rejected, never half-loaded. So
//! does a line that is not a JSON object, and a time of `u64::MAX` (the
//! reserved `∞` encoding; `∞` is written `null`).

use st_core::json::Json;
use st_core::Time;
use st_obs::{ObsEvent, JSONL_SCHEMA};

use crate::InsightError;

/// A fully validated `spacetime-obs/1` trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedTrace {
    /// The recorded events, in original order.
    pub events: Vec<ObsEvent>,
    /// How many events the producing recorder dropped at its capacity
    /// cap (from the header; 0 for a complete trace).
    pub dropped: u64,
}

impl ParsedTrace {
    /// Indexes the trace into a [`crate::SpikeDb`], carrying the
    /// dropped-event count.
    #[must_use]
    pub fn to_db(&self) -> crate::SpikeDb {
        crate::SpikeDb::from_events_with_dropped(&self.events, self.dropped)
    }
}

/// One trace line, which must be a JSON object.
fn object(line: &str, lineno: usize) -> Result<Json, InsightError> {
    let message = match Json::parse(line) {
        Ok(value @ Json::Obj(_)) => return Ok(value),
        Ok(_) => "line is not a JSON object".to_owned(),
        Err(e) => format!("malformed JSON: {e}"),
    };
    Err(InsightError::BadTrace {
        line: lineno,
        message,
    })
}

/// A required unsigned-integer field.
fn uint(obj: &Json, key: &str, lineno: usize) -> Result<u64, InsightError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| InsightError::BadTrace {
            line: lineno,
            message: format!("missing or non-integer field \"{key}\""),
        })
}

/// A required signed-integer field (potentials and weights go negative).
fn int(obj: &Json, key: &str, lineno: usize) -> Result<i64, InsightError> {
    obj.get(key)
        .and_then(Json::as_i64)
        .ok_or_else(|| InsightError::BadTrace {
            line: lineno,
            message: format!("missing or non-integer field \"{key}\""),
        })
}

/// A required string field.
fn string<'a>(obj: &'a Json, key: &str, lineno: usize) -> Result<&'a str, InsightError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| InsightError::BadTrace {
            line: lineno,
            message: format!("missing or non-string field \"{key}\""),
        })
}

/// A required model-time field: ticks, or `null` for `∞`.
fn time(obj: &Json, key: &str, lineno: usize) -> Result<Time, InsightError> {
    let value = obj.get(key).ok_or_else(|| InsightError::BadTrace {
        line: lineno,
        message: format!("missing time field \"{key}\""),
    })?;
    value.as_time().ok_or_else(|| InsightError::BadTrace {
        line: lineno,
        message: format!("field \"{key}\" is neither ticks nor null"),
    })
}

/// Interns a recorded gate-op name back to the `&'static str` the event
/// vocabulary carries. The six names are the complete `st-net` gate set.
fn intern_op(op: &str, lineno: usize) -> Result<&'static str, InsightError> {
    for known in ["input", "const", "inc", "min", "max", "lt"] {
        if op == known {
            return Ok(known);
        }
    }
    Err(InsightError::BadTrace {
        line: lineno,
        message: format!("unknown gate op {op:?}"),
    })
}

/// Interns a recorded stage name; `"eval"` is the only stage the batch
/// engine currently emits.
fn intern_stage(stage: &str, lineno: usize) -> Result<&'static str, InsightError> {
    if stage == "eval" {
        return Ok("eval");
    }
    Err(InsightError::BadTrace {
        line: lineno,
        message: format!("unknown stage {stage:?}"),
    })
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn parse_event(line: &str, lineno: usize) -> Result<ObsEvent, InsightError> {
    let line = &object(line, lineno)?;
    let kind = string(line, "kind", lineno)?;
    Ok(match kind {
        "volley_start" => ObsEvent::VolleyStart {
            index: uint(line, "index", lineno)? as usize,
        },
        "gate_fired" => ObsEvent::GateFired {
            gate: uint(line, "gate", lineno)? as usize,
            op: intern_op(string(line, "op", lineno)?, lineno)?,
            at: time(line, "at", lineno)?,
        },
        "wire_fell" => ObsEvent::WireFell {
            wire: uint(line, "wire", lineno)? as usize,
            at: time(line, "at", lineno)?,
        },
        "latch_blocked" => ObsEvent::LatchBlocked {
            wire: uint(line, "wire", lineno)? as usize,
            at: time(line, "at", lineno)?,
        },
        "potential" => ObsEvent::Potential {
            neuron: uint(line, "neuron", lineno)? as usize,
            at: time(line, "at", lineno)?,
            potential: int(line, "potential", lineno)?,
        },
        "neuron_spike" => ObsEvent::NeuronSpike {
            neuron: uint(line, "neuron", lineno)? as usize,
            at: time(line, "at", lineno)?,
        },
        "wta_decision" => ObsEvent::WtaDecision {
            winner: match line.get("winner") {
                Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| InsightError::BadTrace {
                    line: lineno,
                    message: "field \"winner\" is neither an index nor null".to_owned(),
                })? as usize),
                None => {
                    return Err(InsightError::BadTrace {
                        line: lineno,
                        message: "missing field \"winner\"".to_owned(),
                    })
                }
            },
            tied: uint(line, "tied", lineno)? as usize,
        },
        "weight_delta" => ObsEvent::WeightDelta {
            neuron: uint(line, "neuron", lineno)? as usize,
            synapse: uint(line, "synapse", lineno)? as usize,
            before: int(line, "before", lineno)? as i32,
            after: int(line, "after", lineno)? as i32,
        },
        "stage_timing" => ObsEvent::StageTiming {
            stage: intern_stage(string(line, "stage", lineno)?, lineno)?,
            start_nanos: uint(line, "start_nanos", lineno)?,
            nanos: uint(line, "nanos", lineno)?,
        },
        "chunk_timing" => ObsEvent::ChunkTiming {
            worker: uint(line, "worker", lineno)? as usize,
            start: uint(line, "start", lineno)? as usize,
            len: uint(line, "len", lineno)? as usize,
            start_nanos: uint(line, "start_nanos", lineno)?,
            nanos: uint(line, "nanos", lineno)?,
        },
        "volley_timed" => ObsEvent::VolleyTimed {
            index: uint(line, "index", lineno)? as usize,
            nanos: uint(line, "nanos", lineno)?,
            spikes: uint(line, "spikes", lineno)? as usize,
        },
        other => {
            return Err(InsightError::BadTrace {
                line: lineno,
                message: format!("unknown event kind {other:?}"),
            })
        }
    })
}

/// Parses a `spacetime-obs/1` JSONL document (as written by
/// `st_obs::events_jsonl` / `Recorder::to_jsonl` / `spacetime trace
/// --format jsonl`) back into typed events.
///
/// # Errors
///
/// [`InsightError::BadTrace`] when the header is missing or declares a
/// foreign schema, when any line is malformed, or when the event count
/// disagrees with the header (a truncated file).
pub fn parse_trace(text: &str) -> Result<ParsedTrace, InsightError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| InsightError::BadTrace {
        line: 0,
        message: "empty file".to_owned(),
    })?;
    let not_a_header = |_| InsightError::BadTrace {
        line: 0,
        message: format!(
            "first line must be a {JSONL_SCHEMA:?} header (is this a raw event dump \
             from an older export?)"
        ),
    };
    let header = &object(header, 1).map_err(not_a_header)?;
    let schema = string(header, "schema", 1).map_err(not_a_header)?;
    if schema != JSONL_SCHEMA {
        return Err(InsightError::BadTrace {
            line: 0,
            message: format!("schema is {schema:?}, this reader understands {JSONL_SCHEMA:?}"),
        });
    }
    let declared = uint(header, "events", 1)?;
    let dropped = uint(header, "dropped", 1)?;

    let mut events = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_event(line, i + 2)?);
    }
    if events.len() as u64 != declared {
        return Err(InsightError::BadTrace {
            line: 0,
            message: format!(
                "header declares {declared} event(s) but the file holds {} — truncated?",
                events.len()
            ),
        });
    }
    Ok(ParsedTrace { events, dropped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_obs::events_jsonl_with_dropped;

    fn sample() -> Vec<ObsEvent> {
        vec![
            ObsEvent::VolleyStart { index: 0 },
            ObsEvent::GateFired {
                gate: 0,
                op: "input",
                at: Time::ZERO,
            },
            ObsEvent::GateFired {
                gate: 4,
                op: "min",
                at: Time::finite(1),
            },
            ObsEvent::WireFell {
                wire: 2,
                at: Time::finite(3),
            },
            ObsEvent::LatchBlocked {
                wire: 2,
                at: Time::finite(4),
            },
            ObsEvent::NeuronSpike {
                neuron: 1,
                at: Time::finite(2),
            },
            ObsEvent::Potential {
                neuron: 1,
                at: Time::finite(2),
                potential: -1,
            },
            ObsEvent::WtaDecision {
                winner: None,
                tied: 0,
            },
            ObsEvent::WeightDelta {
                neuron: 0,
                synapse: 3,
                before: -2,
                after: 5,
            },
            ObsEvent::StageTiming {
                stage: "eval",
                start_nanos: 10,
                nanos: 12_500,
            },
            ObsEvent::ChunkTiming {
                worker: 1,
                start: 0,
                len: 2,
                start_nanos: 1_000,
                nanos: 11_000,
            },
            ObsEvent::VolleyTimed {
                index: 0,
                nanos: 5_000,
                spikes: 2,
            },
        ]
    }

    #[test]
    fn round_trips_every_event_kind() {
        let events = sample();
        let text = events_jsonl_with_dropped(&events, 7);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.events, events);
        assert_eq!(parsed.dropped, 7);
        assert!(parsed.to_db().is_truncated());
    }

    #[test]
    fn rejects_headerless_dumps() {
        let err = parse_trace("{\"kind\":\"volley_start\",\"index\":0}\n").unwrap_err();
        assert!(
            matches!(err, InsightError::BadTrace { line: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("spacetime-obs/1"), "{err}");
    }

    #[test]
    fn rejects_foreign_schemas() {
        let err = parse_trace("{\"schema\":\"spacetime-bench/1\",\"events\":0,\"dropped\":0}\n")
            .unwrap_err();
        assert!(err.to_string().contains("spacetime-bench/1"), "{err}");
    }

    #[test]
    fn rejects_truncated_files_with_counts() {
        let full = events_jsonl_with_dropped(&sample(), 0);
        let cut: String = full.lines().take(5).map(|l| format!("{l}\n")).collect();
        let err = parse_trace(&cut).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn rejects_unknown_ops_and_kinds_with_line_numbers() {
        let text = "{\"schema\":\"spacetime-obs/1\",\"events\":1,\"dropped\":0}\n\
                    {\"kind\":\"gate_fired\",\"gate\":0,\"op\":\"xor\",\"at\":1}\n";
        let err = parse_trace(text).unwrap_err();
        assert_eq!(
            err,
            InsightError::BadTrace {
                line: 2,
                message: "unknown gate op \"xor\"".to_owned()
            }
        );

        let text = "{\"schema\":\"spacetime-obs/1\",\"events\":1,\"dropped\":0}\n\
                    {\"kind\":\"gate_melted\"}\n";
        assert!(parse_trace(text).is_err());
    }

    #[test]
    fn reserved_infinity_ticks_and_malformed_lines_are_bad_traces() {
        let header = "{\"schema\":\"spacetime-obs/1\",\"events\":1,\"dropped\":0}\n";
        let text = format!(
            "{header}{{\"kind\":\"gate_fired\",\"gate\":0,\"op\":\"min\",\"at\":18446744073709551615}}\n"
        );
        assert_eq!(
            parse_trace(&text).unwrap_err(),
            InsightError::BadTrace {
                line: 2,
                message: "field \"at\" is neither ticks nor null".to_owned()
            }
        );
        for line in [
            "{\"kind\":\"volley_start\",\"index\":0",
            "[1]",
            "{\"kind\":1}",
        ] {
            let err = parse_trace(&format!("{header}{line}\n")).unwrap_err();
            assert!(
                matches!(err, InsightError::BadTrace { line: 2, .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn key_order_whitespace_and_escapes_do_not_matter() {
        let text = "{ \"dropped\": 0, \"events\": 1, \"schema\": \"spacetime-obs/1\" }\n\
                    {\"at\": null, \"op\": \"l\\u0074\", \"gate\": 9, \"kind\": \"gate_fired\"}\n";
        let parsed = parse_trace(text).unwrap();
        assert_eq!(
            parsed.events,
            vec![ObsEvent::GateFired {
                gate: 9,
                op: "lt",
                at: Time::INFINITY,
            }]
        );
    }

    #[test]
    fn infinite_times_round_trip_as_null() {
        let events = vec![ObsEvent::GateFired {
            gate: 9,
            op: "lt",
            at: Time::INFINITY,
        }];
        let parsed = parse_trace(&events_jsonl_with_dropped(&events, 0)).unwrap();
        assert_eq!(parsed.events, events);
    }
}
