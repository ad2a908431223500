//! JSON rendering and parsing for [`Report`]s.
//!
//! The emitter lays the one document shape out by hand (escaping strings
//! with [`st_core::json::escape_into`]); [`Report::from_json`] reads it
//! back through the shared [`st_core::json`] parser. The shape is stable:
//!
//! ```json
//! {
//!   "version": 1,
//!   "summary": { "errors": 1, "warnings": 0, "infos": 2 },
//!   "diagnostics": [
//!     {
//!       "code": "STA001",
//!       "severity": "error",
//!       "location": { "kind": "gate", "index": 4 },
//!       "message": "…",
//!       "hint": null
//!     }
//!   ]
//! }
//! ```
//!
//! `Report::from_json(report.to_json())` reconstructs the report exactly;
//! the CLI's `--json` output round-trips through this parser in tests.

use st_core::json::{escape_into, Json};

use crate::diag::{Code, Diagnostic, Location, Report, Severity};

impl Report {
    /// Renders the report as a JSON document (the shape documented in
    /// `docs/lint.md`, "JSON shape").
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n  \"version\": 1,\n  \"summary\": { ");
        let _ = write!(
            out,
            "\"errors\": {}, \"warnings\": {}, \"infos\": {} }},\n  \"diagnostics\": [",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        );
        for (i, d) in self.diagnostics().iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{ \"code\": \"{}\", \"severity\": \"{}\", \"location\": {{ \"kind\": \"{}\"",
                d.code,
                d.severity,
                d.location.kind()
            );
            if let Some(index) = d.location.index() {
                let _ = write!(out, ", \"index\": {index}");
            }
            out.push_str(" }, \"message\": \"");
            escape_into(&mut out, &d.message);
            out.push_str("\", \"hint\": ");
            match &d.hint {
                Some(h) => {
                    out.push('"');
                    escape_into(&mut out, h);
                    out.push('"');
                }
                None => out.push_str("null"),
            }
            out.push_str(" }");
        }
        if self.diagnostics().is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }

    /// Parses a document produced by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntactic or semantic
    /// problem (unknown code, bad severity, malformed location, …).
    pub fn from_json(text: &str) -> Result<Report, String> {
        let value = Json::parse(text)?;
        if value.as_obj().is_none() {
            return Err("top level must be an object".to_owned());
        }
        let diags = get(&value, "diagnostics")?
            .as_arr()
            .ok_or("`diagnostics` must be an array")?;
        let mut report = Report::new();
        for (i, d) in diags.iter().enumerate() {
            if d.as_obj().is_none() {
                return Err(format!("diagnostic {i} must be an object"));
            }
            let code = get(d, "code")?
                .as_str()
                .and_then(Code::parse)
                .ok_or_else(|| format!("diagnostic {i}: bad code"))?;
            let severity = get(d, "severity")?
                .as_str()
                .and_then(Severity::parse)
                .ok_or_else(|| format!("diagnostic {i}: bad severity"))?;
            let loc = get(d, "location")?;
            if loc.as_obj().is_none() {
                return Err(format!("diagnostic {i}: location must be an object"));
            }
            let kind = get(loc, "kind")?
                .as_str()
                .ok_or_else(|| format!("diagnostic {i}: location kind must be a string"))?;
            let index = match loc.get("index") {
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| format!("diagnostic {i}: bad location index"))?
                        as usize,
                ),
                None => None,
            };
            let location = Location::from_parts(kind, index)
                .ok_or_else(|| format!("diagnostic {i}: bad location"))?;
            let message = get(d, "message")?
                .as_str()
                .ok_or_else(|| format!("diagnostic {i}: message must be a string"))?
                .to_owned();
            let hint = match get(d, "hint")? {
                Json::Null => None,
                Json::Str(h) => Some(h.clone()),
                _ => return Err(format!("diagnostic {i}: hint must be a string or null")),
            };
            report.push(Diagnostic {
                code,
                severity,
                location,
                message,
                hint,
            });
        }
        Ok(report)
    }
}

fn get<'a>(object: &'a Json, key: &str) -> Result<&'a Json, String> {
    object
        .get(key)
        .ok_or_else(|| format!("missing key {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Code::Cycle,
            Severity::Error,
            Location::Gate(4),
            "combinational cycle g4 → g2 → g4",
        ));
        r.push(
            Diagnostic::new(
                Code::DeadGate,
                Severity::Warning,
                Location::Output(0),
                "output line never fires: \"∞\" saturated\nsecond line\ttabbed",
            )
            .with_hint("set μ=∞ (enable) or delete the tap"),
        );
        r.push(Diagnostic::new(
            Code::NonMinimalBasis,
            Severity::Info,
            Location::Module,
            "uses max",
        ));
        r
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample();
        let json = report.to_json();
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back, report);
        // And re-rendering the parsed report is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = Report::new();
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn summary_counts_are_emitted() {
        let json = sample().to_json();
        assert!(json.contains("\"errors\": 1, \"warnings\": 1, \"infos\": 1"));
        assert!(json.contains("\"version\": 1"));
    }

    #[test]
    fn escapes_survive() {
        let json = sample().to_json();
        assert!(json.contains("\\\"∞\\\" saturated\\nsecond line\\ttabbed"));
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(Report::from_json("").is_err());
        assert!(Report::from_json("[]").is_err());
        assert!(Report::from_json("{\"diagnostics\": 3}").is_err());
        assert!(Report::from_json("{\"diagnostics\": []} trailing").is_err());
        let bad_code = "{\"diagnostics\": [{ \"code\": \"STA999\", \"severity\": \"error\", \
                        \"location\": {\"kind\": \"module\"}, \"message\": \"m\", \"hint\": null }]}";
        assert!(Report::from_json(bad_code)
            .unwrap_err()
            .contains("bad code"));
    }
}
