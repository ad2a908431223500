//! Robustness of the one JSON reader (`st_core::json`) and of every
//! reader built on it: arbitrary bytes and byte-mutated real documents
//! must come back as `Ok` or `Err`, never as a panic.
//!
//! The valid seeds are the committed `BENCH_seed.json`, the
//! `lint --json` report of the paper's Fig. 7 table, and a
//! `spacetime-obs/1` JSONL export holding every event kind.

use proptest::prelude::*;
use spacetime::core::json::Json;
use spacetime::core::{FunctionTable, Time};
use spacetime::insight::parse_trace;
use spacetime::lint::{lint_table, LintOptions, Report};
use spacetime::metrics::{parse_history, BenchReport};
use spacetime::obs::{events_jsonl, ObsEvent};

fn bench_seed() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_seed.json"))
        .expect("read BENCH_seed.json")
}

fn fig7_lint_json() -> String {
    let table = FunctionTable::parse("0 1 2 -> 3\n1 0 inf -> 2\n2 2 0 -> 2\n").expect("fig7");
    lint_table(&table, &LintOptions::default()).to_json()
}

fn obs_export() -> String {
    events_jsonl(&[
        ObsEvent::VolleyStart { index: 0 },
        ObsEvent::GateFired {
            gate: 4,
            op: "min",
            at: Time::finite(1),
        },
        ObsEvent::GateFired {
            gate: 5,
            op: "lt",
            at: Time::INFINITY,
        },
        ObsEvent::WireFell {
            wire: 2,
            at: Time::finite(3),
        },
        ObsEvent::LatchBlocked {
            wire: 2,
            at: Time::finite(4),
        },
        ObsEvent::Potential {
            neuron: 1,
            at: Time::finite(2),
            potential: -1,
        },
        ObsEvent::NeuronSpike {
            neuron: 1,
            at: Time::finite(2),
        },
        ObsEvent::WtaDecision {
            winner: Some(1),
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
    ])
}

/// Feeds `text` to every reader; each must return, whatever it returns.
fn read_everything(text: &str) {
    let _ = Json::parse(text);
    let _ = parse_trace(text);
    let _ = BenchReport::from_json(text);
    let _ = Report::from_json(text);
    let _ = parse_history(text);
}

/// Bytes that steer a JSON reader into its interesting states.
const SYNTAX: &[u8] = b"{}[]\",:\\u0123456789.eE+-ntfa \n\t\x01\xff";

/// One edit: overwrite, insert, or delete at `at` (modulo the length).
#[derive(Debug, Clone)]
enum Edit {
    Set(usize, u8),
    Insert(usize, u8),
    Delete(usize),
}

fn arb_byte() -> BoxedStrategy<u8> {
    prop_oneof![
        3 => (0..SYNTAX.len()).prop_map(|i| SYNTAX[i]),
        1 => 0u8..=255,
    ]
    .boxed()
}

fn arb_edit() -> BoxedStrategy<Edit> {
    prop_oneof![
        2 => (0usize..1 << 20, arb_byte()).prop_map(|(at, b)| Edit::Set(at, b)),
        1 => (0usize..1 << 20, arb_byte()).prop_map(|(at, b)| Edit::Insert(at, b)),
        1 => (0usize..1 << 20).prop_map(Edit::Delete),
    ]
    .boxed()
}

fn mutate(doc: &str, edits: &[Edit]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for edit in edits {
        let len = bytes.len().max(1);
        match *edit {
            Edit::Set(at, b) if !bytes.is_empty() => bytes[at % len] = b,
            Edit::Insert(at, b) => bytes.insert(at % (bytes.len() + 1), b),
            Edit::Delete(at) if !bytes.is_empty() => {
                bytes.remove(at % len);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn the_seed_documents_are_valid_to_begin_with() {
    assert!(BenchReport::from_json(&bench_seed()).is_ok());
    assert!(Report::from_json(&fig7_lint_json()).is_ok());
    assert_eq!(
        parse_trace(&obs_export()).expect("obs export").events.len(),
        12
    );
}

#[test]
fn every_reader_rejects_a_duplicate_key() {
    // The two readers this module replaced disagreed here: the lint
    // reader kept the first value, the bench reader the last.
    let lint = fig7_lint_json().replacen("{", "{\"diagnostics\": [], ", 1);
    let err = Report::from_json(&lint).unwrap_err();
    assert!(err.contains("duplicate key \"diagnostics\""), "{err}");
    let bench = bench_seed().replacen("{", "{\"label\": \"x\", ", 1);
    let err = BenchReport::from_json(&bench).unwrap_err();
    assert!(err.contains("duplicate key \"label\""), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_a_reader(
        bytes in prop::collection::vec(arb_byte(), 0..256),
    ) {
        read_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_documents_never_panic_a_reader(
        doc in 0usize..3,
        edits in prop::collection::vec(arb_edit(), 1..8),
    ) {
        let seed = [bench_seed(), fig7_lint_json(), obs_export()];
        read_everything(&mutate(&seed[doc], &edits));
    }
}
