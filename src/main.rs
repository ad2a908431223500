//! `spacetime` — a command-line front end to the space-time algebra stack.
//!
//! Subcommands cover the pipeline a user would actually drive by hand:
//! evaluate a function table, synthesize it into a `{min, lt, inc}`
//! network (Theorem 1), simulate it as CMOS race logic with transition
//! accounting and optional VCD waveforms, and run the classic race-logic
//! applications. Run `spacetime help` for usage.

use std::process::ExitCode;

use spacetime::batch::{BatchEvaluator, CompiledArtifact, Engine};
use spacetime::core::{FunctionTable, Time, Volley, VolleyBatch};
use spacetime::grl::{try_compile_network, try_to_vcd, GrlSim};
use spacetime::net::synth::{synthesize, SynthesisOptions};
use spacetime::net::{analysis, gate_counts, optimize, EventSim, Network};
use spacetime::verify::{Artifact, Kind};

const USAGE: &str = "\
spacetime — the space-time algebra toolbox

USAGE:
  spacetime eval <table-file> <t1> <t2> …       evaluate a function table
  spacetime synth <table-file> [--pure] [--optimize] [--dot] [--save <f>]
                                                synthesize a table (Theorem 1)
  spacetime simulate <table-file> <t1> <t2> … [--vcd <out.vcd>]
                                                run the synthesized network as
                                                CMOS race logic
  spacetime expr <expression> [<t1> <t2> …]     evaluate / inspect an
                                                s-expression over the
                                                primitives (simplifies it,
                                                samples its table)
  spacetime net <netlist-file> <t1> <t2> …      evaluate a saved netlist
                                                (see st-net::text format)
  spacetime sort <t1> <t2> …                    sort a volley with a bitonic
                                                network
  spacetime wta [--tau N] <t1> <t2> …           winner-take-all inhibition
  spacetime edit-distance <a> <b>               race-logic edit distance
  spacetime gen-patterns [--patterns K] [--width W] [--count N] [--seed S]
                                                emit a labelled volley stream
                                                with hidden repeating patterns
  spacetime train <stream-file> [--neurons K] [--epochs E] [--seed S]
                  [--save <column-file>]        unsupervised WTA+STDP training
  spacetime classify <column-file> <t1> <t2> …  run a trained column on one
                                                volley
  spacetime batch <spec-file> <volleys-file> [--engine table|net|grl|column|kernel]
                  [--threads N]                 evaluate a whole volley file
                                                (compile once, fan out over
                                                worker threads; one output
                                                volley per line; the net/grl/
                                                kernel engines accept a table
                                                or an st-net netlist spec)
  spacetime lint <file> [--kind table|net|column] [--json] [--max-window N]
                  [--relational] [--deny CODE] [--allow CODE]
                                                statically check a table,
                                                netlist, or column against
                                                the space-time invariants
                                                (docs/lint.md); --relational
                                                adds the STA3xx zone-domain
                                                tier; --deny/--allow promote
                                                or demote findings by STA code
  spacetime verify <file> [--against <spec.table>] [--kind table|net|column]
                  [--window N] [--json] [--deny CODE] [--allow CODE]
                                                prove bounded equivalence of
                                                every lowering (table ↔ net ↔
                                                GRL ↔ column, § IV/§ V), emit
                                                an interval boundedness
                                                certificate, and report any
                                                counterexample volley as an
                                                STA1xx finding (docs/verify.md)
  spacetime opt <file> [--kind table|net|column] [--passes p1,p2,…]
                  [--window N] [--check] [--json] [--emit <out>]
                                                run the verified optimization
                                                pipeline (docs/opt.md): every
                                                pass is gated by bounded
                                                equivalence and a rejected
                                                rewrite is reported with its
                                                counterexample volley; --check
                                                exits non-zero on any
                                                rejection, --emit writes the
                                                optimized artifact
  spacetime trace <file> [--format raster|jsonl|chrome|stats|prom]
                  [--engine table|net|grl|column] [--volleys <file>]
                  [--threads N] [--out <file>]   run a traced evaluation and
                                                export the event stream: a
                                                spike-raster CSV, a JSONL
                                                event log, a Chrome
                                                trace_event JSON (open in
                                                chrome://tracing or Perfetto),
                                                a run-statistics summary
                                                (docs/observability.md), or a
                                                Prometheus text exposition of
                                                the engine counters
                                                (docs/metrics.md)
  spacetime profile <file> [--format flame|chrome|top|json]
                  [--engine table|net|grl|column|kernel] [--volleys <file>]
                  [--threads N] [--out <file>]   run the whole pipeline —
                                                compile, lint, verified
                                                optimization, kernel plan
                                                build, batch evaluation —
                                                under the hierarchical span
                                                profiler and export the
                                                causal timeline: a collapsed
                                                -stack flamegraph (feed to
                                                inferno / flamegraph.pl), a
                                                Chrome trace_event JSON, a
                                                self-time top table, or raw
                                                span JSONL
                                                (docs/observability.md)
  spacetime inspect <file> [--stats] [--raster-summary] [--why <gate>@<t>]
                  [--volley N] [--witness <prefix>] [--diff <other-file>]
                  [--engine net|grl|column|table] [--volleys <file>]
                  [--threads N] [--trace <run.jsonl>] [--json] [--dot]
                  [--out <file>]                 semantic queries over a
                                                recorded run
                                                (docs/observability.md):
                                                volley-coding statistics and
                                                spike summaries; causal
                                                provenance of one (gate, time)
                                                event (--why, with a
                                                `spacetime batch`-replayable
                                                witness volley via --witness);
                                                first-divergence localization
                                                between two artifacts' runs
                                                (--diff; exits 1 on
                                                divergence); --trace analyses
                                                a recorded spacetime-obs/1
                                                JSONL export instead of
                                                re-running
  spacetime bench [--quick|--full] [--label L] [--threads T1,T2,…]
                  [--out <file>] [--history <f>] time the engine scenario
                                                matrix and emit a
                                                schema-versioned JSON report
                                                with counters and latency
                                                percentiles (docs/metrics.md);
                                                --history also appends one
                                                compact trend row to a JSONL
                                                perf ledger
  spacetime bench --compare <old.json> <new.json> [--threshold R]
                                                diff two bench reports on
                                                median wall-clock; exits
                                                non-zero past the threshold
                                                (default 1.5×)
  spacetime bench --trend <history.jsonl> [--baseline <report.json>]
                                                render the perf-trend ledger
                                                as per-scenario p50 deltas
                                                against a baseline report
                                                (default BENCH_seed.json)
  spacetime bench --check <report.json>         validate a bench report
                                                against the JSON schema
  spacetime help                                this text

Times are decimal ticks or `inf`/`∞` for \"no event\". Table files contain
one `x1 x2 … -> y` row per line (`#` comments allowed); see docs/THEORY.md.

`lint` and `verify` exit 0 when clean, 1 on error-severity findings (after
--deny/--allow overrides), and 2 on operational errors (unreadable file,
bad flag, unverifiable domain). `inspect --diff` follows the same contract:
0 when the runs agree, 1 on a localized divergence, 2 when the comparison
could not run.

The file kind is detected from its text (lint, verify and opt also take
--kind). Which --engine runs which kind:
                table file         net file           column file
  table         batch trace        inspect            inspect
                inspect profile
  net, grl      batch trace        batch trace        inspect profile
                inspect profile    inspect profile
  column        -                  -                  batch trace
                                                      inspect profile
  kernel        batch profile      batch profile      profile
Any other pairing fails with `the <engine> engine cannot run a <kind>
file`; an unknown name with `unknown engine \"<name>\"; expected
table|net|grl|column|kernel`. --threads takes a positive count.

When the reader of stdout goes away (`| head`), every command stops
quietly with the exit status it would have had; any other write error is
`cannot write output: …` (exit 1, or 2 for the gate commands).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // lint and verify own a three-way exit contract — 0 = clean, 1 =
    // error-severity findings, 2 = operational error — so CI gates can
    // tell "the artifact is bad" from "the check could not run".
    match args.first().map(String::as_str) {
        Some("lint") => return gate_exit(cmd_lint(&args[1..])),
        Some("verify") => return gate_exit(cmd_verify(&args[1..])),
        Some("opt") => return gate_exit(cmd_opt(&args[1..])),
        Some("inspect") => return gate_exit(cmd_inspect(&args[1..])),
        _ => {}
    }
    let result = match args.first().map(String::as_str) {
        Some("eval") => cmd_eval(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("expr") => cmd_expr(&args[1..]),
        Some("net") => cmd_net(&args[1..]),
        Some("sort") => cmd_sort(&args[1..]),
        Some("wta") => cmd_wta(&args[1..]),
        Some("edit-distance") => cmd_edit_distance(&args[1..]),
        Some("gen-patterns") => cmd_gen_patterns(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("classify") => cmd_classify(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("help") | None => emit(None, USAGE, None),
        Some(other) => Err(format!(
            "unknown subcommand {other:?}; try `spacetime help`"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn parse_times(args: &[String]) -> Result<Vec<Time>, String> {
    args.iter()
        .map(|a| a.parse::<Time>().map_err(|e| e.to_string()))
        .collect()
}

fn read_text(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Reads an artifact file once and parses it as `kind`, or as the kind
/// its text shows.
fn load(path: &str, kind: Option<Kind>) -> Result<Artifact, String> {
    let text = read_text(path)?;
    let kind = kind.unwrap_or_else(|| Kind::detect(&text));
    Artifact::parse(&text, kind).map_err(|e| format!("{path}: {e}"))
}

/// Loads the function table that `eval`, `synth`, `simulate` and
/// `verify --against` take.
fn load_table(path: &str) -> Result<FunctionTable, String> {
    match load(path, Some(Kind::Table))? {
        Artifact::Table(table) => Ok(table),
        other => Err(Engine::Table.cannot_run(other.kind())),
    }
}

/// Parses a `--threads` count: a positive integer.
fn parse_threads(value: &str) -> Result<usize, String> {
    value
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("bad thread count {value:?}"))
}

/// The one output sink: writes `rendered` to the `--out` file when there
/// is one, else to stdout, then the `summary` to stderr as
/// `wrote <file> (<summary>)` or `(<summary>)`. A closed stdout (the
/// reader is gone, as with `| head`) is not an error: the command ends
/// quietly, without the summary. Any other failure is
/// `cannot write output: …`.
fn emit(
    out: Option<&str>,
    rendered: impl AsRef<[u8]>,
    summary: Option<&str>,
) -> Result<(), String> {
    use std::io::Write;
    let rendered = rendered.as_ref();
    if let Some(f) = out {
        write_file(f, rendered)?;
        match summary {
            Some(s) => eprintln!("wrote {f} ({s})"),
            None => eprintln!("wrote {f}"),
        }
        return Ok(());
    }
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(rendered).and_then(|()| stdout.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return Ok(()),
        Err(e) => return Err(format!("cannot write output: {e}")),
    }
    if let Some(s) = summary {
        eprintln!("({s})");
    }
    Ok(())
}

fn cmd_eval(args: &[String]) -> Result<(), String> {
    let [path, rest @ ..] = args else {
        return Err("usage: spacetime eval <table-file> <t1> <t2> …".into());
    };
    let table = load_table(path)?;
    let inputs = parse_times(rest)?;
    let out = table.eval(&inputs).map_err(|e| e.to_string())?;
    emit(None, format!("{out}\n"), None)
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut pure = false;
    let mut opt = false;
    let mut dot = false;
    let mut save: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--pure" => pure = true,
            "--optimize" => opt = true,
            "--dot" => dot = true,
            "--save" => {
                save = Some(iter.next().ok_or("--save needs a file path")?.to_owned());
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path
        .ok_or("usage: spacetime synth <table-file> [--pure] [--optimize] [--dot] [--save <f>]")?;
    let table = load_table(&path)?;
    let options = if pure {
        SynthesisOptions::pure()
    } else {
        SynthesisOptions::default()
    };
    let mut network = synthesize(&table, options);
    if opt {
        let (optimized, report) = optimize(&network);
        eprintln!(
            "optimized: {} → {} gates ({:.0}% removed)",
            report.gates_before,
            report.gates_after,
            report.reduction() * 100.0
        );
        network = optimized;
    }
    if let Some(save) = save {
        write_file(&save, spacetime::net::network_to_text(&network))?;
        eprintln!("saved netlist to {save}");
    }
    let rendered = if dot {
        analysis::to_dot(&network)
    } else {
        format!(
            "rows: {}  arity: {}\ngates: {}\nlogic depth: {}  critical delay: {}\n",
            table.len(),
            table.arity(),
            gate_counts(&network),
            analysis::logic_depth(&network),
            analysis::critical_delay(&network)
        )
    };
    emit(None, rendered, None)
}

fn simulate_network(
    network: &Network,
    inputs: &[Time],
    vcd_path: Option<&str>,
) -> Result<(), String> {
    use std::fmt::Write as _;
    let netlist = try_compile_network(network).map_err(|e| e.to_string())?;
    let report = GrlSim::new()
        .run(&netlist, inputs)
        .map_err(|e| e.to_string())?;
    let (and, or, lt, ff) = netlist.gate_census();
    let mut rendered = format!(
        "outputs: {}\ncmos: {and} AND, {or} OR, {lt} latches, {ff} flip-flops\n\
         transitions: {} eval + {} reset (activity {:.3})\n",
        Volley::new(report.outputs.clone()),
        report.eval_transitions,
        report.reset_transitions,
        report.activity_factor()
    );
    if let Some(path) = vcd_path {
        let vcd = try_to_vcd(&netlist, &report).map_err(|e| format!("cannot render VCD: {e}"))?;
        write_file(path, &vcd)?;
        let _ = writeln!(rendered, "wrote {path} ({} signals)", netlist.wire_count());
    }
    emit(None, rendered, None)
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut times = Vec::new();
    let mut vcd_path = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--vcd" => {
                vcd_path = Some(iter.next().ok_or("--vcd needs a file path")?.to_owned());
            }
            other if path.is_none() => path = Some(other.to_owned()),
            other => times.push(other.to_owned()),
        }
    }
    let path =
        path.ok_or("usage: spacetime simulate <table-file> <t1> <t2> … [--vcd <out.vcd>]")?;
    let table = load_table(&path)?;
    let inputs = parse_times(&times)?;
    let network = synthesize(&table, SynthesisOptions::default());
    simulate_network(&network, &inputs, vcd_path.as_deref())
}

fn cmd_net(args: &[String]) -> Result<(), String> {
    let [path, rest @ ..] = args else {
        return Err("usage: spacetime net <netlist-file> <t1> <t2> …".into());
    };
    let network = match load(path, Some(Kind::Net))? {
        Artifact::Net(network) => network,
        other => return Err(Engine::Net.cannot_run(other.kind())),
    };
    if rest.is_empty() {
        let rendered = format!(
            "inputs: {}  outputs: {}\ngates: {}\n",
            network.input_count(),
            network.output_count(),
            gate_counts(&network)
        );
        return emit(None, rendered, None);
    }
    let inputs = parse_times(rest)?;
    let out = network.eval(&inputs).map_err(|e| e.to_string())?;
    emit(None, format!("{}\n", Volley::new(out)), None)
}

fn cmd_expr(args: &[String]) -> Result<(), String> {
    let [text, rest @ ..] = args else {
        return Err("usage: spacetime expr <expression> [<t1> <t2> …]".into());
    };
    use spacetime::core::SpaceTimeFunction as _;
    use std::fmt::Write as _;
    let e: spacetime::core::Expr = text.parse().map_err(|e| format!("{e}"))?;
    let mut rendered = format!("expression: {e}\n");
    let reduced = spacetime::core::simplify(&e);
    if reduced != e {
        let _ = writeln!(rendered, "simplified: {reduced}");
    }
    let _ = writeln!(
        rendered,
        "arity: {}  ops: {}  depth: {}  minimal basis: {}",
        e.arity(),
        e.op_count(),
        e.depth(),
        e.uses_only_minimal_primitives()
    );
    if rest.is_empty() {
        let f = spacetime::core::with_arity(e.clone(), e.arity());
        let _ = match FunctionTable::from_fn(&f, 3) {
            Ok(table) => writeln!(rendered, "canonical table (window 3):\n{table}"),
            Err(err) => writeln!(rendered, "not samplable as a causal table: {err}"),
        };
    } else {
        let inputs = parse_times(rest)?;
        let out = e.apply(&inputs).map_err(|e| e.to_string())?;
        let _ = writeln!(rendered, "value at {}: {out}", Volley::new(inputs));
    }
    emit(None, rendered, None)
}

fn cmd_sort(args: &[String]) -> Result<(), String> {
    let inputs = parse_times(args)?;
    if inputs.is_empty() {
        return Err("usage: spacetime sort <t1> <t2> …".into());
    }
    let network = spacetime::net::sorting::sorting_network(inputs.len());
    let out = network.eval(&inputs).map_err(|e| e.to_string())?;
    let summary = format!(
        "{} comparators, depth {}",
        gate_counts(&network).min,
        analysis::logic_depth(&network)
    );
    emit(None, format!("{}\n", Volley::new(out)), Some(&summary))
}

fn cmd_wta(args: &[String]) -> Result<(), String> {
    let mut tau = 1u64;
    let mut times = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--tau" => {
                tau = iter
                    .next()
                    .ok_or("--tau needs a value")?
                    .parse()
                    .map_err(|e| format!("bad τ: {e}"))?;
            }
            other => times.push(other.to_owned()),
        }
    }
    let inputs = parse_times(&times)?;
    if inputs.is_empty() {
        return Err("usage: spacetime wta [--tau N] <t1> <t2> …".into());
    }
    let network = spacetime::net::wta::wta_network(inputs.len(), tau);
    let out = network.eval(&inputs).map_err(|e| e.to_string())?;
    emit(None, format!("{}\n", Volley::new(out)), None)
}

fn cmd_edit_distance(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: spacetime edit-distance <a> <b>".into());
    };
    let (d, report) = spacetime::grl::edit_distance_race(a.as_bytes(), b.as_bytes());
    let reference = spacetime::grl::edit_distance_reference(a.as_bytes(), b.as_bytes());
    assert_eq!(d, reference, "race logic disagreed with the DP baseline");
    let summary = format!(
        "race logic: answer wire fell at cycle {d}; {} transitions; matches the DP baseline",
        report.eval_transitions
    );
    emit(None, format!("{d}\n"), Some(&summary))
}

fn flag_value(iter: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    iter.next()
        .map(ToOwned::to_owned)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn cmd_gen_patterns(args: &[String]) -> Result<(), String> {
    let mut patterns = 3usize;
    let mut width = 16usize;
    let mut count = 200usize;
    let mut seed = 1u64;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--patterns" => {
                patterns = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--width" => {
                width = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--count" => {
                count = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--seed" => {
                seed = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let mut ds = spacetime::tnn::data::PatternDataset::new(patterns, width, 7, 1, 0.15, seed);
    let stream = ds.stream(count, 0.85);
    emit(None, spacetime::tnn::stream_to_text(&stream), None)
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut neurons = 0usize; // 0 = infer from labels
    let mut epochs = 3usize;
    let mut seed = 0u64;
    let mut save: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--neurons" => {
                neurons = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--epochs" => {
                epochs = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--seed" => {
                seed = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--save" => save = Some(flag_value(&mut iter, a)?),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or(
        "usage: spacetime train <stream-file> [--neurons K] [--epochs E] [--seed S] [--save <f>]",
    )?;
    let stream =
        spacetime::tnn::parse_stream(&read_text(&path)?).map_err(|e| format!("{path}: {e}"))?;
    let width = stream[0].volley.width();
    let n_classes = stream
        .iter()
        .filter_map(|s| s.label)
        .max()
        .map_or(0, |m| m + 1);
    if neurons == 0 {
        neurons = n_classes.max(2);
    }
    use spacetime::tnn::train::{evaluate_column, fresh_column, train_column, TrainConfig};
    let config = TrainConfig {
        seed,
        ..TrainConfig::default()
    };
    let mut column = fresh_column(neurons, width, 0.25, &config);
    for epoch in 1..=epochs.max(1) {
        let report = train_column(&mut column, &stream, &config);
        eprintln!(
            "epoch {epoch}: {} updates, wins {:?}",
            report.updates, report.wins
        );
    }
    if n_classes > 0 {
        let assignment = evaluate_column(&column, &stream, n_classes);
        eprintln!(
            "training-set accuracy {:.3}  NMI {:.3}  coverage {}/{}",
            assignment.accuracy(),
            assignment.normalized_mutual_information(),
            assignment.coverage(),
            n_classes
        );
    }
    emit(
        save.as_deref(),
        spacetime::tnn::column_to_text(&column),
        None,
    )
}

fn cmd_classify(args: &[String]) -> Result<(), String> {
    let [path, rest @ ..] = args else {
        return Err("usage: spacetime classify <column-file> <t1> <t2> …".into());
    };
    let column = match load(path, Some(Kind::Column))? {
        Artifact::Column(column) => column,
        other => return Err(Engine::Column.cannot_run(other.kind())),
    };
    let inputs = parse_times(rest)?;
    if inputs.len() != column.input_width() {
        return Err(format!(
            "column expects {} lines, got {}",
            column.input_width(),
            inputs.len()
        ));
    }
    let volley = Volley::new(inputs);
    let out = column.eval(&volley);
    let winner = column
        .winner(&volley)
        .map_or("-".to_owned(), |w| w.to_string());
    emit(None, winner + "\n", Some(&format!("outputs {out}")))
}

/// Reads a volley file into a batch of `width`-wide volleys — the input
/// width of the engine that will evaluate it.
fn read_volleys(path: &str, width: usize) -> Result<VolleyBatch, String> {
    VolleyBatch::parse(&read_text(path)?, path, width).map_err(|e| e.to_string())
}

fn cmd_batch(args: &[String]) -> Result<(), String> {
    let mut spec = None;
    let mut volleys_path = None;
    let mut engine = Engine::Table;
    let mut threads = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--engine" => engine = flag_value(&mut iter, a)?.parse()?,
            "--threads" => threads = Some(parse_threads(&flag_value(&mut iter, a)?)?),
            other if spec.is_none() && !other.starts_with('-') => spec = Some(other.to_owned()),
            other if volleys_path.is_none() && !other.starts_with('-') => {
                volleys_path = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let usage =
        "usage: spacetime batch <spec-file> <volleys-file> [--engine table|net|grl|column|kernel] [--threads N]";
    let spec = spec.ok_or(usage)?;
    let volleys_path = volleys_path.ok_or(usage)?;

    let artifact = CompiledArtifact::select(engine, &load(&spec, None)?)?;
    let volleys = read_volleys(&volleys_path, artifact.input_width())?;

    let evaluator = threads.map_or_else(BatchEvaluator::new, BatchEvaluator::with_threads);
    let started = std::time::Instant::now();
    let outputs = evaluator
        .eval_batch(&artifact, &volleys)
        .map_err(|e| format!("{volleys_path}: {e}"))?;
    let elapsed = started.elapsed();
    drop(volleys);

    let mut stdout = Vec::new();
    outputs.write_text(&mut stdout);
    let rate = if elapsed.as_secs_f64() > 0.0 {
        outputs.len() as f64 / elapsed.as_secs_f64()
    } else {
        f64::INFINITY
    };
    let summary = format!(
        "{} volleys through the {engine} engine on {} threads in {:.1} ms; {:.0} volleys/s",
        outputs.len(),
        evaluator.threads(),
        elapsed.as_secs_f64() * 1e3,
        rate
    );
    emit(None, stdout, Some(&summary))
}

/// Maps a lint/verify result to the documented exit contract: `Ok(true)`
/// (clean) → 0, `Ok(false)` (error-severity findings) → 1, `Err`
/// (operational failure) → 2.
fn gate_exit(result: Result<bool, String>) -> ExitCode {
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Parses one `--deny`/`--allow` value: a comma-separated list of
/// `STAnnn` codes, appended to `into`.
fn parse_code_list(value: &str, into: &mut Vec<spacetime::lint::Code>) -> Result<(), String> {
    for token in value.split(',') {
        let token = token.trim();
        let code = spacetime::lint::Code::parse(token)
            .ok_or_else(|| format!("unknown diagnostic code {token:?} (expected STAnnn)"))?;
        into.push(code);
    }
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<bool, String> {
    let mut path = None;
    let mut kind = None;
    let mut json = false;
    let mut deny = Vec::new();
    let mut allow = Vec::new();
    let mut options = spacetime::lint::LintOptions::default();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--kind" => kind = Some(flag_value(&mut iter, a)?.parse()?),
            "--json" => json = true,
            "--max-window" => {
                options.max_window = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("bad window: {e}"))?;
            }
            "--relational" => options.relational = true,
            "--deny" => parse_code_list(&flag_value(&mut iter, a)?, &mut deny)?,
            "--allow" => parse_code_list(&flag_value(&mut iter, a)?, &mut allow)?,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or(
        "usage: spacetime lint <file> [--kind table|net|column] [--json] [--max-window N] \
         [--relational] [--deny CODE] [--allow CODE]",
    )?;
    let artifact = load(&path, kind)?;
    let mut report = match &artifact {
        Artifact::Table(table) => spacetime::lint::lint_table(table, &options),
        Artifact::Net(network) => spacetime::net::lint::lint_network_with(network, &options),
        Artifact::Column(column) => spacetime::tnn::lint::lint_column_with(column, &options),
    };
    report.apply_overrides(&deny, &allow);
    let rendered = if json {
        report.to_json()
    } else {
        report.render()
    };
    emit(None, rendered, None)?;
    eprintln!("{path} ({}): {}", artifact.kind(), report.summary());
    Ok(report.is_clean())
}

fn cmd_verify(args: &[String]) -> Result<bool, String> {
    use spacetime::verify::{verify_artifact, VerifyOptions};

    let mut path = None;
    let mut against: Option<String> = None;
    let mut kind = None;
    let mut json = false;
    let mut deny = Vec::new();
    let mut allow = Vec::new();
    let mut options = VerifyOptions::default();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--against" => against = Some(flag_value(&mut iter, a)?),
            "--kind" => kind = Some(flag_value(&mut iter, a)?.parse()?),
            "--json" => json = true,
            "--window" => {
                options.window = Some(
                    flag_value(&mut iter, a)?
                        .parse()
                        .map_err(|e| format!("bad window: {e}"))?,
                );
            }
            "--deny" => parse_code_list(&flag_value(&mut iter, a)?, &mut deny)?,
            "--allow" => parse_code_list(&flag_value(&mut iter, a)?, &mut allow)?,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or(
        "usage: spacetime verify <file> [--against <spec.table>] [--kind table|net|column] \
         [--window N] [--json] [--deny CODE] [--allow CODE]",
    )?;
    let artifact = load(&path, kind)?;
    let spec = against.as_deref().map(load_table).transpose()?;
    let mut outcome = verify_artifact(&artifact, spec.as_ref(), &options)?;
    outcome.report.apply_overrides(&deny, &allow);
    let rendered = if json {
        outcome.to_json()
    } else {
        outcome.render()
    };
    emit(None, rendered, None)?;
    eprintln!(
        "{path} ({}): {} proof(s), {} counterexample(s); {}",
        artifact.kind(),
        outcome.proofs.len(),
        outcome.counterexamples.len(),
        outcome.report.summary()
    );
    Ok(outcome.report.is_clean())
}

fn cmd_opt(args: &[String]) -> Result<bool, String> {
    use spacetime::opt::{optimize_artifact, OptOptions, Pass};

    let mut path = None;
    let mut kind = None;
    let mut json = false;
    let mut check = false;
    let mut emit_path: Option<String> = None;
    let mut options = OptOptions::default();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--kind" => kind = Some(flag_value(&mut iter, a)?.parse()?),
            "--json" => json = true,
            "--check" => check = true,
            "--emit" => emit_path = Some(flag_value(&mut iter, a)?),
            "--window" => {
                options.window = Some(
                    flag_value(&mut iter, a)?
                        .parse()
                        .map_err(|e| format!("bad window: {e}"))?,
                );
            }
            "--passes" => {
                let mut passes = Vec::new();
                for token in flag_value(&mut iter, a)?.split(',') {
                    let token = token.trim();
                    passes.push(Pass::parse(token).ok_or_else(|| {
                        format!(
                            "unknown pass {token:?}; expected one of {}",
                            spacetime::opt::ALL_PASSES
                                .iter()
                                .map(|p| p.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })?);
                }
                options.passes = Some(passes);
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or(
        "usage: spacetime opt <file> [--kind table|net|column] [--passes p1,p2,…] \
         [--window N] [--check] [--json] [--emit <out>]",
    )?;
    let artifact = load(&path, kind)?;
    let outcome = optimize_artifact(&artifact, &options)?;
    let rendered = if json {
        outcome.report.to_json()
    } else {
        outcome.render()
    };
    emit(None, rendered, None)?;
    if let Some(f) = emit_path {
        write_file(&f, outcome.artifact.to_text())?;
        eprintln!("wrote the optimized artifact to {f}");
    }
    eprintln!(
        "{path} ({}): {} -> {} over window {}; {} rejection(s)",
        artifact.kind(),
        outcome.before,
        outcome.after,
        outcome.window,
        outcome.rejected()
    );
    // Without --check the run reports; with it, any rejection (or other
    // error-severity finding) fails the gate.
    Ok(!check || outcome.is_clean())
}

/// The evaluable form `trace` and `inspect` drive their per-volley spike
/// pass through (`trace`'s batch timing pass uses a [`CompiledArtifact`]
/// alongside it).
enum TraceForm {
    /// An event-driven gate network ([`EventSim::compile`]).
    Net(spacetime::net::CompiledNetwork),
    /// A race-logic netlist, cycle-accurately simulated.
    Grl(spacetime::grl::GrlNetlist),
    /// An SRM0 column with lateral inhibition.
    Column(spacetime::tnn::Column),
}

impl TraceForm {
    /// The spike-pass form of `artifact` on `engine`. The column engine
    /// runs a column as itself; the table, net and grl engines run the
    /// artifact's gate-network lowering, event-driven or (grl) as race
    /// logic, so a table's gate events come from its Theorem 1 synthesis.
    fn new(engine: Engine, artifact: &Artifact) -> Result<TraceForm, String> {
        Ok(match (engine, artifact) {
            (Engine::Column, Artifact::Column(column)) => TraceForm::Column(column.clone()),
            (Engine::Table | Engine::Net, _) => {
                TraceForm::Net(EventSim::new().compile(&artifact.to_network()))
            }
            (Engine::Grl, _) => TraceForm::Grl(
                try_compile_network(&artifact.to_network()).map_err(|e| e.to_string())?,
            ),
            _ => return Err(engine.cannot_run(artifact.kind())),
        })
    }
}

/// The default input sweep for an untraced-volley `spacetime trace` run:
/// exhaustive over window 3 for narrow inputs, otherwise an all-zeros
/// volley plus one single-spike volley per line — deterministic either
/// way, so repeated traces are comparable.
fn default_sweep(width: usize) -> VolleyBatch {
    if width <= 3 {
        let rows: Vec<Vec<Time>> = spacetime::core::enumerate_inputs(width, 3).collect();
        VolleyBatch::from_fn(width, rows.len(), |row, line| rows[row][line])
    } else {
        // Row 0 all zeros, then row `k` a single spike on line `k - 1`.
        VolleyBatch::from_fn(width, width + 1, |row, line| {
            if row == 0 || line + 1 == row {
                Time::ZERO
            } else {
                Time::INFINITY
            }
        })
    }
}

/// Runs a volley batch through a [`TraceForm`] sequentially, marking
/// each volley and recording its model-time events.
fn record_events(
    form: &TraceForm,
    volleys: &VolleyBatch,
    recorder: &mut spacetime::obs::Recorder,
) -> Result<(), String> {
    for (index, volley) in volleys.rows().enumerate() {
        recorder.begin_volley(index);
        match form {
            TraceForm::Net(compiled) => {
                compiled
                    .run_with(volley, recorder)
                    .map_err(|e| format!("volley {index}: {e}"))?;
            }
            TraceForm::Grl(netlist) => {
                GrlSim::new()
                    .run_with(netlist, volley, recorder)
                    .map_err(|e| format!("volley {index}: {e}"))?;
            }
            TraceForm::Column(column) => {
                column
                    .eval_with(volley, recorder)
                    .map_err(|e| format!("volley {index}: {e}"))?;
            }
        }
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    use spacetime::obs::{chrome_trace, events_jsonl, spike_raster_csv, Recorder, RunStats};

    let mut path = None;
    let mut format = "stats".to_owned();
    let mut engine: Option<Engine> = None;
    let mut volleys_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--format" => format = flag_value(&mut iter, a)?,
            "--engine" => engine = Some(flag_value(&mut iter, a)?.parse()?),
            "--volleys" => volleys_path = Some(flag_value(&mut iter, a)?),
            "--threads" => threads = Some(parse_threads(&flag_value(&mut iter, a)?)?),
            "--out" => out = Some(flag_value(&mut iter, a)?),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let usage = "usage: spacetime trace <file> [--format raster|jsonl|chrome|stats|prom] \
                 [--engine table|net|grl|column] [--volleys <file>] [--threads N] [--out <file>]";
    let path = path.ok_or(usage)?;
    if !matches!(
        format.as_str(),
        "raster" | "jsonl" | "chrome" | "stats" | "prom"
    ) {
        return Err(format!(
            "unknown format {format:?}; expected raster|jsonl|chrome|stats|prom"
        ));
    }
    let artifact = load(&path, None)?;
    let engine = engine.unwrap_or_else(|| Engine::native(artifact.kind()));

    // The batch-pass artifact and the spike-pass form of the same file.
    let compiled = CompiledArtifact::select(engine, &artifact)?;
    let form = TraceForm::new(engine, &artifact)?;

    let volleys = match &volleys_path {
        Some(vp) => read_volleys(vp, compiled.input_width())?,
        None => default_sweep(compiled.input_width()),
    };
    let evaluator = threads.map_or_else(BatchEvaluator::new, BatchEvaluator::with_threads);

    // The prom format skips the event passes entirely: it runs the batch
    // engine with a metrics sink attached and renders the counter
    // snapshot in the Prometheus text exposition format.
    if format == "prom" {
        use spacetime::metrics::{MetricsRegistry, MetricsSnapshot};
        let mut registry = MetricsRegistry::new();
        evaluator
            .eval_with(
                &compiled,
                &volleys,
                &mut VolleyBatch::default(),
                &mut registry,
                spacetime::trace::SpanId::NONE,
            )
            .map_err(|e| format!("{path}: {e}"))?;
        let families = registry.counters().count() + registry.histograms().count();
        let summary = format!(
            "{families} metric families from {} volleys through the {engine} engine",
            volleys.len()
        );
        let rendered = MetricsSnapshot::from_registry(&registry).to_prom_text();
        return emit(out.as_deref(), rendered, Some(&summary));
    }

    // Pass 1 — model-time events: one marked, recorded sequential run per
    // volley (gate firings / wire falls / potentials / WTA decisions).
    let mut recorder = Recorder::new();
    record_events(&form, &volleys, &mut recorder)?;

    // Pass 2 — wall-clock timing: the batch engine appends per-volley,
    // per-chunk, and stage timings to the same stream.
    evaluator
        .eval_with(
            &compiled,
            &volleys,
            &mut VolleyBatch::default(),
            &mut recorder,
            spacetime::trace::SpanId::NONE,
        )
        .map_err(|e| format!("{path}: {e}"))?;

    let events = recorder.events();
    let rendered = match format.as_str() {
        "raster" => spike_raster_csv(events),
        "jsonl" => events_jsonl(events),
        "chrome" => chrome_trace(events),
        _ => RunStats::from_events(events).to_string(),
    };
    let summary = format!(
        "{} events from {} volleys through the {engine} engine",
        events.len(),
        volleys.len()
    );
    emit(out.as_deref(), rendered, Some(&summary))
}

/// Parses a `--why` query of the form `<gate>@<time>` — `g5@3`,
/// `gate12@inf`, or a bare index like `7@0`.
fn parse_why(spec: &str) -> Result<(usize, Time), String> {
    let Some((gate, at)) = spec.rsplit_once('@') else {
        return Err(format!(
            "bad --why query {spec:?}; expected <gate>@<time> like g5@3 or g5@inf"
        ));
    };
    let digits = gate.trim_start_matches("gate").trim_start_matches('g');
    let gate = digits
        .parse::<usize>()
        .map_err(|_| format!("bad gate {gate:?} in --why query (use g<N>)"))?;
    let at = at
        .parse::<Time>()
        .map_err(|e| format!("bad time {at:?} in --why query: {e}"))?;
    Ok((gate, at))
}

/// Records an event-simulation run of `network` over `volleys`
/// into an indexed spike database.
fn record_net_run(
    network: &Network,
    volleys: &VolleyBatch,
) -> Result<spacetime::insight::SpikeDb, String> {
    let mut recorder = spacetime::obs::Recorder::new();
    let form = TraceForm::Net(EventSim::new().compile(network));
    record_events(&form, volleys, &mut recorder)?;
    Ok(spacetime::insight::SpikeDb::from_events_with_dropped(
        recorder.events(),
        recorder.dropped(),
    ))
}

/// Writes a `--witness` replay pair: `<prefix>.net` (the inspected
/// network with the queried gate exposed as an output) and
/// `<prefix>.volleys` (the witness volley). Returns the output column
/// the queried gate lands on under `spacetime batch`.
fn write_witness(
    prefix: &str,
    network: &Network,
    prov: &spacetime::insight::Provenance,
) -> Result<usize, String> {
    let token = format!("g{}", prov.gate);
    let mut column = None;
    let mut lines: Vec<String> = spacetime::net::network_to_text(network)
        .lines()
        .map(str::to_owned)
        .collect();
    for line in &mut lines {
        let Some(rest) = line.strip_prefix("outputs") else {
            continue;
        };
        let outs: Vec<String> = rest.split_whitespace().map(str::to_owned).collect();
        column = Some(match outs.iter().position(|o| *o == token) {
            Some(k) => k,
            None => {
                line.push(' ');
                line.push_str(&token);
                outs.len()
            }
        });
    }
    let column = column.unwrap_or_else(|| {
        lines.push(format!("outputs {token}"));
        0
    });
    let net_path = format!("{prefix}.net");
    write_file(&net_path, lines.join("\n") + "\n")?;
    let volleys_path = format!("{prefix}.volleys");
    write_file(&volleys_path, prov.witness_line() + "\n")?;
    Ok(column)
}

fn cmd_inspect(args: &[String]) -> Result<bool, String> {
    use spacetime::insight::{
        diff_gate_runs, diff_output_runs, eval_graph, parse_trace, why, InsightStats, SpikeDb, Unit,
    };
    use spacetime::lint::LintOp;
    use spacetime::net::lint::to_lint_graph;
    use std::fmt::Write as _;

    let mut path: Option<String> = None;
    let mut stats = false;
    let mut raster = false;
    let mut why_query: Option<String> = None;
    let mut diff_path: Option<String> = None;
    let mut volley_index: Option<usize> = None;
    let mut witness: Option<String> = None;
    let mut engine: Option<Engine> = None;
    let mut volleys_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut json = false;
    let mut dot = false;
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--stats" => stats = true,
            "--raster-summary" => raster = true,
            "--why" => why_query = Some(flag_value(&mut iter, a)?),
            "--diff" => diff_path = Some(flag_value(&mut iter, a)?),
            "--volley" => {
                volley_index = Some(
                    flag_value(&mut iter, a)?
                        .parse::<usize>()
                        .map_err(|e| format!("bad volley index: {e}"))?,
                );
            }
            "--witness" => witness = Some(flag_value(&mut iter, a)?),
            "--engine" => engine = Some(flag_value(&mut iter, a)?.parse()?),
            "--volleys" => volleys_path = Some(flag_value(&mut iter, a)?),
            "--trace" => trace_path = Some(flag_value(&mut iter, a)?),
            "--threads" => threads = Some(parse_threads(&flag_value(&mut iter, a)?)?),
            "--json" => json = true,
            "--dot" => dot = true,
            "--out" => out = Some(flag_value(&mut iter, a)?),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let usage = "usage: spacetime inspect <file> [--stats|--raster-summary|--why <gate>@<t>|\
                 --diff <other-file>] [--volley N] [--witness <prefix>] \
                 [--engine table|net|grl|column] [--volleys <file>] [--trace <run.jsonl>] \
                 [--threads N] [--json] [--dot] [--out <file>]";
    let path = path.ok_or(usage)?;
    let artifact = load(&path, None)?;
    // Every query but the column engine's runs over the gate-network
    // lowering, whose gate indices the lint graph shares.
    let network = artifact.to_network();
    let out = out.as_deref();

    let volleys = match &volleys_path {
        Some(vp) => read_volleys(vp, network.input_count())?,
        None => default_sweep(network.input_count()),
    };

    let load_trace_db = |tp: &String| -> Result<SpikeDb, String> {
        Ok(parse_trace(&read_text(tp)?)
            .map_err(|e| format!("{tp}: {e}"))?
            .to_db())
    };

    // --diff: first-divergence localization between the two files' runs.
    if let Some(other) = &diff_path {
        let network_b = load(other, None)?.to_network();
        if network.input_count() != network_b.input_count() {
            return Err(format!(
                "{path} has {} input line(s), {other} has {} — the runs cannot be aligned",
                network.input_count(),
                network_b.input_count()
            ));
        }
        let (divergence_text, divergence_json);
        if network.gate_count() == network_b.gate_count() {
            // Same shape ⇒ aligned gate indices: localize at gate level,
            // with the root cause's agreed source times as context.
            let db_a = record_net_run(&network, &volleys)?;
            let db_b = record_net_run(&network_b, &volleys)?;
            let graph = to_lint_graph(&network);
            match diff_gate_runs(&graph, &db_a, &db_b).map_err(|e| e.to_string())? {
                None => {
                    let agree = format!(
                        "runs agree: {} volley(s), {} gate(s), no divergence\n",
                        volleys.len(),
                        graph.len()
                    );
                    emit(out, agree, None)?;
                    return Ok(true);
                }
                Some(d) => (divergence_text, divergence_json) = (d.render(), d.to_json()),
            }
        } else {
            // Different lowerings ⇒ gate indices are incomparable:
            // project to the observable output lines.
            let evaluator = threads.map_or_else(BatchEvaluator::new, BatchEvaluator::with_threads);
            let run = |network: &Network, label: &str| -> Result<Vec<Vec<Time>>, String> {
                let artifact = CompiledArtifact::from_network(network);
                Ok(evaluator
                    .eval_batch(&artifact, &volleys)
                    .map_err(|e| format!("{label}: {e}"))?
                    .rows()
                    .map(<[Time]>::to_vec)
                    .collect())
            };
            let outs_a = run(&network, &path)?;
            let outs_b = run(&network_b, other)?;
            match diff_output_runs(&outs_a, &outs_b).map_err(|e| e.to_string())? {
                None => {
                    let agree = format!(
                        "runs agree: {} volley(s), {} output line(s), no divergence\n",
                        volleys.len(),
                        outs_a.first().map_or(0, Vec::len)
                    );
                    emit(out, agree, None)?;
                    return Ok(true);
                }
                Some(d) => (divergence_text, divergence_json) = (d.render(), d.to_json()),
            }
        }
        let rendered = if json {
            divergence_json + "\n"
        } else {
            divergence_text
        };
        emit(out, rendered, None)?;
        return Ok(false);
    }

    // --why: the backward cone of influence of one (gate, time) event.
    // Always answered over the net lowering, whose gate indices the lint
    // graph shares.
    if let Some(query) = &why_query {
        let (gate, at) = parse_why(query)?;
        let graph = to_lint_graph(&network);
        if gate >= graph.len() {
            return Err(format!(
                "gate g{gate} is out of range: {path} lowers to {} gate(s)",
                graph.len()
            ));
        }
        let db = match &trace_path {
            Some(tp) => load_trace_db(tp)?,
            None => record_net_run(&network, &volleys)?,
        };
        if db.is_truncated() {
            return Err(format!(
                "the recording dropped {} event(s); provenance over a truncated window would \
                 fabricate silences (re-record with a larger capacity)",
                db.dropped()
            ));
        }
        let vt = match volley_index {
            Some(n) => db.volley(n).ok_or_else(|| {
                format!(
                    "volley {n} is not in the recording ({} volley(s))",
                    db.volleys().len()
                )
            })?,
            None => db
                .volleys()
                .iter()
                .find(|v| v.time_of(Unit::Gate(gate)) == at)
                .ok_or_else(|| {
                    let mut seen: Vec<String> = db
                        .volleys()
                        .iter()
                        .map(|v| v.time_of(Unit::Gate(gate)).to_string())
                        .collect();
                    seen.sort();
                    seen.dedup();
                    format!(
                        "no recorded volley has g{gate} at {at}; observed times: {}",
                        seen.join(", ")
                    )
                })?,
        };
        let waveform = vt.gate_waveform(graph.len());
        if waveform[gate] != at {
            return Err(format!(
                "in volley {}, g{gate} is at {} (queried {at}); pick another --volley",
                vt.index, waveform[gate]
            ));
        }
        if trace_path.is_some() {
            // A loaded trace may come from anywhere — cross-check it
            // against the artifact before explaining it.
            let mut inputs = vec![Time::INFINITY; graph.input_count()];
            for (i, node) in graph.nodes().iter().enumerate() {
                if let LintOp::Input(n) = &node.op {
                    inputs[*n] = waveform[i];
                }
            }
            let expect = eval_graph(&graph, &inputs).map_err(|e| e.to_string())?;
            if expect != waveform {
                return Err(format!(
                    "the recorded trace does not match {path} (volley {}): it was recorded \
                     from a different artifact or engine",
                    vt.index
                ));
            }
        }
        let prov = why(&graph, &waveform, vt.index, gate, at).map_err(|e| e.to_string())?;
        let rendered = if dot {
            prov.to_dot()
        } else if json {
            prov.to_json() + "\n"
        } else {
            prov.render()
        };
        emit(out, rendered, None)?;
        if let Some(prefix) = &witness {
            let column = write_witness(prefix, &network, &prov)?;
            eprintln!(
                "replay: spacetime batch {prefix}.net {prefix}.volleys --engine net   \
                 # expect output column {column} = {at}"
            );
        }
        return Ok(true);
    }

    // Default: volley-coding analytics (--stats) and/or a compact
    // per-volley spike summary (--raster-summary).
    let want_stats = stats || !raster;
    let db = match &trace_path {
        Some(tp) => load_trace_db(tp)?,
        None => {
            let engine = engine.unwrap_or_else(|| Engine::native(artifact.kind()));
            let form = TraceForm::new(engine, &artifact)?;
            let mut recorder = spacetime::obs::Recorder::new();
            record_events(&form, &volleys, &mut recorder)?;
            SpikeDb::from_events_with_dropped(recorder.events(), recorder.dropped())
        }
    };
    let mut rendered = String::new();
    if want_stats {
        let s = InsightStats::from_db(&db);
        if json {
            rendered.push_str(&s.to_json());
            rendered.push('\n');
        } else {
            rendered.push_str(&s.render());
        }
    }
    if raster {
        for vt in db.volleys() {
            let spikes: Vec<String> = vt
                .spikes
                .iter()
                .map(|&(u, at)| format!("{u}@{at}"))
                .collect();
            let line = if spikes.is_empty() {
                "-".to_owned()
            } else {
                spikes.join(" ")
            };
            let _ = writeln!(rendered, "volley {}: {line}", vt.index);
        }
    }
    emit(out, rendered, None)?;
    Ok(true)
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    use spacetime::trace::{
        chrome_spans, collapsed_stacks, spans_jsonl, top_table, Instrument, SpanId, TraceBuffer,
    };

    let mut path = None;
    let mut format = "flame".to_owned();
    let mut engine = Engine::Kernel;
    let mut volleys_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--format" => format = flag_value(&mut iter, a)?,
            "--engine" => engine = flag_value(&mut iter, a)?.parse()?,
            "--volleys" => volleys_path = Some(flag_value(&mut iter, a)?),
            "--threads" => threads = Some(parse_threads(&flag_value(&mut iter, a)?)?),
            "--out" => out = Some(flag_value(&mut iter, a)?),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let usage = "usage: spacetime profile <file> [--format flame|chrome|top|json] \
                 [--engine table|net|grl|column|kernel] [--volleys <file>] [--threads N] \
                 [--out <file>]";
    let path = path.ok_or(usage)?;
    if !matches!(format.as_str(), "flame" | "chrome" | "top" | "json") {
        return Err(format!(
            "unknown format {format:?}; expected flame|chrome|top|json"
        ));
    }
    let mut tracer = TraceBuffer::new();

    // Stage 1 — compile: load the artifact and lower it to a gate
    // network, the representation the rest of the pipeline profiles.
    let compile_span = tracer.begin("compile", SpanId::NONE);
    let artifact = load(&path, None)?;
    let network = artifact.to_network();
    tracer.end(compile_span);

    // Stage 2 — lint: the STA diagnostic passes over the lowered graph.
    let lint_span = tracer.begin("lint", SpanId::NONE);
    let lint_report = spacetime::lint::lint_graph_traced(
        &spacetime::net::lint::to_lint_graph(&network),
        &spacetime::lint::LintOptions::default(),
        &mut tracer,
        lint_span,
    );
    tracer.end(lint_span);

    // Stage 3 — verified optimization: every pass span nests its
    // bounded-equivalence proof obligation (`verify.check_equiv` over
    // per-extent `verify.window` sub-spans).
    let opt_span = tracer.begin("opt", SpanId::NONE);
    let outcome = spacetime::opt::optimize_network_traced(
        &network,
        &spacetime::opt::OptOptions::default(),
        &mut tracer,
        opt_span,
    )?;
    tracer.end(opt_span);

    // Stage 4 — evaluation artifact. The gate-level engines run the
    // optimized network (the kernel engine records a `plan.build` span
    // for its SWAR lowering); the table and column engines run the file
    // as written.
    let evaluated = if engine.is_gate_level() {
        outcome.artifact
    } else {
        artifact
    };
    let compiled = CompiledArtifact::select_traced(engine, &evaluated, &mut tracer, SpanId::NONE)?;

    let volleys = match &volleys_path {
        Some(vp) => read_volleys(vp, compiled.input_width())?,
        None => default_sweep(compiled.input_width()),
    };

    // Stage 5 — batch evaluation: worker chunk spans (and, on the kernel
    // engine, per-packet spans) nest under this stage span via explicit
    // parent ids carried across the thread scope.
    let eval_span = tracer.begin("batch.eval", SpanId::NONE);
    threads
        .map_or_else(BatchEvaluator::new, BatchEvaluator::with_threads)
        .eval_with(
            &compiled,
            &volleys,
            &mut VolleyBatch::default(),
            &mut tracer,
            eval_span,
        )
        .map_err(|e| format!("{path}: {e}"))?;
    tracer.end(eval_span);

    let records = tracer.into_records();
    let rendered = match format.as_str() {
        "flame" => collapsed_stacks(&records),
        "chrome" => chrome_spans(&records),
        "top" => top_table(&records),
        _ => spans_jsonl(&records),
    };
    let summary = format!(
        "{} spans from {} volleys through the {engine} engine; lint {}, opt {} -> {}",
        records.len(),
        volleys.len(),
        lint_report.summary(),
        outcome.before,
        outcome.after
    );
    emit(out.as_deref(), rendered, Some(&summary))
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    use spacetime::bench::{full_matrix, quick_matrix, run_matrix};
    use spacetime::metrics::{compare, parse_history, render_trend, BenchReport, TrendRow};

    let mut tier = "quick";
    let mut label: Option<String> = None;
    let mut out: Option<String> = None;
    let mut threads: Option<Vec<usize>> = None;
    let mut compare_with: Option<(String, String)> = None;
    let mut threshold = 1.5f64;
    let mut check: Option<String> = None;
    let mut history: Option<String> = None;
    let mut trend: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => tier = "quick",
            "--full" => tier = "full",
            "--label" => label = Some(flag_value(&mut iter, a)?),
            "--out" => out = Some(flag_value(&mut iter, a)?),
            "--history" => history = Some(flag_value(&mut iter, a)?),
            "--trend" => trend = Some(flag_value(&mut iter, a)?),
            "--baseline" => baseline = Some(flag_value(&mut iter, a)?),
            "--threads" => {
                let list = flag_value(&mut iter, a)?
                    .split(',')
                    .map(parse_threads)
                    .collect::<Result<Vec<usize>, String>>()?;
                if list.is_empty() {
                    return Err("--threads needs at least one count".into());
                }
                threads = Some(list);
            }
            "--compare" => {
                let old = flag_value(&mut iter, a)?;
                let new = iter
                    .next()
                    .ok_or("--compare needs two report files: <old.json> <new.json>")?
                    .clone();
                compare_with = Some((old, new));
            }
            "--threshold" => {
                threshold = flag_value(&mut iter, a)?
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 1.0)
                    .ok_or("--threshold must be a finite ratio >= 1.0")?;
            }
            "--check" => check = Some(flag_value(&mut iter, a)?),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }

    let load = |path: &str| -> Result<BenchReport, String> {
        BenchReport::from_json(&read_text(path)?).map_err(|e| format!("{path}: {e}"))
    };

    if let Some(path) = check {
        let report = load(&path)?;
        let rendered = format!(
            "{path}: valid {} report ({} scenarios, label {:?}, rev {})\n",
            report.schema,
            report.scenarios.len(),
            report.label,
            report.git_rev
        );
        return emit(None, rendered, None);
    }

    if let Some(history_path) = trend {
        let baseline_path = baseline.as_deref().unwrap_or("BENCH_seed.json");
        let base = load(baseline_path)?;
        let rows = parse_history(&read_text(&history_path)?)
            .map_err(|e| format!("{history_path}: {e}"))?;
        return emit(None, render_trend(&base, &rows), None);
    }

    if let Some((old_path, new_path)) = compare_with {
        let old = load(&old_path)?;
        let new = load(&new_path)?;
        let outcome = compare(&old, &new, threshold);
        emit(None, outcome.render_table(), None)?;
        // Coverage drift warns but never gates: a scenario present on
        // only one side has no ratio to threshold.
        for name in &outcome.missing {
            eprintln!(
                "warning: scenario {name} is in the baseline {old_path} but not in \
                 {new_path}; it was not compared"
            );
        }
        for name in &outcome.added {
            eprintln!(
                "warning: scenario {name} is new in {new_path} (no baseline row in \
                 {old_path}); it was not compared"
            );
        }
        if outcome.regressed {
            return Err(format!(
                "performance regression: at least one scenario exceeded {threshold}x \
                 the baseline median"
            ));
        }
        return Ok(());
    }

    let mut specs = if tier == "full" {
        full_matrix()
    } else {
        quick_matrix()
    };
    if let Some(list) = threads {
        let sized: Vec<(&'static str, usize)> = {
            let mut seen = Vec::new();
            for s in &specs {
                if !seen.contains(&(s.engine, s.size)) {
                    seen.push((s.engine, s.size));
                }
            }
            seen
        };
        let template = specs[0].clone();
        specs = sized
            .into_iter()
            .flat_map(|(engine, size)| {
                let template = template.clone();
                list.iter().map(move |&t| spacetime::bench::ScenarioSpec {
                    engine,
                    size,
                    threads: t,
                    ..template.clone()
                })
            })
            .collect();
    }
    let label = label.unwrap_or_else(|| tier.to_owned());
    let report = run_matrix(&specs, &label)?;
    let summary = format!(
        "{} scenarios, label {label:?}, rev {}",
        report.scenarios.len(),
        report.git_rev
    );
    emit(out.as_deref(), report.to_json(), Some(&summary))?;
    if let Some(f) = history {
        // Append-only ledger: one compact trend row per bench run, so
        // medians can be read over time (`spacetime bench --trend`).
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&f)
            .map_err(|e| format!("cannot open {f}: {e}"))?;
        let row = TrendRow::from_report(&report);
        writeln!(file, "{}", row.to_json_line()).map_err(|e| format!("cannot write {f}: {e}"))?;
        eprintln!(
            "appended a trend row ({} scenarios, label {label:?}) to {f}",
            row.p50s.len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_times_accepts_inf() {
        let ts = parse_times(&["3".into(), "inf".into(), "∞".into()]).unwrap();
        assert_eq!(ts, vec![Time::finite(3), Time::INFINITY, Time::INFINITY]);
        assert!(parse_times(&["x".into()]).is_err());
    }

    #[test]
    fn parse_volleys_handles_comments_and_inf() {
        let file =
            std::env::temp_dir().join(format!("spacetime-main-{}.volleys", std::process::id()));
        std::fs::write(&file, "# header\n0 1 2\n\n3 inf ∞  # trailing comment\n").unwrap();
        let path = file.to_str().unwrap().to_owned();
        let volleys = read_volleys(&path, 3).unwrap();
        assert_eq!(volleys.len(), 2);
        assert_eq!(
            volleys.row(0),
            &[Time::ZERO, Time::finite(1), Time::finite(2)]
        );
        assert_eq!(
            volleys.row(1),
            &[Time::finite(3), Time::INFINITY, Time::INFINITY]
        );
        std::fs::write(&file, "0 oops\n").unwrap();
        let err = read_volleys(&path, 2).unwrap_err();
        let _ = std::fs::remove_file(&file);
        assert!(err.starts_with(&format!("{path}:1:")), "{err}");
    }

    #[test]
    fn detect_kind_separates_the_three_formats() {
        assert_eq!(Kind::detect("# comment\n0 1 -> 2\n"), Kind::Table);
        assert_eq!(
            Kind::detect("inhibition wta 1\nneuron 3 ...\n"),
            Kind::Column
        );
        assert_eq!(Kind::detect("response ups 0 downs 5\n"), Kind::Column);
        assert_eq!(Kind::detect("g0 = input\noutputs g0\n"), Kind::Net);
        assert_eq!(Kind::detect("\n# only comments\n"), Kind::Net);
    }

    #[test]
    fn simulate_roundtrip_smoke() {
        let table = FunctionTable::parse("0 1 -> 2\n1 0 -> 3\n").unwrap();
        let network = synthesize(&table, SynthesisOptions::default());
        simulate_network(&network, &[Time::ZERO, Time::finite(1)], None).unwrap();
    }
}
