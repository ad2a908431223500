//! The traced run: per-layer attribution by in-process replay.
//!
//! Each workload's path is replayed through the public functions of the
//! layers it crosses, with a span recorded around every call (an
//! `st_trace::TraceBuffer`, kept in memory and written to
//! `.bench_work/results/<workload>-seed<n>.spans.jsonl` when the run
//! ends). Layer times are derived from the spans: a layer's self time is
//! its span minus its children. Counters come from the engines' own
//! metered entry points on the same inputs. A layer the workload does not
//! cross reports 0.
//!
//! The replay runs twice per iteration, once with a `NullTracer` and once
//! with the `TraceBuffer`, so the cost of tracing itself is measured
//! (`trace.overhead_ratio`). The real CLI pass runs alongside, so the share
//! of its wall time the replay cannot account for is measured too
//! (`cli.unattributed_share`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use spacetime::batch::{BatchEvaluator, CompiledArtifact};
use spacetime::core::{enumerate_inputs, FunctionTable, Time, Volley};
use spacetime::grl::{try_compile_network, GrlSim};
use spacetime::kernel::{PacketStats, Scratch};
use spacetime::lint::LintOptions;
use spacetime::metrics::MetricsRegistry;
use spacetime::net::synth::{synthesize, SynthesisOptions};
use spacetime::net::Network;
use spacetime::opt::{optimize_artifact, OptOptions};
use spacetime::trace::{
    spans_jsonl, top_rows, NullTracer, SpanId, SpanRecord, TraceBuffer, Tracer,
};
use spacetime::verify::equiv::check_equiv;
use spacetime::verify::eval::{GrlEvaluator, NetEvaluator, TableEvaluator};
use spacetime::verify::{verify_artifact, Artifact, VerifyOptions};

use crate::check;
use crate::gen::{BURST_BATCH, VERIFY_WINDOW};
use crate::stats::median;
use crate::workloads::{
    batch_failures, burst_inputs, compile_sorter, load_sorter, verify_pass, Engine, Stream,
};
use crate::{Env, Outcome, Sample, Summary, Workload, PER_LAYER, THREADS};

/// GRL runs timed for `grl.ns_per_run` (the first volleys of the
/// verification window; each run is a cycle-accurate simulation).
const GRL_SAMPLE: usize = 64;

/// Per-name span totals over a run: `(count, total ns, self ns)`.
type SpanTotals = BTreeMap<&'static str, (u64, u64, u64)>;

fn totals(records: &[SpanRecord]) -> SpanTotals {
    top_rows(records)
        .into_iter()
        .map(|r| (r.name, (r.count, r.total_nanos, r.self_nanos)))
        .collect()
}

/// Mean duration in seconds of the spans called `name`.
fn mean_s(t: &SpanTotals, name: &str) -> f64 {
    t.get(name).map_or(0.0, |&(count, total, _)| {
        total as f64 / count.max(1) as f64 / 1e9
    })
}

/// The per-layer values of one run, every `PER_LAYER` name starting at 0.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.0.contains_key(name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }
}

/// How many outputs or verdicts one replay checked, and how many were wrong.
struct Replayed {
    attempted: u64,
    failed: u64,
}

/// Reads a volley file the way `spacetime batch` does (`#` comments,
/// blank lines skipped), through the public `core` calls its private
/// reader makes: `Time::from_str` per token and `Volley::new` per line.
fn parse_volleys(text: &str) -> Result<Vec<Volley>, String> {
    let mut volleys = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let times: Result<Vec<Time>, _> = line.split_whitespace().map(str::parse::<Time>).collect();
        volleys.push(Volley::new(times.map_err(|e| e.to_string())?));
    }
    Ok(volleys)
}

/// Loads a stream spec the way the CLI's `load_netlike` does: an `st-net`
/// netlist for the sorter, a table run through Theorem 1 synthesis
/// otherwise.
fn load_network(text: &str, engine: Engine) -> Result<Network, String> {
    Ok(match engine {
        Engine::Kernel => load_sorter(text)?,
        Engine::Net => synthesize(
            &FunctionTable::parse(text).map_err(|e| e.to_string())?,
            SynthesisOptions::default(),
        ),
    })
}

/// Compiles a stream's network for its engine.
fn compile(network: &Network, engine: Engine) -> CompiledArtifact {
    match engine {
        Engine::Kernel => compile_sorter(network),
        Engine::Net => CompiledArtifact::from_network(network),
    }
}

/// One replay of `spacetime batch <spec> volleys.txt --engine <e>`:
/// load, compile, read, parse, evaluate, format, and write, each in its
/// own span under `replay.cli`.
fn replay_stream<T: Tracer>(
    env: &Env,
    engine: Engine,
    expected: &[u8],
    tracer: &mut T,
) -> Result<Replayed, String> {
    let root = tracer.begin("replay.cli", SpanId::NONE);
    let span = tracer.begin("net.load", root);
    let text = std::fs::read_to_string(env.file(engine.spec())).map_err(|e| e.to_string())?;
    let network = load_network(&text, engine)?;
    tracer.end(span);
    let compile_span = match engine {
        Engine::Kernel => "kernel.plan_build",
        Engine::Net => "net.compile",
    };
    let span = tracer.begin(compile_span, root);
    let artifact = compile(&network, engine);
    tracer.end(span);
    let span = tracer.begin("cli.read", root);
    let text = std::fs::read_to_string(env.file("volleys.txt")).map_err(|e| e.to_string())?;
    tracer.end(span);
    let span = tracer.begin("core.parse", root);
    let volleys = parse_volleys(&text)?;
    tracer.end(span);
    let span = tracer.begin("batch.eval", root);
    let outputs = BatchEvaluator::with_threads(THREADS)
        .eval(&artifact, &volleys)
        .map_err(|e| e.to_string())?;
    tracer.end(span);
    let span = tracer.begin("core.format", root);
    let mut rendered = String::new();
    for out in &outputs {
        rendered.push_str(&out.to_string());
        rendered.push('\n');
    }
    tracer.end(span);
    let span = tracer.begin("cli.write", root);
    std::fs::write(env.file("replay.out"), &rendered).map_err(|e| e.to_string())?;
    tracer.end(span);
    tracer.end(root);
    Ok(Replayed {
        attempted: volleys.len() as u64,
        failed: check::mismatched_lines(rendered.as_bytes(), expected),
    })
}

/// Repeats `iteration` until the measuring time is spent (at least once).
fn iterate(env: &Env, mut iteration: impl FnMut() -> Result<(), String>) -> Result<usize, String> {
    let started = Instant::now();
    let mut n = 0;
    while n == 0 || started.elapsed().as_secs_f64() < env.seconds {
        iteration()?;
        n += 1;
    }
    Ok(n)
}

/// Runs `f`, returning its result and wall time in seconds.
fn timed<R>(f: impl FnOnce() -> Result<R, String>) -> Result<(R, f64), String> {
    let t0 = Instant::now();
    let r = f()?;
    Ok((r, t0.elapsed().as_secs_f64()))
}

/// Bookkeeping shared by the traced runs: the span buffer, the untraced
/// and traced replay walls, the real CLI walls, and the check counts.
struct Run {
    buffer: TraceBuffer,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    cli: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Run {
    fn new() -> Run {
        Run {
            buffer: TraceBuffer::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            cli: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn count(&mut self, r: &Replayed) {
        self.attempted += r.attempted;
        self.failed += r.failed;
    }

    /// The run's shared metrics, its span file, and its outcome.
    fn finish(
        self,
        env: &Env,
        iterations: usize,
        mut layers: Layers,
        replay_root: &str,
    ) -> Result<Outcome, String> {
        let records = self.buffer.into_records();
        let t = totals(&records);
        layers.set(
            "trace.overhead_ratio",
            median(&self.traced) / median(&self.untraced),
        );
        if !self.cli.is_empty() {
            // The replay root's children are the layers the CLI path
            // crosses; whatever the process spends outside them (start-up,
            // argument handling, exit) is unattributed.
            let (count, total, own) = t.get(replay_root).copied().unwrap_or((1, 0, 0));
            let attributed = (total - own) as f64 / count.max(1) as f64 / 1e9;
            let cli = median(&self.cli);
            layers.set("cli.unattributed_share", (cli - attributed) / cli);
        }
        write_spans(env, &records)?;
        Ok(Outcome {
            attempted: self.attempted,
            failed: self.failed,
            passes: iterations,
            samples: PER_LAYER
                .iter()
                .map(|&(name, unit)| Sample::new(name, unit, Summary::Median, vec![layers.0[name]]))
                .collect(),
            notes: vec![format!(
                "traced run: {iterations} iteration(s), {} spans; a layer off this path reports 0",
                records.len()
            )],
        })
    }
}

/// Writes the run's spans, one JSON object per line, each tagged with the
/// run's id.
fn write_spans(env: &Env, records: &[SpanRecord]) -> Result<(), String> {
    let run_id = &env.run_id;
    let mut out = String::new();
    for line in spans_jsonl(records).lines() {
        out.push_str(&line.replacen('{', &format!("{{\"run\":\"{run_id}\","), 1));
        out.push('\n');
    }
    let dir = env
        .work
        .parent()
        .map_or_else(|| env.work.clone(), |p| p.join("results"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{run_id}.spans.jsonl"));
    std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The traced run of `workload`.
pub fn run(workload: Workload, env: &Env) -> Result<Outcome, String> {
    match workload {
        Workload::StreamSortKernel => stream(env, Engine::Kernel),
        Workload::StreamTableNet => stream(env, Engine::Net),
        Workload::VerifySynth => verify(env),
        Workload::Burst64 => burst(env),
    }
}

fn stream(env: &Env, engine: Engine) -> Result<Outcome, String> {
    let stream = Stream::load(env, engine)?;
    let expected = &stream.expected;
    let mut run = Run::new();
    let iterations = iterate(env, || {
        let (r, wall) = timed(|| replay_stream(env, engine, expected, &mut NullTracer))?;
        run.untraced.push(wall);
        run.count(&r);
        let (r, wall) = timed(|| replay_stream(env, engine, expected, &mut run.buffer))?;
        run.traced.push(wall);
        run.count(&r);
        let pass = stream.pass(env)?;
        run.cli.push(pass.wall_s);
        run.attempted += stream.volleys as u64;
        run.failed += pass.failed;
        Ok(())
    })?;

    let t = totals(&run.buffer.records());
    let volleys = stream.volleys as f64;
    let per_volley = |name: &str| {
        t.get(name).map_or(0.0, |&(count, _, own)| {
            own as f64 / count.max(1) as f64 / volleys
        })
    };
    let mut layers = Layers::new();
    layers.set("core.parse_ns_per_volley", per_volley("core.parse"));
    layers.set("core.format_ns_per_volley", per_volley("core.format"));
    layers.set("net.load_s", mean_s(&t, "net.load"));
    layers.set("net.compile_s", mean_s(&t, "net.compile"));
    layers.set("kernel.plan_build_s", mean_s(&t, "kernel.plan_build"));

    // Counters and single-threaded engine cost, on the same inputs.
    let text = std::fs::read_to_string(env.file("volleys.txt")).map_err(|e| e.to_string())?;
    let volleys_in = parse_volleys(&text)?;
    let spec_text = std::fs::read_to_string(env.file(engine.spec())).map_err(|e| e.to_string())?;
    let artifact = compile(&load_network(&spec_text, engine)?, engine);
    let registry = metered_batch(&artifact, &volleys_in, &mut layers)?;
    match &artifact {
        CompiledArtifact::Kernel(_) => kernel_layers(
            &artifact,
            &volleys_in,
            &registry,
            &mut run.buffer,
            &mut layers,
        ),
        CompiledArtifact::Network(network) => {
            let root = run.buffer.begin("replay.engine", SpanId::NONE);
            let span = run.buffer.begin("net.eval", root);
            for v in &volleys_in {
                black_box(network.run(v.times()).map_err(|e| format!("{e:?}"))?);
            }
            run.buffer.end(span);
            run.buffer.end(root);
            let t = totals(&run.buffer.records());
            layers.set(
                "net.eval_ns_per_volley",
                mean_s(&t, "net.eval") * 1e9 / volleys,
            );
            let evals = registry.counter("net.gate_evals") as f64;
            layers.set("net.gate_evals_per_volley", evals / volleys);
            layers.set(
                "net.queue_pushes_per_volley",
                registry.counter("net.queue_pushes") as f64 / volleys,
            );
            layers.set(
                "net.firing_ratio",
                registry.counter("net.gate_firings") as f64 / evals.max(1.0),
            );
        }
        _ => unreachable!("stream replays build kernel or net artifacts"),
    }
    run.finish(env, iterations, layers, "replay.cli")
}

/// One metered two-thread `BatchEvaluator::eval_metered` call: sets the
/// fan-out/join cost and parallel efficiency, returns the engine counters.
fn metered_batch(
    artifact: &CompiledArtifact,
    volleys: &[Volley],
    layers: &mut Layers,
) -> Result<MetricsRegistry, String> {
    let mut registry = MetricsRegistry::new();
    let (outputs, wall) = timed(|| {
        BatchEvaluator::with_threads(THREADS)
            .eval_metered(artifact, volleys, &mut registry)
            .map_err(|e| e.to_string())
    })?;
    black_box(outputs);
    let (join_us, efficiency) = fanout(&registry, wall);
    layers.set("batch.fanout_join_us", join_us);
    layers.set("batch.parallel_efficiency", efficiency);
    Ok(registry)
}

/// `(eval wall − longest chunk, Σ chunk / (threads × wall))` of one
/// metered batch, in microseconds and as a ratio.
fn fanout(registry: &MetricsRegistry, wall_s: f64) -> (f64, f64) {
    let chunks = registry.histogram("batch.chunk_nanos");
    let longest = chunks
        .and_then(spacetime::metrics::Histogram::max)
        .unwrap_or(0) as f64
        / 1e9;
    let sum = chunks.map_or(0, spacetime::metrics::Histogram::sum) as f64 / 1e9;
    ((wall_s - longest) * 1e6, sum / (THREADS as f64 * wall_s))
}

/// Replays the SWAR path packet by packet on one thread, inside one
/// `kernel.eval_packet` span (pack, gate loop, and unpack are not split).
fn kernel_layers(
    artifact: &CompiledArtifact,
    volleys: &[Volley],
    registry: &MetricsRegistry,
    buffer: &mut TraceBuffer,
    layers: &mut Layers,
) {
    let CompiledArtifact::Kernel(plan) = artifact else {
        return;
    };
    let mut scratch = Scratch::default();
    let mut out = vec![Volley::new(Vec::new()); 8];
    let mut stats = PacketStats::default();
    let mut packets = 0u64;
    let root = buffer.begin("replay.engine", SpanId::NONE);
    let span = buffer.begin("kernel.eval_packet", root);
    for packet in volleys.chunks(8) {
        stats.absorb(plan.eval_packet(&mut scratch, packet, &mut out));
        packets += 1;
    }
    buffer.end(span);
    buffer.end(root);
    black_box(&out);
    let t = totals(&buffer.records());
    let (count, total, _) = t.get("kernel.eval_packet").copied().unwrap_or((1, 0, 0));
    let mean_ns = total as f64 / count.max(1) as f64;
    layers.set(
        "kernel.eval_packet_ns_per_volley",
        mean_ns / volleys.len() as f64,
    );
    // The metered batch counted the same packets across its workers.
    debug_assert_eq!(registry.counter("kernel.packets"), packets);
    layers.set("kernel.packets", registry.counter("kernel.packets") as f64);
    let swar = stats.gates_swar as f64;
    let skipped = stats.gates_skipped as f64;
    layers.set("kernel.gates_swar_per_packet", swar / packets.max(1) as f64);
    layers.set("kernel.skip_ratio", skipped / (swar + skipped).max(1.0));
}

/// One replay of a `burst-64` pass: every batch in its own `batch.eval`
/// span under `replay.burst`.
fn replay_burst<T: Tracer>(burst: &crate::workloads::Burst, tracer: &mut T) -> Replayed {
    let evaluator = BatchEvaluator::with_threads(THREADS);
    let root = tracer.begin("replay.burst", SpanId::NONE);
    let mut failed = 0;
    for (batch, expected) in burst
        .volleys
        .chunks(BURST_BATCH)
        .zip(burst.expected.chunks(BURST_BATCH))
    {
        let span = tracer.begin("batch.eval", root);
        let outputs = evaluator.eval(&burst.artifact, batch);
        tracer.end(span);
        failed += outputs.map_or(batch.len() as u64, |o| batch_failures(&o, expected));
    }
    tracer.end(root);
    Replayed {
        attempted: burst.volleys.len() as u64,
        failed,
    }
}

fn burst(env: &Env) -> Result<Outcome, String> {
    let sorter = std::fs::read_to_string(env.file("sorter4.net")).map_err(|e| e.to_string())?;
    let burst = burst_inputs(env)?;
    let mut run = Run::new();
    let mut join_us = Vec::new();
    let mut efficiency = Vec::new();
    let mut layers = Layers::new();
    let iterations = iterate(env, || {
        let (r, wall) = timed(|| Ok(replay_burst(&burst, &mut NullTracer)))?;
        run.untraced.push(wall);
        run.count(&r);
        let (r, wall) = timed(|| Ok(replay_burst(&burst, &mut run.buffer)))?;
        run.traced.push(wall);
        run.count(&r);
        // The compile a burst caller pays once, as spans.
        let root = run.buffer.begin("replay.setup", SpanId::NONE);
        let span = run.buffer.begin("net.load", root);
        let network = load_sorter(&sorter)?;
        run.buffer.end(span);
        let span = run.buffer.begin("kernel.plan_build", root);
        black_box(compile_sorter(&network));
        run.buffer.end(span);
        run.buffer.end(root);
        for batch in burst.volleys.chunks(BURST_BATCH) {
            let mut registry = MetricsRegistry::new();
            let (outputs, wall) = timed(|| {
                BatchEvaluator::with_threads(THREADS)
                    .eval_metered(&burst.artifact, batch, &mut registry)
                    .map_err(|e| e.to_string())
            })?;
            black_box(outputs);
            let (j, e) = fanout(&registry, wall);
            join_us.push(j);
            efficiency.push(e);
        }
        Ok(())
    })?;
    let t = totals(&run.buffer.records());
    layers.set("net.load_s", mean_s(&t, "net.load"));
    layers.set("kernel.plan_build_s", mean_s(&t, "kernel.plan_build"));
    layers.set("batch.fanout_join_us", median(&join_us));
    layers.set("batch.parallel_efficiency", median(&efficiency));
    let mut registry = MetricsRegistry::new();
    for batch in burst.volleys.chunks(BURST_BATCH) {
        BatchEvaluator::with_threads(THREADS)
            .eval_metered(&burst.artifact, batch, &mut registry)
            .map_err(|e| e.to_string())?;
    }
    kernel_layers(
        &burst.artifact,
        &burst.volleys,
        &registry,
        &mut run.buffer,
        &mut layers,
    );
    run.finish(env, iterations, layers, "replay.burst")
}

/// What one verify-synth replay's verdicts were.
struct VerifyFacts {
    volleys_checked: u64,
    gates_before: usize,
    gates_after: usize,
    rejected: usize,
}

/// One replay of the verify-synth pass in-process: load, lint, opt,
/// verify, and verify against the mutant, each in its own span under
/// `replay.cli`, with their verdicts checked like the CLI's.
fn replay_verify<T: Tracer>(env: &Env, tracer: &mut T) -> Result<(Replayed, VerifyFacts), String> {
    let root = tracer.begin("replay.cli", SpanId::NONE);
    let span = tracer.begin("cli.load", root);
    let read = |name: &str| std::fs::read_to_string(env.file(name)).map_err(|e| e.to_string());
    let spec = FunctionTable::parse(&read("spec.table")?).map_err(|e| e.to_string())?;
    let mutant = FunctionTable::parse(&read("mutant.table")?).map_err(|e| e.to_string())?;
    let artifact = Artifact::Table(spec.clone());
    tracer.end(span);
    let span = tracer.begin("lint", root);
    let options = LintOptions {
        relational: true,
        ..LintOptions::default()
    };
    let lint = spacetime::lint::lint_table(&spec, &options);
    tracer.end(span);
    let span = tracer.begin("opt", root);
    let opt = optimize_artifact(&artifact, &OptOptions::default())?;
    tracer.end(span);
    let span = tracer.begin("verify", root);
    let verified = verify_artifact(&artifact, None, &VerifyOptions::default())?;
    tracer.end(span);
    let span = tracer.begin("verify.against", root);
    let against = verify_artifact(&artifact, Some(&mutant), &VerifyOptions::default())?;
    tracer.end(span);
    tracer.end(root);

    let refuted = against
        .counterexamples
        .iter()
        .any(|c| spec.eval(&c.inputs).ok() != mutant.eval(&c.inputs).ok());
    let failed = u64::from(!lint.is_clean())
        + u64::from(opt.rejected() != 0)
        + u64::from(!verified.is_verified() || verified.proofs.len() != 2)
        + u64::from(against.is_verified() || !refuted);
    Ok((
        Replayed {
            attempted: 4,
            failed,
        },
        VerifyFacts {
            volleys_checked: verified.proofs.iter().map(|p| p.volleys).sum(),
            gates_before: opt.before,
            gates_after: opt.after,
            rejected: opt.rejected(),
        },
    ))
}

fn verify(env: &Env) -> Result<Outcome, String> {
    let read = |name: &str| -> Result<FunctionTable, String> {
        let text = std::fs::read_to_string(env.file(name)).map_err(|e| e.to_string())?;
        FunctionTable::parse(&text).map_err(|e| format!("{name}: {e}"))
    };
    let (original, mutant) = (read("spec.table")?, read("mutant.table")?);
    let mut run = Run::new();
    let mut facts = None;
    let iterations = iterate(env, || {
        let ((r, _), wall) = timed(|| replay_verify(env, &mut NullTracer))?;
        run.untraced.push(wall);
        run.count(&r);
        let ((r, f), wall) = timed(|| replay_verify(env, &mut run.buffer))?;
        run.traced.push(wall);
        run.count(&r);
        facts = Some(f);
        // The same pass through the CLI, for the unattributed share.
        let pass = verify_pass(env, &original, &mutant)?;
        run.cli.push(pass.wall_s);
        run.attempted += 4;
        run.failed += pass.failed;
        Ok(())
    })?;

    let t = totals(&run.buffer.records());
    let mut layers = Layers::new();
    layers.set("lint.s", mean_s(&t, "lint"));
    layers.set("opt.s", mean_s(&t, "opt"));
    layers.set("verify.s", mean_s(&t, "verify"));
    let facts = facts.ok_or("no verify replay ran")?;
    layers.set("verify.volleys_checked", facts.volleys_checked as f64);
    layers.set("opt.gates_before", facts.gates_before as f64);
    layers.set("opt.gates_after", facts.gates_after as f64);
    layers.set("opt.passes_rejected", facts.rejected as f64);

    // What `verify_artifact` does inside, layer by layer: synthesize,
    // lower to GRL, and check each lowering pair exhaustively.
    let buffer = &mut run.buffer;
    let root = buffer.begin("replay.verify_layers", SpanId::NONE);
    let span = buffer.begin("net.load", root);
    let network = synthesize(&original, SynthesisOptions::default());
    buffer.end(span);
    let span = buffer.begin("grl.compile", root);
    let netlist = try_compile_network(&network).map_err(|e| e.to_string())?;
    buffer.end(span);
    let window = VERIFY_WINDOW;
    let (table_eval, net_eval, grl_eval) = (
        TableEvaluator::new(&original),
        NetEvaluator::new(&network),
        GrlEvaluator::new(&netlist),
    );
    let span = buffer.begin("verify.check_equiv", root);
    let a = check_equiv(&table_eval, &net_eval, window)?;
    buffer.end(span);
    let span = buffer.begin("verify.check_equiv", root);
    let b = check_equiv(&net_eval, &grl_eval, window)?;
    buffer.end(span);
    run.attempted += 2;
    run.failed += u64::from(a.proof().is_none()) + u64::from(b.proof().is_none());
    let sample: Vec<Vec<Time>> = enumerate_inputs(4, window).take(GRL_SAMPLE).collect();
    let mut grl = MetricsRegistry::new();
    let span = buffer.begin("grl.run", root);
    for v in &sample {
        black_box(
            GrlSim::new()
                .run_metered(&netlist, v, &mut grl)
                .map_err(|e| format!("{e:?}"))?,
        );
    }
    buffer.end(span);
    buffer.end(root);
    let t = totals(&buffer.records());
    layers.set("net.load_s", mean_s(&t, "net.load"));
    layers.set("grl.compile_s", mean_s(&t, "grl.compile"));
    layers.set("verify.check_equiv_s", mean_s(&t, "verify.check_equiv"));
    let runs = grl.counter("grl.runs").max(1) as f64;
    layers.set("grl.ns_per_run", mean_s(&t, "grl.run") * 1e9 / runs);
    let cycles = grl.counter("grl.cycles") as f64 / runs;
    layers.set("grl.cycles_per_run", cycles);
    layers.set("grl.wire_steps", cycles * netlist.wire_count() as f64);
    run.finish(env, iterations, layers, "replay.cli")
}
