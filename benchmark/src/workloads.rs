//! The untraced runs behind the end-to-end metrics.
//!
//! Three workloads drive the real `spacetime` binary as a user would; the
//! fourth drives the public `BatchEvaluator` API in-process. Every pass is
//! checked against the references in [`crate::check`], and a run repeats
//! its pass until the measuring time is spent.

use std::hint::black_box;
use std::time::Instant;

use spacetime::batch::{BatchEvaluator, CompiledArtifact};
use spacetime::core::{FunctionTable, Time, Volley};
use spacetime::net::{parse_network, Network};

use crate::check::{self, RefVolley};
use crate::gen::BURST_BATCH;
use crate::proc;
use crate::{Env, Outcome, Sample, Summary, THREADS};

/// Timed passes a run makes even when the measuring time runs out first.
const MIN_PASSES: usize = 3;
/// Set-up measurements before each `verify-synth` pass (a pass takes
/// seconds; a set-up, milliseconds).
const VERIFY_SETUPS_PER_PASS: usize = 8;
/// In-process set-up measurements before each `burst-64` pass.
const BURST_SETUPS_PER_PASS: usize = 5;
/// Batch latencies kept per `burst-64` run (the first ones). A fixed cap
/// keeps the harness's own sample storage out of `peak_rss_mb`.
const BURST_LATENCY_SAMPLES: usize = 65_536;

fn text(env: &Env, name: &str) -> Result<Vec<u8>, String> {
    std::fs::read(env.file(name)).map_err(|e| format!("cannot read {name}: {e}"))
}

fn table(env: &Env, name: &str) -> Result<FunctionTable, String> {
    let bytes = text(env, name)?;
    FunctionTable::parse(&String::from_utf8_lossy(&bytes)).map_err(|e| format!("{name}: {e}"))
}

/// What a run's timed loop collected.
struct Timed<P> {
    /// The warm-up pass: checked, not timed.
    warm: P,
    /// The timed passes.
    passes: Vec<P>,
    /// Every set-up measurement, in seconds.
    setup: Vec<f64>,
}

/// Runs `pass` once to warm up, then until `env.seconds` have passed (at
/// least [`MIN_PASSES`] times), measuring `setup` `setups_per_pass` times
/// before each pass. Spreading the set-up measurements over the whole run,
/// rather than taking them in one burst, keeps their median from landing
/// on one noisy moment of a shared machine.
fn timed_passes<P>(
    env: &Env,
    setups_per_pass: usize,
    mut setup: impl FnMut() -> Result<f64, String>,
    mut pass: impl FnMut() -> Result<P, String>,
) -> Result<Timed<P>, String> {
    let warm = pass()?;
    let started = Instant::now();
    let (mut passes, mut setups) = (Vec::new(), Vec::new());
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < env.seconds {
        for _ in 0..setups_per_pass {
            setups.push(setup()?);
        }
        passes.push(pass()?);
    }
    Ok(Timed {
        warm,
        passes,
        setup: setups,
    })
}

/// Wall time of one `spacetime <args>` set-up run, which must succeed.
fn cli_setup(env: &Env, args: &[&str]) -> Result<f64, String> {
    let exit = proc::run(&env.spacetime, args, &env.log("setup"))?;
    if exit.code == 0 {
        Ok(exit.wall_s)
    } else {
        Err(format!(
            "set-up run `spacetime {}` exited {}",
            args.join(" "),
            exit.code
        ))
    }
}

/// A stream workload's engine. Each runs on its own spec: the sorter
/// netlist on the kernel engine, the generated table on the net engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `--engine kernel` on `sorter4.net`.
    Kernel,
    /// `--engine net` on `spec.table`.
    Net,
}

impl Engine {
    /// The engine's `--engine` value.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Kernel => "kernel",
            Engine::Net => "net",
        }
    }

    /// The generated spec file the engine runs.
    #[must_use]
    pub fn spec(self) -> &'static str {
        match self {
            Engine::Kernel => "sorter4.net",
            Engine::Net => "spec.table",
        }
    }
}

/// A stream workload: its inputs, their reference output, and the
/// `spacetime batch` calls that process them.
pub struct Stream {
    /// Volleys in the generated file.
    pub volleys: usize,
    /// The reference output, one formatted line per volley.
    pub expected: Vec<u8>,
    /// `spacetime batch <spec> volleys.txt ...`.
    pass_args: Vec<String>,
    /// `spacetime batch <spec> empty.txt ...`.
    setup_args: Vec<String>,
}

/// One `spacetime batch` process over the whole volley file.
pub struct StreamPass {
    /// Spawn-to-reap wall time.
    pub wall_s: f64,
    /// The child's peak RSS.
    pub rss_mb: f64,
    /// Output volleys that were wrong (all of them if the process failed).
    pub failed: u64,
}

impl Stream {
    /// Reads the generated inputs and renders the reference output.
    pub fn load(env: &Env, engine: Engine) -> Result<Stream, String> {
        let volleys = check::read_volleys(&text(env, "volleys.txt")?)?;
        let expected = match engine {
            Engine::Kernel => check::expected_sorter(&volleys),
            Engine::Net => check::expected_table(&table(env, engine.spec())?, &volleys)?,
        };
        let args = |input: &str| -> Vec<String> {
            vec![
                "batch".into(),
                env.file(engine.spec()).display().to_string(),
                env.file(input).display().to_string(),
                "--engine".into(),
                engine.name().into(),
                "--threads".into(),
                THREADS.to_string(),
            ]
        };
        Ok(Stream {
            volleys: volleys.len(),
            expected,
            pass_args: args("volleys.txt"),
            setup_args: args("empty.txt"),
        })
    }

    /// Runs `spacetime batch` over the volley file once and checks every
    /// output line; a non-zero exit fails every volley.
    pub fn pass(&self, env: &Env) -> Result<StreamPass, String> {
        let args: Vec<&str> = self.pass_args.iter().map(String::as_str).collect();
        let exit = proc::run(&env.spacetime, &args, &env.log("batch"))?;
        let failed = if exit.code == 0 {
            check::mismatched_lines(&exit.stdout, &self.expected)
        } else {
            self.volleys as u64
        };
        Ok(StreamPass {
            wall_s: exit.wall_s,
            rss_mb: exit.peak_rss_mb,
            failed,
        })
    }

    /// Wall time of `spacetime batch` on an empty volley file.
    fn setup(&self, env: &Env) -> Result<f64, String> {
        let args: Vec<&str> = self.setup_args.iter().map(String::as_str).collect();
        cli_setup(env, &args)
    }
}

/// `stream-sort-kernel` and `stream-table-net`: one `spacetime batch`
/// process over the whole volley file per pass.
pub fn stream(env: &Env, engine: Engine) -> Result<Outcome, String> {
    let stream = Stream::load(env, engine)?;
    let timed = timed_passes(env, 1, || stream.setup(env), || stream.pass(env))?;

    let (warm, passes) = (timed.warm, timed.passes);
    let n = stream.volleys as f64;
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let latency_us: Vec<f64> = wall.iter().map(|w| w * 1e6).collect();
    Ok(Outcome {
        attempted: (passes.len() as u64 + 1) * stream.volleys as u64,
        failed: warm.failed + passes.iter().map(|p| p.failed).sum::<u64>(),
        passes: passes.len(),
        samples: vec![
            Sample::new(
                "throughput_vps",
                "1/s",
                Summary::Max,
                wall.iter().map(|w| n / w).collect(),
            ),
            Sample::new("wall_s", "s", Summary::Min, wall.clone()),
            Sample::new("setup_s", "s", Summary::Median, timed.setup),
            Sample::new(
                "peak_rss_mb",
                "MB",
                Summary::Median,
                passes.iter().map(|p| p.rss_mb).collect(),
            ),
            Sample::new("batch_p50_us", "us", Summary::Median, latency_us.clone()),
            Sample::new("batch_p99_us", "us", Summary::Percentile(99.0), latency_us),
        ],
        notes: vec![format!(
            "batch = one `spacetime batch` process over {} volleys",
            stream.volleys
        )],
    })
}

/// One `verify-synth` pass through the CLI.
pub struct VerifyPass {
    /// Wall time of all four calls.
    pub wall_s: f64,
    /// Wall time of the `verify` call on the original table.
    pub verify_s: f64,
    /// Volleys that call reports having checked.
    pub volleys: f64,
    /// The largest child's peak RSS.
    pub rss_mb: f64,
    /// Verdicts (of four) that were wrong.
    pub failed: u64,
}

/// Runs `lint --relational`, `opt --check`, `verify --json`, and
/// `verify --against <mutant> --json` on the generated table, checking
/// each verdict against its known answer.
pub fn verify_pass(
    env: &Env,
    original: &FunctionTable,
    mutant: &FunctionTable,
) -> Result<VerifyPass, String> {
    let spec = env.file("spec.table").display().to_string();
    let mutant_path = env.file("mutant.table").display().to_string();
    let mut failed = 0;
    let mut wall_s = 0.0;
    let mut rss_mb: f64 = 0.0;
    let mut call = |args: &[&str], log: &str| -> Result<proc::Exit, String> {
        let exit = proc::run(&env.spacetime, args, &env.log(log))?;
        wall_s += exit.wall_s;
        rss_mb = rss_mb.max(exit.peak_rss_mb);
        Ok(exit)
    };
    if call(&["lint", "--relational", &spec], "lint")?.code != 0 {
        failed += 1;
    }
    let opt = call(&["opt", &spec, "--check"], "opt")?;
    let opt_log = std::fs::read_to_string(env.log("opt")).unwrap_or_default();
    if opt.code != 0 || !opt_log.contains("; 0 rejection(s)") {
        failed += 1;
    }
    let verified = call(&["verify", &spec, "--json"], "verify")?;
    let volleys = check::proved_volleys(verified.code, &String::from_utf8_lossy(&verified.stdout));
    if volleys.is_none() {
        failed += 1;
    }
    let against = call(
        &["verify", &spec, "--against", &mutant_path, "--json"],
        "against",
    )?;
    if !check::refuted(
        against.code,
        &String::from_utf8_lossy(&against.stdout),
        original,
        mutant,
    ) {
        failed += 1;
    }
    Ok(VerifyPass {
        wall_s,
        verify_s: verified.wall_s,
        volleys: volleys.unwrap_or(0) as f64,
        rss_mb,
        failed,
    })
}

/// `verify-synth`: lint, opt, verify, and verify against a one-row
/// mutant, each as its own `spacetime` process, per pass.
pub fn verify(env: &Env) -> Result<Outcome, String> {
    let original = table(env, "spec.table")?;
    let mutant = table(env, "mutant.table")?;
    let spec = env.file("spec.table").display().to_string();
    let empty = env.file("empty.txt").display().to_string();
    let setup_args = ["batch", &spec, &empty, "--engine", "grl", "--threads", "1"];
    let timed = timed_passes(
        env,
        VERIFY_SETUPS_PER_PASS,
        || cli_setup(env, &setup_args),
        || verify_pass(env, &original, &mutant),
    )?;

    let (warm, passes) = (timed.warm, timed.passes);
    let verify_s: Vec<f64> = passes.iter().map(|p| p.verify_s).collect();
    let latency_us: Vec<f64> = verify_s.iter().map(|w| w * 1e6).collect();
    Ok(Outcome {
        attempted: (passes.len() as u64 + 1) * 4,
        failed: warm.failed + passes.iter().map(|p| p.failed).sum::<u64>(),
        passes: passes.len(),
        samples: vec![
            // `verify` checks the same volleys every pass, so this is that
            // count over the fastest `verify` call: the bounded form of
            // `verify_s`.
            Sample::new(
                "throughput_vps",
                "1/s",
                Summary::Max,
                passes.iter().map(|p| p.volleys / p.verify_s).collect(),
            ),
            Sample::new(
                "wall_s",
                "s",
                Summary::Min,
                passes.iter().map(|p| p.wall_s).collect(),
            ),
            Sample::new("setup_s", "s", Summary::Median, timed.setup),
            Sample::new(
                "peak_rss_mb",
                "MB",
                Summary::Median,
                passes.iter().map(|p| p.rss_mb).collect(),
            ),
            Sample::new("batch_p50_us", "us", Summary::Median, latency_us.clone()),
            Sample::new("batch_p99_us", "us", Summary::Percentile(99.0), latency_us),
            Sample::new("verify_s", "s", Summary::Min, verify_s),
        ],
        notes: vec![
            "batch = one `spacetime verify` process (the original table, all lowerings)".into(),
        ],
    })
}

/// The burst workload's compiled inputs.
pub struct Burst {
    /// The sorter's kernel artifact.
    pub artifact: CompiledArtifact,
    /// The volley pool, submitted [`BURST_BATCH`] at a time.
    pub volleys: Vec<Volley>,
    /// The reference output of every volley.
    pub expected: Vec<Vec<Time>>,
}

/// Parses the sorter netlist: the load step of a `burst-64` set-up.
pub fn load_sorter(sorter: &str) -> Result<Network, String> {
    parse_network(sorter).map_err(|e| format!("sorter4.net: {e}"))
}

/// Builds the sorter's kernel plan: the compile step of a `burst-64`
/// set-up.
#[must_use]
pub fn compile_sorter(network: &Network) -> CompiledArtifact {
    CompiledArtifact::from_kernel_network(network)
}

/// Loads and compiles the sorter and builds the evaluator: the cost a
/// `burst-64` caller pays before its first volley.
pub fn burst_setup(sorter: &str) -> Result<(CompiledArtifact, BatchEvaluator), String> {
    let network = load_sorter(sorter)?;
    Ok((
        compile_sorter(&network),
        BatchEvaluator::with_threads(THREADS),
    ))
}

/// Reads the burst inputs.
pub fn burst_inputs(env: &Env) -> Result<Burst, String> {
    let sorter = String::from_utf8_lossy(&text(env, "sorter4.net")?).into_owned();
    let refs: Vec<RefVolley> = check::read_volleys(&text(env, "volleys.txt")?)?;
    Ok(Burst {
        artifact: burst_setup(&sorter)?.0,
        volleys: refs
            .iter()
            .map(|v| Volley::new(v.iter().copied().map(check::to_time).collect()))
            .collect(),
        expected: refs
            .iter()
            .map(|v| check::sorted(v).into_iter().map(check::to_time).collect())
            .collect(),
    })
}

/// Failed outputs of one batch against the reference.
pub fn batch_failures(outputs: &[Volley], expected: &[Vec<Time>]) -> u64 {
    let wrong = outputs
        .iter()
        .zip(expected)
        .filter(|(o, e)| o.times() != e.as_slice())
        .count();
    (wrong + outputs.len().abs_diff(expected.len())) as u64
}

/// `burst-64`: one caller submits 64-volley batches to a two-thread
/// [`BatchEvaluator`] and waits for each before sending the next.
pub fn burst(env: &Env) -> Result<Outcome, String> {
    let sorter = String::from_utf8_lossy(&text(env, "sorter4.net")?).into_owned();
    let setup = || {
        let t0 = Instant::now();
        let built = black_box(burst_setup(black_box(&sorter))?);
        let elapsed = t0.elapsed().as_secs_f64();
        drop(built);
        Ok(elapsed)
    };
    let burst = burst_inputs(env)?;
    let evaluator = BatchEvaluator::with_threads(THREADS);
    let mut latency_us = Vec::with_capacity(BURST_LATENCY_SAMPLES);
    let mut failed = 0;
    let timed = timed_passes(env, BURST_SETUPS_PER_PASS, setup, || {
        let mut wall_s = 0.0;
        for (batch, expected) in burst
            .volleys
            .chunks(BURST_BATCH)
            .zip(burst.expected.chunks(BURST_BATCH))
        {
            let t0 = Instant::now();
            let outputs = evaluator.eval(&burst.artifact, black_box(batch));
            let elapsed = t0.elapsed().as_secs_f64();
            wall_s += elapsed;
            if latency_us.len() < BURST_LATENCY_SAMPLES {
                latency_us.push(elapsed * 1e6);
            }
            failed += match outputs {
                Ok(outputs) => batch_failures(&outputs, expected),
                Err(_) => batch.len() as u64,
            };
        }
        Ok(wall_s)
    })?;
    let passes = timed.passes;
    let batches_per_pass = burst.volleys.len().div_ceil(BURST_BATCH);
    // The warm-up pass's latencies are not samples.
    let latency_us = latency_us.split_off(batches_per_pass);
    let rss = proc::self_peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let n = burst.volleys.len() as f64;
    Ok(Outcome {
        attempted: ((passes.len() + 1) * burst.volleys.len()) as u64,
        failed,
        passes: passes.len(),
        samples: vec![
            Sample::new("throughput_vps", "1/s", Summary::Max, passes.iter().map(|w| n / w).collect()),
            Sample::new("wall_s", "s", Summary::Min, passes.clone()),
            Sample::new("setup_s", "s", Summary::Median, timed.setup),
            Sample::new("peak_rss_mb", "MB", Summary::Median, vec![rss]),
            Sample::new("batch_p50_us", "us", Summary::Median, latency_us.clone()),
            Sample::new("batch_p99_us", "us", Summary::Percentile(99.0), latency_us),
        ],
        notes: vec![format!(
            "batch = one BatchEvaluator::eval call on {BURST_BATCH} volleys, {batches_per_pass} per pass"
        )],
    })
}
