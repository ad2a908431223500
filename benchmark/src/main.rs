//! The repository benchmark: the `spacetime batch` and `spacetime verify`
//! paths end to end on four seeded workloads, plus a separate traced run
//! that attributes time to layers.
//!
//! ```text
//! st-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! st-benchmark gen --workload <name> --seed <n> --out <dir>
//! ```
//!
//! `benchmark/run.sh` builds the CLI and this harness from source into one
//! target directory and runs it from the repository root; the CLI under
//! test is `$CARGO_TARGET_DIR/release/spacetime` (`target/release/spacetime`
//! when the variable is unset). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` (every
//! end-to-end metric untraced, every per-layer metric traced). See
//! `benchmark/README.md` for what each metric means and which layer and
//! workload it belongs to.

mod check;
mod gen;
mod layers;
mod proc;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workloads::Engine;

/// Worker threads on every threaded path (`--threads 2`).
pub const THREADS: usize = 2;

/// Where generated inputs, logs, and results go, inside the checkout.
const WORK_DIR: &str = ".bench_work";

/// Every end-to-end metric, as named in `BENCHMARK.json`, with its unit.
/// The untraced run also prints `batch_p50_us`, `batch_p99_us`, and (on
/// `verify-synth`) `verify_s`, which are not bounded: see the README.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_vps", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, as named in `BENCHMARK.json`, with its unit.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("core.parse_ns_per_volley", "ns"),
    ("core.format_ns_per_volley", "ns"),
    ("kernel.eval_packet_ns_per_volley", "ns"),
    ("kernel.packets", "count"),
    ("kernel.gates_swar_per_packet", "count"),
    ("kernel.skip_ratio", "ratio"),
    ("kernel.plan_build_s", "s"),
    ("net.eval_ns_per_volley", "ns"),
    ("net.gate_evals_per_volley", "count"),
    ("net.queue_pushes_per_volley", "count"),
    ("net.firing_ratio", "ratio"),
    ("net.load_s", "s"),
    ("net.compile_s", "s"),
    ("batch.fanout_join_us", "us"),
    ("batch.parallel_efficiency", "ratio"),
    ("grl.compile_s", "s"),
    ("grl.ns_per_run", "ns"),
    ("grl.cycles_per_run", "count"),
    ("grl.wire_steps", "count"),
    ("verify.s", "s"),
    ("verify.volleys_checked", "count"),
    ("verify.check_equiv_s", "s"),
    ("lint.s", "s"),
    ("opt.s", "s"),
    ("opt.gates_before", "count"),
    ("opt.gates_after", "count"),
    ("opt.passes_rejected", "count"),
    ("cli.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `spacetime batch sorter4.net <100k volleys> --engine kernel`.
    StreamSortKernel,
    /// `spacetime batch <120-row table> <volleys> --engine net`.
    StreamTableNet,
    /// `spacetime lint/opt/verify` on a 12-row table and a mutant.
    VerifySynth,
    /// 64-volley batches through `BatchEvaluator` in a closed loop.
    Burst64,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::StreamSortKernel,
        Workload::StreamTableNet,
        Workload::VerifySynth,
        Workload::Burst64,
    ];

    /// The workload's name in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamSortKernel => "stream-sort-kernel",
            Workload::StreamTableNet => "stream-table-net",
            Workload::VerifySynth => "verify-synth",
            Workload::Burst64 => "burst-64",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

/// One run's environment: the CLI binary, the work directory holding the
/// generated inputs, and the measuring time.
#[derive(Debug)]
pub struct Env {
    /// The `spacetime` binary under test.
    pub spacetime: PathBuf,
    /// The directory of generated inputs and logs.
    pub work: PathBuf,
    /// Seconds each run measures for.
    pub seconds: f64,
    /// This run's id, `<workload>-seed<n>-<start in ms since the epoch>`:
    /// unique per run, so runs of one seed keep their own span files.
    pub run_id: String,
}

impl Env {
    /// A generated input file.
    #[must_use]
    pub fn file(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// The standard-error log of a child run.
    #[must_use]
    pub fn log(&self, name: &str) -> PathBuf {
        self.work.join(format!("{name}.stderr"))
    }
}

/// How a metric's samples within one run become its reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Summary {
    /// The median.
    Median,
    /// The smallest sample: the fastest pass of a time.
    Min,
    /// The largest sample: the fastest pass of a rate.
    Max,
    /// A nearest-rank percentile (0–100).
    Percentile(f64),
}

/// A metric's samples within one run and how they are summarized.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The metric's name.
    pub name: &'static str,
    /// The metric's unit.
    pub unit: &'static str,
    /// Every sample this run took.
    pub values: Vec<f64>,
    /// How the reported value is taken from the samples.
    pub summary: Summary,
}

impl Sample {
    /// A metric reported as `summary` of `values`.
    #[must_use]
    pub fn new(
        name: &'static str,
        unit: &'static str,
        summary: Summary,
        values: Vec<f64>,
    ) -> Sample {
        Sample {
            name,
            unit,
            values,
            summary,
        }
    }

    /// The reported value.
    #[must_use]
    pub fn value(&self) -> f64 {
        match self.summary {
            Summary::Median => stats::median(&self.values),
            Summary::Min => self.values.iter().copied().fold(f64::INFINITY, f64::min),
            Summary::Max => self
                .values
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
            Summary::Percentile(q) => stats::percentile(&self.values, q),
        }
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Outputs, batches, or verdicts checked.
    pub attempted: u64,
    /// How many of them were wrong or failed.
    pub failed: u64,
    /// Timed passes (or traced iterations).
    pub passes: usize,
    /// One entry per reported metric.
    pub samples: Vec<Sample>,
    /// Human-readable remarks printed before the result.
    pub notes: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Writes a workload's generated inputs into `dir`, returning each file's
/// digest.
fn write_inputs(
    workload: Workload,
    seed: u64,
    dir: &Path,
) -> Result<Vec<(String, String)>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let files = gen::generate(workload, seed, Path::new("."))?;
    files
        .into_iter()
        .map(|(name, bytes)| {
            std::fs::write(dir.join(name), &bytes)
                .map_err(|e| format!("cannot write {name}: {e}"))?;
            Ok((name.to_owned(), gen::digest(&bytes)))
        })
        .collect()
}

/// The measured revision: a digest of the sources the CLI and this
/// harness are built from (the checkout a benchmark runs in need not be a
/// git repository). Build output under `benchmark/target` is skipped.
fn revision() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path != Path::new("benchmark/target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    walk(Path::new("benchmark"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend(f.display().to_string().bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    gen::digest(&bytes)
}

fn nproc() -> Option<usize> {
    let out = std::process::Command::new("nproc").output().ok()?;
    String::from_utf8_lossy(&out.stdout).trim().parse().ok()
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the context block every result carries.
fn context(args: &Args, env: &Env, outcome: &Outcome, digests: &[(String, String)]) -> String {
    let inputs: Vec<String> = digests
        .iter()
        .map(|(name, d)| format!("{}: {}", json_string(name), json_string(d)))
        .collect();
    let spread: Vec<String> = outcome
        .samples
        .iter()
        .map(|s| {
            format!(
                "{}: {{\"samples\": {}, \"summary\": {}, \"iqr_over_median\": {}}}",
                json_string(s.name),
                s.values.len(),
                json_string(&format!("{:?}", s.summary).to_lowercase()),
                stats::spread(&s.values)
            )
        })
        .collect();
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    format!(
        "{{\"context\": {{\"run\": {}, \"workload\": {}, \"seed\": {}, \"trace\": {}, \"rev\": {}, \"nproc\": {}, \
         \"available_parallelism\": {}, \"threads\": {THREADS}, \"runs\": {}, \"seconds\": {}, \
         \"error_rate\": {error_rate}, \"inputs\": {{{}}}, \"spread\": {{{}}}}}}}",
        json_string(&env.run_id),
        json_string(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        json_string(&revision()),
        nproc().map_or_else(|| "null".to_owned(), |n| n.to_string()),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        outcome.passes,
        args.seconds,
        inputs.join(", "),
        spread.join(", ")
    )
}

/// Renders the result line: exactly `correct`, `attempted`, `failed`, and
/// `metrics`, in the order of `names`.
fn result_line(outcome: &Outcome, names: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let sample = outcome
            .samples
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let value = sample.value();
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<bool, String> {
    let name = args.workload.name();
    let work = PathBuf::from(WORK_DIR).join(format!("{name}-seed{}", args.seed));
    let digests = write_inputs(args.workload, args.seed, &work)?;
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let started_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let env = Env {
        spacetime: target.join("release").join("spacetime"),
        work,
        seconds: args.seconds,
        run_id: format!("{name}-seed{}-{started_ms}", args.seed),
    };
    let (outcome, names): (Outcome, &[(&str, &str)]) = if args.trace {
        (layers::run(args.workload, &env)?, &PER_LAYER)
    } else {
        let outcome = match args.workload {
            Workload::StreamSortKernel => workloads::stream(&env, Engine::Kernel)?,
            Workload::StreamTableNet => workloads::stream(&env, Engine::Net)?,
            Workload::VerifySynth => workloads::verify(&env)?,
            Workload::Burst64 => workloads::burst(&env)?,
        };
        (outcome, &END_TO_END)
    };

    for note in &outcome.notes {
        println!("# {note}");
    }
    for s in &outcome.samples {
        println!(
            "# {name} {} = {} {} ({:?} of n={}, iqr/median={:.4})",
            s.name,
            s.value(),
            s.unit,
            s.summary,
            s.values.len(),
            stats::spread(&s.values)
        );
    }
    println!(
        "# {name} error_rate = {} ({} of {} failed)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let context = context(args, &env, &outcome, &digests);
    let result = result_line(&outcome, names)?;
    let results = PathBuf::from(WORK_DIR).join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("cannot create results dir: {e}"))?;
    let file = results.join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&file, format!("{context}\n{result}\n"))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("{context}");
    println!("{result}");
    Ok(outcome.failed == 0)
}

fn gen_command(args: &[String]) -> Result<(), String> {
    let (mut workload, mut seed, mut out) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let (workload, seed, out) = (
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        out.ok_or("--out is required")?,
    );
    for (name, digest) in write_inputs(workload, seed, &out)? {
        println!("{digest}  {name}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("gen") {
        gen_command(&argv[1..]).map(|()| true)
    } else {
        parse_args(&argv).and_then(|args| run(&args))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("st-benchmark: outputs did not match the reference");
            ExitCode::from(1)
        }
        Err(msg) => {
            eprintln!("st-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for w in Workload::ALL {
            let a = gen::generate(w, 7, &root).unwrap();
            let b = gen::generate(w, 7, &root).unwrap();
            let c = gen::generate(w, 8, &root).unwrap();
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}: another seed must change the inputs", w.name());
        }
    }

    /// `(section, name, unit)` for every named entry of `BENCHMARK.json`,
    /// which keeps one entry per line.
    fn declared() -> Vec<(String, String, Option<String>)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let field = |line: &str, key: &str| {
            let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(line[at..at + line[at..].find('"')?].to_owned())
        };
        let mut section = String::new();
        let mut out = Vec::new();
        for line in text.lines() {
            for key in ["workloads", "end_to_end", "per_layer"] {
                if line.trim_start().starts_with(&format!("\"{key}\"")) {
                    section = key.to_owned();
                }
            }
            if let Some(name) = field(line, "name") {
                out.push((section.clone(), name, field(line, "unit")));
            }
        }
        out
    }

    #[test]
    fn every_printed_name_matches_benchmark_json() {
        let declared = declared();
        let of = |section: &str| -> Vec<(String, Option<String>)> {
            declared
                .iter()
                .filter(|(s, _, _)| s == section)
                .map(|(_, n, u)| (n.clone(), u.clone()))
                .collect()
        };
        let workloads: Vec<(String, Option<String>)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_owned(), None))
            .collect();
        assert_eq!(of("workloads"), workloads);
        let metrics = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), Some((*u).to_owned())))
                .collect()
        };
        assert_eq!(of("end_to_end"), metrics(&END_TO_END));
        assert_eq!(of("per_layer"), metrics(&PER_LAYER));
    }
}
