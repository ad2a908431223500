//! Proves the criterion stand-in's `CRITERION_JSON` summary
//! (`spacetime-criterion/1`) shares its scenario shape with the
//! `spacetime bench` report (`spacetime-bench/1`): swapping only the
//! schema id must yield a report the strict bench parser accepts.

use st_metrics::{BenchReport, SCHEMA};

#[test]
fn criterion_json_is_schema_compatible_with_bench_reports() {
    let path =
        std::env::temp_dir().join(format!("st-metrics-criterion-{}.json", std::process::id()));
    std::env::set_var("BENCH_QUICK", "1");
    std::env::set_var(criterion::JSON_ENV, &path);
    let mut c = criterion::Criterion::default();
    let mut group = c.benchmark_group("compat");
    group.throughput(criterion::Throughput::Elements(4));
    // A multiply chain over a black-boxed bound: work the optimizer can
    // neither fold to a constant nor shortcut, so an iteration takes well
    // over the 1 ns the summary resolves and the throughput stays finite.
    group.bench_function(criterion::BenchmarkId::new("sum", 4), |b| {
        b.iter(|| {
            (0..criterion::black_box(1024u64))
                .fold(0u64, |h, i| (h ^ i).wrapping_mul(0x0100_0000_01b3))
        });
    });
    group.finish();
    criterion::flush_json();
    std::env::remove_var(criterion::JSON_ENV);

    let text = std::fs::read_to_string(&path).expect("summary written");
    std::fs::remove_file(&path).ok();
    assert!(
        text.contains(&format!("\"schema\": \"{}\"", criterion::JSON_SCHEMA)),
        "{text}"
    );

    let as_bench = text.replace(criterion::JSON_SCHEMA, SCHEMA);
    let report =
        BenchReport::from_json(&as_bench).expect("criterion scenario shape must parse as bench");
    assert_eq!(report.scenarios.len(), 1);
    let s = &report.scenarios[0];
    assert_eq!(s.name, "sum/4");
    assert_eq!(s.engine, "criterion");
    assert_eq!(s.volleys_per_iter, 4);
    assert!(s.wall_nanos.min <= s.wall_nanos.p50);
    assert!(s.wall_nanos.p50 <= s.wall_nanos.max);
    assert!(s.throughput_volleys_per_sec > 0.0);
    assert!(s.counters.is_empty() && s.histograms.is_empty());
}
