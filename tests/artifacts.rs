//! The committed `BENCH_*.json` artifacts: each one exists, parses through
//! `heteromap_obs::json`, and carries the header `write_artifact` writes.

use heteromap_bench::ARTIFACT_VERSION;
use heteromap_obs::json;

/// Every artifact a bench bin commits, with the `bench` name it records.
const ARTIFACTS: [(&str, &str); 7] = [
    ("BENCH_chaos.json", "chaos_resilience"),
    ("BENCH_dyn.json", "dynamic_adaptive"),
    ("BENCH_fleet.json", "fleet_schedule"),
    ("BENCH_obs.json", "obs_timeseries"),
    ("BENCH_obs_overhead.json", "obs_overhead"),
    ("BENCH_serve.json", "serve_throughput"),
    ("BENCH_tune.json", "tune_quality"),
];

#[test]
fn committed_artifacts_parse_and_carry_the_shared_header() {
    for (file, bench) in ARTIFACTS {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{file} must be committed: {e}"));
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{file} must parse: {e}"));
        let field = |key: &str| {
            doc.get(key)
                .unwrap_or_else(|| panic!("{file} has no {key:?}"))
        };
        assert_eq!(field("bench").as_str(), Some(bench), "{file}: bench");
        assert_eq!(
            field("version").as_f64(),
            Some(f64::from(ARTIFACT_VERSION)),
            "{file}: version"
        );
        for key in ["host_cpus", "trials"] {
            let n = field(key).as_f64().unwrap_or(0.0);
            assert!(n >= 1.0 && n.fract() == 0.0, "{file}: {key} = {n}");
        }
    }
}
