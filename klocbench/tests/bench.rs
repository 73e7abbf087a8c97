//! The benchmark measures the simulator without changing what it
//! simulates, and reports exactly the metrics `BENCHMARK.json` lists.

use kloc_policy::PolicyKind;
use kloc_sim::engine::{self, Platform, RunConfig};
use kloc_workloads::{Scale, WorkloadKind};
use klocbench::bench::{self, Options, Stop, Workload, END_TO_END};
use klocbench::replay;
use klocbench::timed::Timed;

fn tiny(workload: WorkloadKind, policy: PolicyKind) -> RunConfig {
    RunConfig {
        platform: Platform::TwoTier {
            fast_bytes: 512 << 10,
            bw_ratio: 8,
        },
        ..RunConfig::two_tier(workload, policy, Scale::tiny())
    }
}

#[test]
fn timed_wrapper_is_report_inert() {
    // Redis exercises the socket path (`early_socket_demux`), RocksDB
    // the file path; every policy forwards its own defaults.
    let policies = PolicyKind::TWO_TIER
        .into_iter()
        .chain([PolicyKind::AllSlow]);
    for policy in policies {
        for workload in [WorkloadKind::RocksDb, WorkloadKind::Redis] {
            let config = tiny(workload, policy);
            let plain = engine::run(&config).unwrap();
            let timed = engine::run_with(&config, Box::new(Timed::new(policy.build()))).unwrap();
            assert_eq!(plain, timed, "{policy} × {workload}");
        }
    }
}

#[test]
fn replay_matches_engine_on_every_workload() {
    for w in Workload::ALL {
        for config in w.configs(&Scale::tiny()) {
            let reference = engine::run(&config).unwrap();
            let (plain, timing) =
                replay::run(&config, config.policy.build().as_mut(), None).unwrap();
            assert_eq!(plain, reference, "{} {config:?}", w.name());
            assert!(timing.trace.is_none());
            assert_eq!(
                timing.segments.len() as u64,
                reference.ops / replay::SEGMENT_STEPS + 1
            );
            assert_eq!(timing.segments.iter().sum::<u64>(), timing.measured_ns);

            let mut timed = Timed::new(config.policy.build());
            let times = timed.times();
            let (traced, timing) = replay::run(&config, &mut timed, Some(&times)).unwrap();
            assert_eq!(traced, reference, "traced {} {config:?}", w.name());
            let trace = timing.trace.expect("traced run records spans");
            assert_eq!(trace.steps.len() as u64, reference.ops);
            let step_calls: u64 = trace.steps.iter().map(|&(_, calls)| calls).sum();
            assert_eq!(step_calls, trace.hooks.total_calls());
        }
    }
}

/// The `"name"` values of the array under `key` in `BENCHMARK.json`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = &rest[rest.find('"').expect("name value") + 1..];
            value[..value.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

#[test]
fn emitted_metrics_are_exactly_the_catalogued_ones() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads = names_under(&json, "workloads");
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    let e2e = names_under(&json, "end_to_end");
    let layers = names_under(&json, "per_layer");
    assert_eq!(e2e, END_TO_END.map(|(n, _)| n.to_owned()));
    assert_eq!(
        layers,
        bench::per_layer()
            .into_iter()
            .map(|(n, _)| n)
            .collect::<Vec<_>>()
    );

    for w in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                scale: Scale::tiny().with_seed(7),
                stop: Stop::Reps(1),
                trace,
            };
            let outcome = bench::measure(w, &opts).unwrap();
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted >= 1);
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
            let catalogue = if trace { &layers } else { &e2e };
            assert_eq!(&names, catalogue, "{} trace={trace}", w.name());
            for m in &outcome.metrics {
                assert!(
                    !m.name.is_empty()
                        && m.name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {}",
                    m.name
                );
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
                if !trace {
                    assert!(m.value > 0.0, "{} {} is zero", w.name(), m.name);
                }
            }
        }
    }
}
