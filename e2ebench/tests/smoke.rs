//! Smoke mode: every workload runs a few steps, every output checks out and
//! every end-to-end metric reads above zero.

use dfccl_e2ebench::run::{run, Options};
use dfccl_e2ebench::workload::Workload;

#[test]
fn every_workload_runs_correctly_in_smoke_mode() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&Options {
                workload,
                seed: 3,
                seconds: 1.0,
                trace,
                ranks: 2,
                smoke: true,
            })
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let name = workload.name();
            assert!(outcome.correct, "{name}: {:?}", outcome.problems);
            assert_eq!(outcome.failed, 0, "{name}");
            assert!(outcome.attempted > 0, "{name}");
            assert_eq!(outcome.end_to_end.len(), 8, "{name}");
            for m in &outcome.end_to_end {
                assert!(m.value > 0.0, "{name}: {} = {}", m.name, m.value);
            }
            assert_eq!(outcome.per_layer.is_empty(), !trace, "{name}");
        }
    }
}
