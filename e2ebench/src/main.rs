//! Runs one workload and prints its metrics; the last line of standard
//! output is the JSON result.

use std::sync::mpsc;
use std::time::Duration;

use dfccl_e2ebench::cli::{Args, Backend, USAGE};
use dfccl_e2ebench::report::{metrics_json, result_json};
use dfccl_e2ebench::run::{self, Options};

/// A run that has not ended by then is wedged: exit without a result.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (stop, stopped) = mpsc::channel::<()>();
    let watchdog = std::thread::Builder::new()
        .name("bench-watchdog".into())
        .spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(RUN_DEADLINE) {
                eprintln!("run exceeded {RUN_DEADLINE:?}; aborting");
                std::process::exit(3);
            }
        })
        .expect("spawn watchdog thread");

    let opts = Options {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        ranks: args.gpus,
        smoke: args.smoke,
    };
    let result = match args.backend {
        Backend::Dfccl => run::run(&opts),
        Backend::NcclLike => dfccl_e2ebench::baseline::run(&opts),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            // Skip teardown: ranks of a wedged run may never stop.
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };
    drop(stop);
    watchdog.join().expect("watchdog thread panicked");

    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    let shown = if args.trace {
        // The traced run's own end-to-end figures, for the tracing overhead.
        println!("traced end_to_end: {}", metrics_json(&outcome.end_to_end));
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in shown {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(outcome.correct, outcome.attempted, outcome.failed, shown)
    );
}
