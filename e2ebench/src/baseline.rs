//! The NCCL-like baseline arm, for the README's reference figures only.
//!
//! Same topology, links, chunk size, shapes and inputs as the DFCCL runs;
//! each collective is one blocking kernel launched on the rank's stream in
//! the step's order, and the driver waits on the kernels in launch order.
//! A collective's latency therefore runs from its launch to the moment the
//! driver sees it complete, which can only overstate it.

use std::time::Instant;

use dfccl::DfcclConfig;
use dfccl_baseline::{NcclDomain, NcclRank};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::{GpuId, GpuSpec, KernelStatus, StreamId};

use crate::layers::peak_rss_mib;
use crate::run::{
    end_to_end_metrics, output_ok, run_phase, Log, Options, Outcome, Phases, STEP_TIMEOUT,
};
use crate::workload::WorkloadData;

fn set_up(data: &WorkloadData) -> Result<(std::sync::Arc<NcclDomain>, Vec<NcclRank>), String> {
    let domain = NcclDomain::new(
        Topology::flat(data.ranks),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        DfcclConfig::default().chunk_elems,
    );
    let ranks = (0..data.ranks)
        .map(|g| domain.init_rank(GpuId(g)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{e:?}"))?;
    for op in &data.ops {
        for rank in &ranks {
            rank.register(op.id, op.desc.clone())
                .map_err(|e| format!("{e:?}"))?;
        }
    }
    Ok((domain, ranks))
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    if opts.workload.replays() {
        return Err("the NCCL-like baseline has no graph capture or replay".into());
    }
    let phases = Phases::for_options(opts);
    let data = WorkloadData::generate(opts.workload, opts.seed, opts.ranks);
    let n = data.ops.len();
    let base = Instant::now();
    let now = || base.elapsed().as_nanos() as u64;
    let mut setup_s = Vec::new();
    let mut warm = Log::default();
    let mut sessions = Vec::new();
    let mut next_step = 0;
    for _ in 0..phases.sessions {
        let t = Instant::now();
        let (domain, ranks) = set_up(&data)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let mut step = |step: u64, log: &mut Log| -> Result<(), String> {
            let v = (step % 2) as usize;
            let orders = data.workload.orders(data.seed, step, data.ranks, n);
            let first = now();
            let mut launched = Vec::with_capacity(data.ranks * n);
            for k in 0..n {
                for (r, order) in orders.iter().enumerate() {
                    let op = &data.ops[order[k]];
                    let start = now();
                    let kernel = ranks[r]
                        .launch_collective(
                            op.id,
                            StreamId(1),
                            op.send[v][r].clone(),
                            op.recv[r].clone(),
                        )
                        .map_err(|e| format!("launch failed: {e:?}"))?;
                    launched.push(((r, order[k]), start, kernel));
                }
            }
            let mut last = first;
            for (slot, start, kernel) in launched {
                let status = kernel.wait_timeout(STEP_TIMEOUT);
                if status != KernelStatus::Completed {
                    return Err(format!(
                        "step {step}: kernel {} ended {status:?} within {STEP_TIMEOUT:?}",
                        kernel.name()
                    ));
                }
                last = now();
                log.op_ns.record((last - start) as f64);
                let (r, i) = slot;
                if !output_ok(&data.ops[i], r, v) {
                    log.failed += 1;
                }
            }
            log.end_step(first, last, data.ranks * n);
            Ok(())
        };
        let w = run_phase(
            &mut step,
            &mut warm,
            next_step,
            &phases,
            phases.warmup_steps,
            phases.warmup,
            || {},
        )?;
        let mut timed = Log::default();
        let t = run_phase(
            &mut step,
            &mut timed,
            next_step + w,
            &phases,
            phases.min_steps,
            phases.measure,
            || {},
        )?;
        next_step += w + t;
        domain.shutdown();
        sessions.push(timed);
    }
    let timed = Log::pooled(&sessions);
    Ok(Outcome {
        correct: true,
        attempted: warm.ops + timed.ops,
        failed: warm.failed + timed.failed,
        end_to_end: end_to_end_metrics(&data, &sessions, &mut setup_s, peak_rss_mib()),
        per_layer: Vec::new(),
        problems: Vec::new(),
    })
}
