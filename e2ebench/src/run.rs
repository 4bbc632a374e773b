//! The DFCCL driver: set-up, the timed closed loop, output checks and the
//! end-to-end and per-layer metrics of one run.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfccl::{
    Callback, CapturedGraph, CompletionHandle, DfcclConfig, DfcclDomain, DfcclError, RankCtx,
};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::{GpuId, GpuSpec};

use crate::layers::{peak_rss_mib, Counters, Group, ThreadLedger};
use crate::report::{quantile, Histogram, Metric};
use crate::workload::{Op, Workload, WorkloadData};

/// Longest a step may take before the run is declared wedged.
pub(crate) const STEP_TIMEOUT: Duration = Duration::from_secs(60);

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ranks: usize,
    /// A few steps of every phase instead of a timed run.
    pub smoke: bool,
}

/// How a run divides its time. The timed phase is split over several
/// sessions, each with its own freshly set-up domain and threads, and their
/// samples are pooled: on two cores how the five threads happen to share the
/// CPUs is set when a session starts and can hold for seconds, so one long
/// session measures one draw of it, and several shorter ones average over
/// several.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Sessions whose timed phases are pooled.
    pub sessions: u64,
    /// Extra set-ups timed for `setup_s` only.
    pub extra_setups: usize,
    /// Each session warms up for this many steps and this long.
    pub warmup_steps: u64,
    pub warmup: Duration,
    /// Steps per rate window.
    pub window_steps: u64,
    /// Each session's timed phase runs whole windows until both bounds are
    /// met.
    pub min_steps: u64,
    pub measure: Duration,
}

impl Phases {
    pub fn for_options(opts: &Options) -> Phases {
        if opts.smoke {
            return Phases {
                sessions: 2,
                extra_setups: 0,
                warmup_steps: 2,
                warmup: Duration::ZERO,
                window_steps: 4,
                min_steps: 8,
                measure: Duration::ZERO,
            };
        }
        let sessions = 10;
        Phases {
            sessions,
            extra_setups: 25,
            warmup_steps: 3,
            warmup: Duration::from_millis(300),
            window_steps: 5,
            // At least ten step samples beyond the p90 over all sessions.
            min_steps: 100 / sessions,
            measure: Duration::from_secs_f64(opts.seconds / sessions as f64),
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Empty unless traced.
    pub per_layer: Vec<Metric>,
    /// Checks that did not hold.
    pub problems: Vec<String>,
}

/// A set-up domain with its ranks and, for replay workloads, each rank's
/// captured graph.
pub struct Session {
    pub domain: Arc<DfcclDomain>,
    pub ranks: Vec<RankCtx>,
    pub graphs: Vec<Arc<CapturedGraph>>,
}

impl Session {
    fn tear_down(self) {
        for rank in &self.ranks {
            rank.destroy();
        }
    }
}

/// Timings taken inside set-up.
#[derive(Default)]
struct SetupProbe {
    register_ns: Vec<f64>,
    capture_ns: Vec<f64>,
}

/// Two GPUs on a flat topology with zero-cost links under the shipped
/// configuration; registers every shape cold and captures replay graphs.
fn set_up(data: &WorkloadData, probe: &mut SetupProbe) -> Result<Session, DfcclError> {
    let domain = DfcclDomain::new(
        Topology::flat(data.ranks),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        DfcclConfig::default(),
    );
    let ranks = (0..data.ranks)
        .map(|g| domain.init_rank(GpuId(g)))
        .collect::<Result<Vec<_>, _>>()?;
    for op in &data.ops {
        for rank in &ranks {
            let t = Instant::now();
            rank.register(op.id, op.desc.clone())?;
            probe.register_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    let mut graphs = Vec::new();
    if data.workload.replays() {
        let t = Instant::now();
        for (r, rank) in ranks.iter().enumerate() {
            let mut recorder = rank.begin_capture()?;
            for op in &data.ops {
                recorder.record(op.id, op.recorded_send[r].clone(), op.recv[r].clone())?;
            }
            graphs.push(recorder.finish()?);
        }
        probe.capture_ns.push(t.elapsed().as_nanos() as f64);
    }
    Ok(Session {
        domain,
        ranks,
        graphs,
    })
}

/// Completion times written by callbacks on the poller threads, one slot
/// per operation of a step. Only the step's last callback signals the
/// completion handle, so the waiting driver wakes once per step rather than
/// once per operation and does not compete with the library's threads for
/// the CPUs in between.
struct Slots {
    base: Instant,
    done_ns: Vec<AtomicU64>,
    fires: Vec<AtomicU32>,
    pending: AtomicUsize,
    handle: CompletionHandle,
}

impl Slots {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// Samples and counts of one phase.
#[derive(Default)]
pub(crate) struct Log {
    pub(crate) steps: u64,
    pub(crate) ops: u64,
    pub(crate) failed: u64,
    pub(crate) last_step_ns: f64,
    pub(crate) step_ns: Histogram,
    pub(crate) op_ns: Histogram,
    /// Steps per second of step time, one per window.
    pub(crate) window_rates: Vec<f64>,
    // Traced runs only.
    pub(crate) run_call_ns: Histogram,
    pub(crate) replay_call_ns: Histogram,
    pub(crate) submit_ns: f64,
    pub(crate) wait_ns: f64,
    pub(crate) sq_full_retries: u64,
}

impl Log {
    /// All sessions' samples and counts in one log.
    pub(crate) fn pooled(logs: &[Log]) -> Log {
        let mut all = Log::default();
        for l in logs {
            all.steps += l.steps;
            all.ops += l.ops;
            all.failed += l.failed;
            all.step_ns.merge(&l.step_ns);
            all.op_ns.merge(&l.op_ns);
            all.window_rates.extend(&l.window_rates);
            all.run_call_ns.merge(&l.run_call_ns);
            all.replay_call_ns.merge(&l.replay_call_ns);
            all.submit_ns += l.submit_ns;
            all.wait_ns += l.wait_ns;
            all.sq_full_retries += l.sq_full_retries;
        }
        all
    }

    /// Count a finished step of `ops` operations that ran from `first` to
    /// `last` (nanoseconds).
    pub(crate) fn end_step(&mut self, first: u64, last: u64, ops: usize) {
        self.steps += 1;
        self.ops += ops as u64;
        self.last_step_ns = (last - first) as f64;
        self.step_ns.record(self.last_step_ns);
    }
}

/// Whether rank `r`'s recv buffer of `op` holds the reference output of
/// step variant `v`.
pub(crate) fn output_ok(op: &Op, r: usize, v: usize) -> bool {
    op.recv[r].with_read(|got| got == op.expected[v][r].as_slice())
}

/// Drives the closed loop from one thread: each step submits every rank's
/// share, then waits for all of it.
struct Driver<'a> {
    data: &'a WorkloadData,
    session: &'a Session,
    trace: bool,
    slots: Arc<Slots>,
    start_ns: Vec<u64>,
    /// Steps whose completion the handle has signalled.
    completions: u64,
    /// Collectives submitted per rank.
    submitted: Vec<u64>,
    /// Steps on which some ranks' orders differ.
    orders_differ: u64,
}

impl<'a> Driver<'a> {
    fn new(data: &'a WorkloadData, session: &'a Session, trace: bool) -> Self {
        let n = data.ranks * data.ops.len();
        Driver {
            data,
            session,
            trace,
            slots: Arc::new(Slots {
                base: Instant::now(),
                done_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
                fires: (0..n).map(|_| AtomicU32::new(0)).collect(),
                pending: AtomicUsize::new(0),
                handle: CompletionHandle::new(),
            }),
            start_ns: vec![0; n],
            completions: 0,
            submitted: vec![0; data.ranks],
            orders_differ: 0,
        }
    }

    fn callback(&self, slot: usize) -> Callback {
        let slots = Arc::clone(&self.slots);
        Box::new(move || {
            slots.done_ns[slot].store(slots.now(), Ordering::Relaxed);
            slots.fires[slot].fetch_add(1, Ordering::Relaxed);
            // AcqRel: the last callback sees every other slot's stores and
            // hands them to the driver through the handle's lock.
            if slots.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                (slots.handle.completion_callback())();
            }
        })
    }

    /// Submit with retries while the submission queue is full.
    fn submit(
        &mut self,
        slot: usize,
        log: &mut Log,
        call: impl Fn(Callback) -> Result<(), DfcclError>,
    ) -> Result<(), String> {
        loop {
            let t = self.slots.now();
            self.start_ns[slot] = t;
            match call(self.callback(slot)) {
                Ok(()) => {
                    if self.trace {
                        let ns = (self.slots.now() - t) as f64;
                        if self.data.workload.replays() {
                            log.replay_call_ns.record(ns);
                        } else {
                            log.run_call_ns.record(ns);
                        }
                    }
                    return Ok(());
                }
                Err(DfcclError::SubmissionQueueFull) => {
                    log.sq_full_retries += 1;
                    std::thread::yield_now();
                }
                Err(e) => return Err(format!("submission of slot {slot} failed: {e}")),
            }
        }
    }

    fn step(&mut self, step: u64, log: &mut Log) -> Result<(), String> {
        let (data, session) = (self.data, self.session);
        let n = data.ops.len();
        let v = (step % 2) as usize;
        let slots_used = if data.workload.replays() {
            data.ranks
        } else {
            data.ranks * n
        };
        self.slots.pending.store(slots_used, Ordering::Release);
        let first;
        if data.workload.replays() {
            // Fresh inputs into the recorded send buffers, before the clock.
            for op in &data.ops {
                for r in 0..data.ranks {
                    op.send[v][r].with_read(|src| op.recorded_send[r].write_range(0, src));
                }
            }
            first = self.slots.now();
            for r in 0..data.ranks {
                let (rank, graph) = (&session.ranks[r], &session.graphs[r]);
                self.submit(r, log, |cb| rank.replay(graph, cb))?;
                self.submitted[r] += graph.len() as u64;
            }
        } else {
            let orders = data.workload.orders(data.seed, step, data.ranks, n);
            if orders.windows(2).any(|w| w[0] != w[1]) {
                self.orders_differ += 1;
            }
            first = self.slots.now();
            for k in 0..n {
                for (r, order) in orders.iter().enumerate() {
                    let op = &data.ops[order[k]];
                    let rank = &session.ranks[r];
                    let (send, recv) = (&op.send[v][r], &op.recv[r]);
                    self.submit(r * n + order[k], log, |cb| {
                        rank.run(op.id, send.clone(), recv.clone(), cb)
                    })?;
                }
            }
            for s in &mut self.submitted {
                *s += n as u64;
            }
        }
        let submitted = self.slots.now();
        self.completions += 1;
        if !self
            .slots
            .handle
            .wait_for_timeout(self.completions, STEP_TIMEOUT)
        {
            return Err(self.wedged(step));
        }
        let woke = self.slots.now();

        let mut last = first;
        for slot in 0..slots_used {
            let done = self.slots.done_ns[slot].load(Ordering::Relaxed);
            last = last.max(done);
            log.op_ns
                .record(done.saturating_sub(self.start_ns[slot]) as f64);
            // A replay's slot is its rank and covers every collective of the
            // graph; a run's slot is one collective on one rank.
            let fired_once = self.slots.fires[slot].swap(0, Ordering::Relaxed) == 1;
            let outputs_ok = if data.workload.replays() {
                data.ops.iter().all(|op| output_ok(op, slot, v))
            } else {
                output_ok(&data.ops[slot % n], slot / n, v)
            };
            if !(fired_once && outputs_ok) {
                log.failed += 1;
            }
        }
        log.end_step(first, last, slots_used);
        log.submit_ns += (submitted - first) as f64;
        log.wait_ns += (woke - submitted) as f64;
        Ok(())
    }

    fn wedged(&self, step: u64) -> String {
        let pending: Vec<usize> = (0..self.slots.fires.len())
            .filter(|&s| self.slots.fires[s].load(Ordering::Relaxed) == 0)
            .collect();
        let ranks: Vec<String> = self
            .session
            .ranks
            .iter()
            .map(|r| {
                let s = r.stats();
                format!(
                    "{}: outstanding {} completed {} preemptions {} errors {:?}",
                    r.gpu(),
                    r.outstanding(),
                    s.collectives_completed,
                    s.preemptions,
                    r.collective_errors()
                )
            })
            .collect();
        format!(
            "step {step} did not complete within {STEP_TIMEOUT:?}; slots without a callback: {pending:?}; {}",
            ranks.join("; ")
        )
    }
}

/// Run steps into `log` until `min_steps` and `duration` are both reached,
/// in whole windows, numbering them from `first_step`. `on_window` runs
/// after each window. Returns the number of steps run.
pub(crate) fn run_phase(
    step: &mut dyn FnMut(u64, &mut Log) -> Result<(), String>,
    log: &mut Log,
    first_step: u64,
    phases: &Phases,
    min_steps: u64,
    duration: Duration,
    mut on_window: impl FnMut(),
) -> Result<u64, String> {
    let start = Instant::now();
    let mut window_ns = 0.0;
    let mut steps = 0;
    loop {
        step(first_step + steps, log)?;
        steps += 1;
        window_ns += log.last_step_ns;
        if steps % phases.window_steps == 0 {
            log.window_rates
                .push(phases.window_steps as f64 * 1e9 / window_ns);
            window_ns = 0.0;
            on_window();
            if steps >= min_steps && start.elapsed() >= duration {
                return Ok(steps);
            }
        }
    }
}

/// Per-layer inputs accumulated over the sessions of a traced run.
#[derive(Default)]
struct Traced {
    counters: Counters,
    threads: [(u64, u64); 3],
    cache: Option<dfccl::PlanCacheStats>,
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let phases = Phases::for_options(opts);
    let data = WorkloadData::generate(opts.workload, opts.seed, opts.ranks);
    let setup_err = |e: DfcclError| format!("set-up failed: {e}");

    let mut probe = SetupProbe::default();
    let mut setup_s = Vec::new();
    for _ in 0..phases.extra_setups {
        let t = Instant::now();
        let session = set_up(&data, &mut probe).map_err(setup_err)?;
        setup_s.push(t.elapsed().as_secs_f64());
        session.tear_down();
    }

    let mut warm = Log::default();
    let mut sessions = Vec::new();
    let mut traced = Traced::default();
    let mut problems = Vec::new();
    let mut next_step = 0;
    for _ in 0..phases.sessions {
        let t = Instant::now();
        let session = set_up(&data, &mut probe).map_err(setup_err)?;
        setup_s.push(t.elapsed().as_secs_f64());
        traced.cache = Some(session.domain.cache_stats());

        let mut timed = Log::default();
        let mut driver = Driver::new(&data, &session, opts.trace);
        let mut step = |i, log: &mut Log| driver.step(i, log);
        let warm_steps = run_phase(
            &mut step,
            &mut warm,
            next_step,
            &phases,
            phases.warmup_steps,
            phases.warmup,
            || {},
        )?;
        let before = Counters::read(&session.domain, &session.ranks);
        let mut threads = opts.trace.then(ThreadLedger::start);
        let timed_steps = run_phase(
            &mut step,
            &mut timed,
            next_step + warm_steps,
            &phases,
            phases.min_steps,
            phases.measure,
            || {
                if let Some(t) = threads.as_mut() {
                    t.sample();
                }
            },
        )?;
        next_step += warm_steps + timed_steps;
        let after = Counters::read(&session.domain, &session.ranks);
        traced.counters = traced.counters.plus(&after.since(&before));
        if let Some(t) = &threads {
            for (acc, add) in traced.threads.iter_mut().zip(t.totals) {
                acc.0 += add.0;
                acc.1 += add.1;
            }
        }
        check_session(&session, &driver, warm_steps + timed_steps, &mut problems);
        sessions.push(timed);
    }
    let mut timed = Log::pooled(&sessions);

    let end_to_end = end_to_end_metrics(&data, &sessions, &mut setup_s, peak_rss_mib());
    let per_layer = if opts.trace {
        per_layer_metrics(&mut timed, &mut probe, &traced)
    } else {
        Vec::new()
    };
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: warm.ops + timed.ops,
        failed: warm.failed + timed.failed,
        end_to_end,
        per_layer,
        problems,
    })
}

/// Stop the session's ranks and check what must hold on every run. The
/// checks wait for the ranks to stop: the daemon publishes a batch of CQEs
/// before it counts them, so a counter read as soon as the last callback
/// fires can lag by up to one batch.
fn check_session(session: &Session, driver: &Driver, steps: u64, problems: &mut Vec<String>) {
    for rank in &session.ranks {
        rank.destroy();
    }
    let mut preemptions = 0;
    for (r, rank) in session.ranks.iter().enumerate() {
        let stats = rank.stats();
        preemptions += stats.preemptions;
        if stats.collectives_completed != driver.submitted[r] {
            problems.push(format!(
                "{}: {} collectives completed, {} submitted",
                rank.gpu(),
                stats.collectives_completed,
                driver.submitted[r]
            ));
        }
        let errors = rank.collective_errors();
        if !errors.is_empty() {
            problems.push(format!("{}: collective errors {errors:?}", rank.gpu()));
        }
    }
    if driver.data.workload == Workload::TinyDisorder {
        if driver.orders_differ * 2 <= steps {
            problems.push(format!(
                "rank orders differed on only {} of {steps} steps",
                driver.orders_differ
            ));
        }
        if preemptions == 0 {
            problems.push("disordered steps caused no preemption".into());
        }
    }
}

/// The end-to-end metrics: each timing is computed per session and the
/// median over sessions is reported.
pub(crate) fn end_to_end_metrics(
    data: &WorkloadData,
    sessions: &[Log],
    setup_s: &mut [f64],
    peak_rss: f64,
) -> Vec<Metric> {
    let across = |f: &dyn Fn(&Log) -> f64| {
        let mut per_session: Vec<f64> = sessions.iter().map(f).collect();
        quantile(&mut per_session, 0.5)
    };
    let steps_per_s = across(&|l| quantile(&mut l.window_rates.clone(), 0.5));
    vec![
        Metric::new("setup_s", quantile(setup_s, 0.5), "s"),
        Metric::new(
            "colls_per_s",
            steps_per_s * data.colls_per_step() as f64,
            "1/s",
        ),
        Metric::new(
            "algbw_gbps",
            steps_per_s * data.bytes_per_step() as f64 / 1e9,
            "GB/s",
        ),
        Metric::new(
            "step_ms_p50",
            across(&|l| l.step_ns.quantile(0.5)) / 1e6,
            "ms",
        ),
        Metric::new(
            "step_ms_p90",
            across(&|l| l.step_ns.quantile(0.9)) / 1e6,
            "ms",
        ),
        Metric::new("op_us_p50", across(&|l| l.op_ns.quantile(0.5)) / 1e3, "us"),
        Metric::new("op_us_p90", across(&|l| l.op_ns.quantile(0.9)) / 1e3, "us"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
    ]
}

fn per_layer_metrics(log: &mut Log, probe: &mut SetupProbe, traced: &Traced) -> Vec<Metric> {
    let c = &traced.counters;
    let cache = traced.cache.expect("at least one session");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let steps = log.steps as f64;
    let ops = log.ops as f64;
    let colls = c.collectives as f64;
    let per_step_ms = |ns: u64| ratio(ns as f64 / 1e6, steps);
    let [daemon, poller, driver] =
        [Group::Daemon, Group::Poller, Group::Driver].map(|g| traced.threads[g as usize]);
    vec![
        Metric::new("api.run_us_p50", log.run_call_ns.quantile(0.5) / 1e3, "us"),
        Metric::new("api.run_us_p99", log.run_call_ns.quantile(0.99) / 1e3, "us"),
        Metric::new(
            "api.replay_us_p50",
            log.replay_call_ns.quantile(0.5) / 1e3,
            "us",
        ),
        Metric::new(
            "api.register_us_p50",
            quantile(&mut probe.register_ns, 0.5) / 1e3,
            "us",
        ),
        Metric::new(
            "api.sq_full_retries_per_op",
            ratio(log.sq_full_retries as f64, ops),
            "count/op",
        ),
        Metric::new("plan.cache_misses", cache.misses as f64, "count"),
        Metric::new("plan.cache_hits", cache.hits as f64, "count"),
        Metric::new(
            "graph.capture_ms",
            quantile(&mut probe.capture_ns, 0.5) / 1e6,
            "ms",
        ),
        Metric::new("daemon.sqes_per_op", ratio(c.sqes as f64, ops), "count/op"),
        Metric::new(
            "daemon.sqe_read_ns",
            ratio(c.sqe_read_ns, c.sqes as f64),
            "ns",
        ),
        Metric::new(
            "daemon.starts_per_step",
            ratio(c.daemon_starts as f64, steps),
            "count/step",
        ),
        Metric::new(
            "daemon.quits_per_step",
            ratio(c.voluntary_quits as f64, steps),
            "count/step",
        ),
        Metric::new(
            "sched.preemptions_per_coll",
            ratio(c.preemptions as f64, colls),
            "count/coll",
        ),
        Metric::new(
            "sched.context_saves_per_coll",
            ratio(c.context_saves as f64, colls),
            "count/coll",
        ),
        Metric::new(
            "sched.context_loads_per_coll",
            ratio(c.context_loads as f64, colls),
            "count/coll",
        ),
        Metric::new(
            "sched.lazy_save_skips_per_coll",
            ratio(c.lazy_save_skips as f64, colls),
            "count/coll",
        ),
        Metric::new("sched.max_queue_len", c.max_queue_len as f64, "count"),
        Metric::new(
            "exec.primitives_per_coll",
            ratio(c.primitives as f64, colls),
            "count/coll",
        ),
        Metric::new(
            "exec.primitive_ns",
            ratio(c.primitive_ns, c.primitives as f64),
            "ns",
        ),
        Metric::new(
            "transport.chunks_per_coll",
            ratio(c.chunks_sent as f64, colls),
            "count/coll",
        ),
        Metric::new(
            "transport.bytes_per_coll",
            ratio(c.bytes_sent as f64, colls),
            "B/coll",
        ),
        Metric::new("cq.cqes_per_op", ratio(c.cqes as f64, ops), "count/op"),
        Metric::new(
            "cq.cqe_write_ns",
            ratio(c.cqe_write_ns, c.cqes as f64),
            "ns",
        ),
        Metric::new(
            "driver.submit_ms_per_step",
            ratio(log.submit_ns / 1e6, steps),
            "ms/step",
        ),
        Metric::new(
            "driver.wait_ms_per_step",
            ratio(log.wait_ns / 1e6, steps),
            "ms/step",
        ),
        Metric::new(
            "threads.daemon_cpu_ms_per_step",
            per_step_ms(daemon.0),
            "ms/step",
        ),
        Metric::new(
            "threads.daemon_runq_ms_per_step",
            per_step_ms(daemon.1),
            "ms/step",
        ),
        Metric::new(
            "threads.poller_cpu_ms_per_step",
            per_step_ms(poller.0),
            "ms/step",
        ),
        Metric::new(
            "threads.poller_runq_ms_per_step",
            per_step_ms(poller.1),
            "ms/step",
        ),
        Metric::new(
            "threads.driver_cpu_ms_per_step",
            per_step_ms(driver.0),
            "ms/step",
        ),
        Metric::new(
            "threads.driver_runq_ms_per_step",
            per_step_ms(driver.1),
            "ms/step",
        ),
    ]
}
