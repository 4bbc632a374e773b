//! Per-layer probes for the traced run: counters read from the library's
//! public introspection calls (`stats()`, `cache_stats()`, `edge_samples()`)
//! and per-thread CPU and run-queue time from `/proc/self/task/*/schedstat`.

use std::collections::HashMap;
use std::time::Duration;

use dfccl::{DfcclDomain, RankCtx};

/// Library counters summed over ranks. Time totals are rebuilt from the
/// published means and their sample counts, so they can be differenced
/// across the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub sqes: u64,
    pub sqe_read_ns: f64,
    pub cqes: u64,
    pub cqe_write_ns: f64,
    pub daemon_starts: u64,
    pub voluntary_quits: u64,
    pub preemptions: u64,
    pub context_saves: u64,
    pub context_loads: u64,
    pub lazy_save_skips: u64,
    pub collectives: u64,
    pub primitives: u64,
    pub primitive_ns: f64,
    pub chunks_sent: u64,
    pub bytes_sent: u64,
    /// Task-queue high-water mark, the largest over ranks. Not differenced:
    /// the library keeps only the maximum.
    pub max_queue_len: u64,
}

fn total_ns(mean: Option<Duration>, samples: u64) -> f64 {
    mean.map_or(0.0, |m| m.as_nanos() as f64 * samples as f64)
}

impl Counters {
    pub fn read(domain: &DfcclDomain, ranks: &[RankCtx]) -> Self {
        let mut c = Counters::default();
        for rank in ranks {
            let s = rank.stats();
            c.sqes += s.sqes_fetched;
            c.sqe_read_ns += total_ns(s.mean_sqe_read, s.sqes_fetched);
            c.cqes += s.cqes_written;
            c.cqe_write_ns += total_ns(s.mean_cqe_write, s.cqes_written);
            c.daemon_starts += s.daemon_starts;
            c.voluntary_quits += s.voluntary_quits;
            c.preemptions += s.preemptions;
            c.context_saves += s.context_saves;
            c.context_loads += s.context_loads;
            c.lazy_save_skips += s.lazy_save_skips;
            c.collectives += s.collectives_completed;
            c.primitives += s.primitives_executed;
            c.primitive_ns += total_ns(s.mean_primitive_exec, s.primitives_executed);
            c.max_queue_len = c.max_queue_len.max(s.max_queue_len);
        }
        for e in domain.edge_samples() {
            c.chunks_sent += e.stats.chunks_sent;
            c.bytes_sent += e.stats.bytes_sent;
        }
        c
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            sqes: self.sqes - earlier.sqes,
            sqe_read_ns: self.sqe_read_ns - earlier.sqe_read_ns,
            cqes: self.cqes - earlier.cqes,
            cqe_write_ns: self.cqe_write_ns - earlier.cqe_write_ns,
            daemon_starts: self.daemon_starts - earlier.daemon_starts,
            voluntary_quits: self.voluntary_quits - earlier.voluntary_quits,
            preemptions: self.preemptions - earlier.preemptions,
            context_saves: self.context_saves - earlier.context_saves,
            context_loads: self.context_loads - earlier.context_loads,
            lazy_save_skips: self.lazy_save_skips - earlier.lazy_save_skips,
            collectives: self.collectives - earlier.collectives,
            primitives: self.primitives - earlier.primitives,
            primitive_ns: self.primitive_ns - earlier.primitive_ns,
            chunks_sent: self.chunks_sent - earlier.chunks_sent,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            max_queue_len: self.max_queue_len,
        }
    }

    /// `self + other`, field by field; the high-water mark takes the larger.
    pub fn plus(&self, other: &Counters) -> Counters {
        Counters {
            sqes: self.sqes + other.sqes,
            sqe_read_ns: self.sqe_read_ns + other.sqe_read_ns,
            cqes: self.cqes + other.cqes,
            cqe_write_ns: self.cqe_write_ns + other.cqe_write_ns,
            daemon_starts: self.daemon_starts + other.daemon_starts,
            voluntary_quits: self.voluntary_quits + other.voluntary_quits,
            preemptions: self.preemptions + other.preemptions,
            context_saves: self.context_saves + other.context_saves,
            context_loads: self.context_loads + other.context_loads,
            lazy_save_skips: self.lazy_save_skips + other.lazy_save_skips,
            collectives: self.collectives + other.collectives,
            primitives: self.primitives + other.primitives,
            primitive_ns: self.primitive_ns + other.primitive_ns,
            chunks_sent: self.chunks_sent + other.chunks_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            max_queue_len: self.max_queue_len.max(other.max_queue_len),
        }
    }
}

/// Thread groups by the names the library gives its threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Daemon = 0,
    Poller = 1,
    Driver = 2,
}

/// CPU and run-queue nanoseconds per thread group, accumulated across
/// samples. Daemon threads exit and respawn when the daemon quits
/// voluntarily, so a sample sees only live threads: a thread born between
/// samples contributes everything it has, and a thread that exits between
/// samples loses what it ran since the last one. Sampling once per window
/// bounds that loss to one window of one incarnation.
pub struct ThreadLedger {
    driver_tid: Option<u32>,
    last: HashMap<u32, (Group, u64, u64)>,
    /// `[group] -> (cpu_ns, runq_ns)`.
    pub totals: [(u64, u64); 3],
}

impl ThreadLedger {
    /// Start a ledger; the threads alive now contribute only their time
    /// from here on.
    pub fn start() -> Self {
        let driver_tid = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| p.file_name()?.to_str()?.parse().ok());
        let mut ledger = ThreadLedger {
            driver_tid,
            last: HashMap::new(),
            totals: [(0, 0); 3],
        };
        ledger.last = ledger.read_threads();
        ledger
    }

    pub fn sample(&mut self) {
        let now = self.read_threads();
        for (tid, &(group, cpu, runq)) in &now {
            let (cpu0, runq0) = match self.last.get(tid) {
                Some(&(_, c, r)) => (c, r),
                None => (0, 0),
            };
            let t = &mut self.totals[group as usize];
            t.0 += cpu.saturating_sub(cpu0);
            t.1 += runq.saturating_sub(runq0);
        }
        self.last = now;
    }

    fn read_threads(&self) -> HashMap<u32, (Group, u64, u64)> {
        let mut out = HashMap::new();
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return out;
        };
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let path = entry.path();
            let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
            let group = if Some(tid) == self.driver_tid {
                Group::Driver
            } else if comm.starts_with("dfccl-daemon") {
                Group::Daemon
            } else if comm.starts_with("dfccl-poller") {
                Group::Poller
            } else {
                continue;
            };
            let stat = std::fs::read_to_string(path.join("schedstat")).unwrap_or_default();
            let mut fields = stat
                .split_whitespace()
                .map(|f| f.parse::<u64>().unwrap_or(0));
            let cpu = fields.next().unwrap_or(0);
            let runq = fields.next().unwrap_or(0);
            out.insert(tid, (group, cpu, runq));
        }
        out
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
