//! Command-line arguments.

use crate::workload::Workload;

/// Which library runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Dfccl,
    /// The NCCL-like baseline: one blocking kernel per collective, for the
    /// reference figures only.
    NcclLike,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub gpus: usize,
    pub backend: Backend,
    pub smoke: bool,
}

pub const USAGE: &str =
    "usage: dfccl-e2ebench --workload <tiny-inorder|tiny-disorder|bulk-mixed|replay-ddp> \
--seed <n> --seconds <s> --trace <0|1> [--gpus <2..8>] [--backend <dfccl|nccl-like>] [--smoke]";

impl Args {
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: Workload::TinyInorder,
            seed: 1,
            seconds: 10.0,
            trace: false,
            gpus: 2,
            backend: Backend::Dfccl,
            smoke: false,
        };
        let mut workload = None;
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                out.smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|_| bad())?;
                    if !(out.seconds > 0.0 && out.seconds <= 120.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--gpus" => {
                    out.gpus = value.parse().map_err(|_| bad())?;
                    if !(2..=8).contains(&out.gpus) {
                        return Err(bad());
                    }
                }
                "--backend" => {
                    out.backend = match value.as_str() {
                        "dfccl" => Backend::Dfccl,
                        "nccl-like" => Backend::NcclLike,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        out.workload = workload.ok_or("--workload is required")?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_arguments() {
        let a = parse("--workload bulk-mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::BulkMixed);
        assert_eq!((a.seed, a.seconds, a.trace, a.gpus), (7, 10.0, true, 2));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload bulk-mixed --trace 2").is_err());
        assert!(parse("--workload bulk-mixed --gpus 100").is_err());
        assert!(parse("--workload bulk-mixed --seconds").is_err());
    }
}
