//! The four workloads: their collective shapes, seeded inputs and the
//! expected outputs the reference computes for them.

use dfccl_collectives::{CollectiveDescriptor, CollectiveKind, DataType, DeviceBuffer, ReduceOp};
use gpu_sim::GpuId;

use crate::inputs::{f32_bytes, small_ints, stratified_counts, Rng};
use crate::reference;

/// Input variants per buffer. Consecutive steps alternate between them, and
/// the variants differ in every element, so a recv buffer left over from the
/// previous step never passes the check.
pub const VARIANTS: usize = 2;

/// Seed streams, so sizes, values and orders never share a sequence.
const STREAM_SIZES: u64 = 1;
const STREAM_VALUES: u64 = 2;
const STREAM_ORDER: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 32 small all-reduces per step, same order on every rank.
    TinyInorder,
    /// The `TinyInorder` shapes, each rank in its own order every step.
    TinyDisorder,
    /// Multi-MiB all-reduce, all-gather and all-to-all per step.
    BulkMixed,
    /// A captured step of 64 gradient all-reduces, replayed every step.
    ReplayDdp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TinyInorder,
        Workload::TinyDisorder,
        Workload::BulkMixed,
        Workload::ReplayDdp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TinyInorder => "tiny-inorder",
            Workload::TinyDisorder => "tiny-disorder",
            Workload::BulkMixed => "bulk-mixed",
            Workload::ReplayDdp => "replay-ddp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a step replays one captured graph per rank instead of
    /// submitting each collective with `run`.
    pub fn replays(self) -> bool {
        self == Workload::ReplayDdp
    }

    fn shapes(self, seed: u64, devices: &[GpuId]) -> Vec<CollectiveDescriptor> {
        let ar = |count| {
            CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, devices.to_vec())
        };
        // Sizes of the tiny workloads depend on the seed alone, so the
        // in-order and disordered runs of one seed share their shapes.
        let mut sizes = Rng::new(seed, &[STREAM_SIZES]);
        match self {
            // 64 B – 4 KiB.
            Workload::TinyInorder | Workload::TinyDisorder => {
                stratified_counts(&mut sizes, 32, 16, 1024)
                    .into_iter()
                    .map(ar)
                    .collect()
            }
            // 4 MiB reduced, 4 MiB gathered, 4 MiB exchanged per rank.
            Workload::BulkMixed => {
                let n = devices.len();
                vec![
                    ar(1 << 20),
                    CollectiveDescriptor::all_gather(
                        (1 << 20) / n,
                        DataType::F32,
                        devices.to_vec(),
                    ),
                    CollectiveDescriptor::all_to_all(
                        (1 << 20) / n,
                        DataType::F32,
                        devices.to_vec(),
                    ),
                ]
            }
            // 1 – 16 KiB gradients.
            Workload::ReplayDdp => stratified_counts(&mut sizes, 64, 256, 4096)
                .into_iter()
                .map(ar)
                .collect(),
        }
    }

    /// The order in which each rank submits the step's collectives: the
    /// identity on every rank except under `TinyDisorder`, where each rank
    /// draws its own seeded permutation every step.
    pub fn orders(self, seed: u64, step: u64, ranks: usize, ops: usize) -> Vec<Vec<usize>> {
        (0..ranks)
            .map(|r| match self {
                Workload::TinyDisorder => {
                    Rng::new(seed, &[STREAM_ORDER, step, r as u64]).permutation(ops)
                }
                _ => (0..ops).collect(),
            })
            .collect()
    }
}

/// One registered collective with its buffers and expected outputs.
pub struct Op {
    pub id: u64,
    pub desc: CollectiveDescriptor,
    /// Send buffers, `[variant][rank]`.
    pub send: Vec<Vec<DeviceBuffer>>,
    /// Expected recv bytes, `[variant][rank]`.
    pub expected: Vec<Vec<Vec<u8>>>,
    /// Recv buffer per rank.
    pub recv: Vec<DeviceBuffer>,
    /// Per-rank send buffers a captured graph records; each step copies the
    /// step's variant into them before the replay.
    pub recorded_send: Vec<DeviceBuffer>,
}

impl Op {
    /// Send-buffer bytes one rank contributes per invocation.
    pub fn send_bytes(&self) -> usize {
        self.desc.send_bytes(0)
    }
}

/// Everything a run of one workload feeds the library.
pub struct WorkloadData {
    pub workload: Workload,
    pub seed: u64,
    pub ranks: usize,
    pub ops: Vec<Op>,
}

impl WorkloadData {
    pub fn generate(workload: Workload, seed: u64, ranks: usize) -> Self {
        let devices: Vec<GpuId> = (0..ranks).map(GpuId).collect();
        let ops = workload
            .shapes(seed, &devices)
            .into_iter()
            .enumerate()
            .map(|(i, desc)| {
                let id = i as u64 + 1;
                let mut send = Vec::with_capacity(VARIANTS);
                let mut expected = Vec::with_capacity(VARIANTS);
                for variant in 0..VARIANTS {
                    let values: Vec<Vec<f32>> = (0..ranks)
                        .map(|r| {
                            let mut rng =
                                Rng::new(seed, &[STREAM_VALUES, id, r as u64, variant as u64]);
                            let mut v = small_ints(&mut rng, desc.send_elems(r));
                            // Variant 1 is variant 0's draw shifted into
                            // [9, 25], so the variants differ everywhere.
                            if variant == 1 {
                                v.iter_mut().for_each(|x| *x += 17.0);
                            }
                            v
                        })
                        .collect();
                    expected.push(
                        (0..ranks)
                            .map(|r| f32_bytes(&expected_output(&desc, &values, r)))
                            .collect(),
                    );
                    send.push(values.iter().map(|v| DeviceBuffer::from_f32(v)).collect());
                }
                let recv = (0..ranks)
                    .map(|r| DeviceBuffer::zeroed(desc.recv_bytes(r)))
                    .collect();
                let recorded_send = if workload.replays() {
                    (0..ranks)
                        .map(|r| DeviceBuffer::zeroed(desc.send_bytes(r)))
                        .collect()
                } else {
                    Vec::new()
                };
                Op {
                    id,
                    desc,
                    send,
                    expected,
                    recv,
                    recorded_send,
                }
            })
            .collect();
        WorkloadData {
            workload,
            seed,
            ranks,
            ops,
        }
    }

    /// Collectives one rank completes per step.
    pub fn colls_per_step(&self) -> usize {
        self.ops.len()
    }

    /// Send-buffer bytes one rank contributes per step.
    pub fn bytes_per_step(&self) -> usize {
        self.ops.iter().map(Op::send_bytes).sum()
    }
}

fn expected_output(desc: &CollectiveDescriptor, inputs: &[Vec<f32>], rank: usize) -> Vec<f32> {
    match desc.kind {
        CollectiveKind::AllReduce => reference::all_reduce_sum(inputs),
        CollectiveKind::AllGather => reference::all_gather(inputs),
        CollectiveKind::AllToAll => reference::all_to_all(inputs, rank),
        other => unreachable!("no workload uses {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workloads_share_shapes_and_disorder_permutes() {
        let a = WorkloadData::generate(Workload::TinyInorder, 11, 2);
        let b = WorkloadData::generate(Workload::TinyDisorder, 11, 2);
        let counts = |d: &WorkloadData| d.ops.iter().map(|o| o.desc.count).collect::<Vec<_>>();
        assert_eq!(counts(&a), counts(&b));
        assert_eq!(a.ops.len(), 32);
        let differing = (0..20)
            .filter(|&s| {
                let o = Workload::TinyDisorder.orders(11, s, 2, 32);
                o[0] != o[1]
            })
            .count();
        assert_eq!(differing, 20);
        let inorder = Workload::TinyInorder.orders(11, 3, 2, 32);
        assert_eq!(inorder[0], (0..32).collect::<Vec<_>>());
        assert_eq!(inorder[0], inorder[1]);
    }

    #[test]
    fn variants_differ_in_every_expected_element() {
        let d = WorkloadData::generate(Workload::TinyInorder, 5, 2);
        for op in &d.ops {
            for r in 0..2 {
                let (a, b) = (&op.expected[0][r], &op.expected[1][r]);
                assert_eq!(a.len(), b.len());
                assert!(a.chunks(4).zip(b.chunks(4)).all(|(x, y)| x != y));
            }
        }
    }
}
