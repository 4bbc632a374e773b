//! Host-side reference outputs, computed from the seeded inputs without the
//! library. Each function takes every rank's send buffer, indexed by rank.

/// All-reduce with `Sum`: every rank receives the element-wise sum.
pub fn all_reduce_sum(inputs: &[Vec<f32>]) -> Vec<f32> {
    let mut out = vec![0.0f32; inputs[0].len()];
    for input in inputs {
        assert_eq!(input.len(), out.len(), "all-reduce inputs differ in length");
        for (o, v) in out.iter_mut().zip(input) {
            *o += v;
        }
    }
    out
}

/// All-gather: every rank receives the send buffers concatenated in rank
/// order.
pub fn all_gather(inputs: &[Vec<f32>]) -> Vec<f32> {
    inputs.concat()
}

/// All-to-all with `count` elements per rank pair: rank `rank` receives, in
/// slot `j`, the slice rank `j` addressed to it (slot `rank` of `j`'s send
/// buffer) — the transpose of the send slices.
pub fn all_to_all(inputs: &[Vec<f32>], rank: usize) -> Vec<f32> {
    let n = inputs.len();
    let count = inputs[0].len() / n;
    inputs
        .iter()
        .flat_map(|input| {
            assert_eq!(input.len(), count * n, "all-to-all inputs differ in length");
            input[rank * count..(rank + 1) * count].iter().copied()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_reduce_two_ranks_by_hand() {
        let inputs = vec![vec![1.0, -2.0, 3.0], vec![4.0, 5.0, -8.0]];
        assert_eq!(all_reduce_sum(&inputs), vec![5.0, 3.0, -5.0]);
    }

    #[test]
    fn all_gather_two_ranks_by_hand() {
        let inputs = vec![vec![1.0, 2.0], vec![7.0, 8.0]];
        assert_eq!(all_gather(&inputs), vec![1.0, 2.0, 7.0, 8.0]);
    }

    #[test]
    fn all_to_all_two_ranks_by_hand() {
        // Rank 0 sends [a0 | a1], rank 1 sends [b0 | b1]; slice k goes to
        // rank k. Rank 0 receives [a0 | b0], rank 1 receives [a1 | b1].
        let inputs = vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]];
        assert_eq!(all_to_all(&inputs, 0), vec![1.0, 2.0, 5.0, 6.0]);
        assert_eq!(all_to_all(&inputs, 1), vec![3.0, 4.0, 7.0, 8.0]);
    }
}
