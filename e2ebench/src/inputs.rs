//! Seeded input generation. Everything a run feeds the library — collective
//! sizes, submission orders and buffer contents — is a pure function of the
//! `--seed` argument, so the same seed always yields the same inputs.

/// A SplitMix64 generator: small, fast and reproducible across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, further keyed by `stream` so independent
    /// input families (sizes, orders, values) never share a sequence.
    pub fn new(seed: u64, stream: &[u64]) -> Self {
        let mut rng = Rng(seed);
        for &s in stream {
            rng.0 ^= s.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// `n` element counts drawn log-uniformly from `[min, max]`, one from each
/// of `n` equal strata of the log range, then shuffled. Stratifying keeps a
/// step's total payload within a few percent across seeds, so a seed changes
/// which collective gets which size but not how much work a step holds.
pub fn stratified_counts(rng: &mut Rng, n: usize, min: usize, max: usize) -> Vec<usize> {
    let (lo, hi) = ((min as f64).ln(), (max as f64).ln());
    let mut counts: Vec<usize> = (0..n)
        .map(|i| {
            let x = lo + (hi - lo) * (i as f64 + rng.unit()) / n as f64;
            (x.exp().round() as usize).clamp(min, max)
        })
        .collect();
    let order = rng.permutation(n);
    counts = order.into_iter().map(|i| counts[i]).collect();
    counts
}

/// `len` small integer-valued floats in `[-8, 8]`. Sums of a few of them are
/// exact in f32, so any reduction order produces the same bits.
pub fn small_ints(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.below(17) as f32 - 8.0).collect()
}

/// Little-endian bytes of `values`, the layout `DeviceBuffer` holds.
pub fn f32_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = stratified_counts(&mut Rng::new(7, &[1]), 32, 16, 1024);
        let b = stratified_counts(&mut Rng::new(7, &[1]), 32, 16, 1024);
        assert_eq!(a, b);
        let c = stratified_counts(&mut Rng::new(8, &[1]), 32, 16, 1024);
        assert_ne!(a, c);
    }

    #[test]
    fn stratified_counts_stay_in_range_and_cover_the_span() {
        let counts = stratified_counts(&mut Rng::new(3, &[]), 32, 16, 1024);
        assert!(counts.iter().all(|&c| (16..=1024).contains(&c)));
        assert!(*counts.iter().min().unwrap() < 32);
        assert!(*counts.iter().max().unwrap() > 512);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = Rng::new(5, &[]).permutation(32);
        p.sort_unstable();
        assert_eq!(p, (0..32).collect::<Vec<_>>());
    }
}
