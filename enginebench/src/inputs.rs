//! Seeded inputs and the reference results computed from them.
//!
//! Nothing in this module touches the engine: the same seed always yields
//! the same key streams, meter readings and specification limits, and the
//! reference results (the writer's key → sequence model, per-meter sums,
//! last readings, violations and prefix sums) are computed from the inputs
//! alone.  The `reference` binary prints them; the workloads check the
//! engine's outputs against them.

use std::collections::HashMap;

/// Rows preloaded into each Figure 4 state (paper: 1 M).
pub const TABLE_SIZE: u32 = 1_000_000;
/// Value size of a Figure 4 row (paper: 20 bytes).
pub const VALUE_BYTES: usize = 20;
/// Keys per stream transaction and per query, each touched in both states.
pub const KEYS_PER_TXN: usize = 5;
/// Meters of the metering pipeline.
pub const METERS: u32 = 1000;
/// Readings per punctuated pipeline transaction.
pub const READINGS_PER_TXN: usize = 100;
/// Readings per pipeline round.  Over [`METERS`] meters that is about 20
/// versions of a meter's row per round, below the 64 MVCC version slots, so
/// the slot fault shows only in the fault probe, not under the report
/// client's snapshots.
pub const READINGS_PER_ROUND: usize = 20_000;
/// Period of the pipeline's fixed-rate report client.
pub const REPORT_PERIOD: std::time::Duration = std::time::Duration::from_millis(20);
/// Meter id the fault probe writes (outside the seeded fleet).
pub const PROBE_METER: u32 = 1_000_003;
/// Single-reading transactions the fault probe streams while a snapshot is
/// held open.
pub const PROBE_TXNS: usize = 80;

/// Filler byte of the 12 value bytes after the sequence number.
const FILLER: u8 = 0xA5;
/// Multiplier scattering Zipf ranks over the key space (prime, so a
/// bijection for every key-space size it does not divide).
const SCATTER: u64 = 7919;

/// SplitMix64: a small, fast, fully specified generator, so the inputs do
/// not depend on any library's choice of algorithm.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Derives the seed of one named input stream from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Zipf(θ) key distribution over `0..n`; θ = 0 is uniform.  Ranks are
/// scattered over the key space with a seed-dependent offset, so the hot
/// keys are not adjacent.
#[derive(Clone, Debug)]
pub struct KeyDist {
    n: u32,
    cdf: Option<Vec<f64>>,
    offset: u64,
}

impl KeyDist {
    /// The distribution for `n` keys, skew `theta`, and the run `seed`.
    pub fn new(n: u32, theta: f64, seed: u64) -> Self {
        assert!(n > 0 && theta >= 0.0);
        assert!(
            !(n as u64).is_multiple_of(SCATTER),
            "scatter must be a bijection"
        );
        let cdf = (theta > 0.0).then(|| {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (1..=n as u64)
                .map(|k| {
                    acc += 1.0 / (k as f64).powf(theta);
                    acc
                })
                .collect();
            for c in &mut cdf {
                *c /= acc;
            }
            cdf
        });
        KeyDist {
            n,
            cdf,
            offset: mix(seed, 0x5CA7) % n as u64,
        }
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let rank = match &self.cdf {
            None => rng.below(self.n as u64),
            Some(cdf) => {
                let u = rng.next_f64();
                cdf.partition_point(|c| *c <= u).min(cdf.len() - 1) as u64
            }
        };
        ((rank * SCATTER + self.offset) % self.n as u64) as u32
    }
}

/// The 20-byte value of a Figure 4 row holding writer sequence `seq`
/// (preloaded rows hold sequence 0).
pub fn encode_seq(seq: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_BYTES);
    v.extend_from_slice(&seq.to_le_bytes());
    v.resize(VALUE_BYTES, FILLER);
    v
}

/// Decodes a value written by [`encode_seq`]; `None` if it is malformed.
pub fn decode_seq(v: &[u8]) -> Option<u64> {
    if v.len() != VALUE_BYTES || v[8..].iter().any(|b| *b != FILLER) {
        return None;
    }
    Some(u64::from_le_bytes(v[..8].try_into().ok()?))
}

/// One client's stream of transaction key sets.
#[derive(Clone, Debug)]
pub struct KeyStream {
    rng: Rng,
    dist: KeyDist,
}

impl KeyStream {
    /// The keys of the next transaction.
    pub fn next_txn(&mut self) -> [u32; KEYS_PER_TXN] {
        std::array::from_fn(|_| self.dist.sample(&mut self.rng))
    }
}

/// Inputs of a Figure 4 cell: the stream writer's and the query client's
/// key streams.  Every protocol cell of a run replays the same streams.
#[derive(Clone, Debug)]
pub struct Fig4Inputs {
    dist: KeyDist,
    seed: u64,
}

impl Fig4Inputs {
    /// Inputs for `table_size` keys at skew `theta`.
    pub fn new(seed: u64, table_size: u32, theta: f64) -> Self {
        Fig4Inputs {
            dist: KeyDist::new(table_size, theta, seed),
            seed,
        }
    }

    /// The stream writer's key sets; committed transaction `i` (from 1)
    /// writes the `i`-th set with value [`encode_seq`]`(i)`.
    pub fn writer(&self) -> KeyStream {
        KeyStream {
            rng: Rng::new(mix(self.seed, 1)),
            dist: self.dist.clone(),
        }
    }

    /// The query client's key sets.
    pub fn queries(&self) -> KeyStream {
        KeyStream {
            rng: Rng::new(mix(self.seed, 2)),
            dist: self.dist.clone(),
        }
    }

    /// The writer's key → last-committed-sequence model after `commits`
    /// committed stream transactions; keys absent from it hold 0.
    pub fn model(&self, commits: u64) -> HashMap<u32, u64> {
        let mut writer = self.writer();
        let mut model = HashMap::new();
        for seq in 1..=commits {
            for k in writer.next_txn() {
                model.insert(k, seq);
            }
        }
        model
    }
}

/// One meter reading; `index` is its position in the input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reading {
    /// Position in the input stream.
    pub index: u64,
    /// Meter id.
    pub meter: u32,
    /// Reading value (Wh).
    pub value: u64,
}

/// The metering pipeline's seeded input: the readings of one round and
/// each meter's specification limit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeterInputs {
    /// Readings in stream order.
    pub readings: Vec<Reading>,
    /// Specification limit per meter: a last reading above it is a
    /// violation.
    pub limits: Vec<u64>,
}

impl MeterInputs {
    /// `count` readings over [`METERS`] meters, drawn from `seed`.
    pub fn new(seed: u64, count: usize) -> Self {
        let mut rng = Rng::new(mix(seed, 3));
        let limits = (0..METERS).map(|_| 900 + rng.below(100)).collect();
        let readings = (0..count as u64)
            .map(|index| Reading {
                index,
                meter: rng.below(METERS as u64) as u32,
                value: 1 + rng.below(1000),
            })
            .collect();
        MeterInputs { readings, limits }
    }

    /// The fixed input of the fault probe: [`PROBE_TXNS`] readings of
    /// [`PROBE_METER`], value 1 each, independent of the seed.
    pub fn probe() -> Vec<Reading> {
        (0..PROBE_TXNS as u64)
            .map(|index| Reading {
                index,
                meter: PROBE_METER,
                value: 1,
            })
            .collect()
    }

    /// Canonical byte encoding (for the byte-identity check and digests).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.readings.len() * 20 + self.limits.len() * 8);
        for l in &self.limits {
            out.extend_from_slice(&l.to_le_bytes());
        }
        for r in &self.readings {
            out.extend_from_slice(&r.index.to_le_bytes());
            out.extend_from_slice(&r.meter.to_le_bytes());
            out.extend_from_slice(&r.value.to_le_bytes());
        }
        out
    }
}

/// Reference results of one pipeline round, computed from the input alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeterReference {
    /// Per meter: (readings, sum of values).
    pub sums: Vec<(u64, u64)>,
    /// Per meter: (index, value) of its last reading, if any.
    pub last: Vec<Option<(u64, u64)>>,
    /// Meters whose last reading exceeds their limit, ascending.
    pub violations: Vec<u32>,
    /// Sum of all values of the first `t * READINGS_PER_TXN` readings, for
    /// every transaction boundary `t` (the last entry covers the whole
    /// input, partial final transaction included).
    pub prefix_sums: Vec<u64>,
}

impl MeterReference {
    /// Computes the reference of `inputs`.
    pub fn of(inputs: &MeterInputs) -> Self {
        let mut sums = vec![(0u64, 0u64); METERS as usize];
        let mut last = vec![None; METERS as usize];
        let mut prefix_sums = vec![0u64];
        let mut total = 0u64;
        for (i, r) in inputs.readings.iter().enumerate() {
            let m = r.meter as usize;
            sums[m].0 += 1;
            sums[m].1 += r.value;
            last[m] = Some((r.index, r.value));
            total += r.value;
            if (i + 1) % READINGS_PER_TXN == 0 || i + 1 == inputs.readings.len() {
                prefix_sums.push(total);
            }
        }
        let violations = (0..METERS)
            .filter(|m| matches!(last[*m as usize], Some((_, v)) if v > inputs.limits[*m as usize]))
            .collect();
        MeterReference {
            sums,
            last,
            violations,
            prefix_sums,
        }
    }

    /// Number of readings committed after `boundary` whole transactions.
    pub fn readings_at(&self, boundary: usize, total: usize) -> u64 {
        (boundary * READINGS_PER_TXN).min(total) as u64
    }

    /// Canonical byte encoding (for digests).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (c, s) in &self.sums {
            out.extend_from_slice(&c.to_le_bytes());
            out.extend_from_slice(&s.to_le_bytes());
        }
        for l in &self.last {
            let (i, v) = l.unwrap_or((u64::MAX, 0));
            out.extend_from_slice(&i.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in &self.violations {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for p in &self.prefix_sums {
            out.extend_from_slice(&p.to_le_bytes());
        }
        out
    }
}

/// FNV-1a 64-bit digest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(MeterInputs::new(7, 1000), MeterInputs::new(7, 1000));
        assert_ne!(MeterInputs::new(7, 1000), MeterInputs::new(8, 1000));
        let a = Fig4Inputs::new(7, 1000, 2.5).writer().next_txn();
        assert_eq!(a, Fig4Inputs::new(7, 1000, 2.5).writer().next_txn());
    }

    #[test]
    fn seq_values_round_trip() {
        assert_eq!(decode_seq(&encode_seq(42)), Some(42));
        assert_eq!(decode_seq(&[0; 3]), None);
    }

    #[test]
    fn skewed_keys_concentrate() {
        let dist = KeyDist::new(TABLE_SIZE, 2.5, 1);
        let mut rng = Rng::new(1);
        let hot = dist.sample(&mut Rng::new(99));
        let mut counts = HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(dist.sample(&mut rng)).or_insert(0u32) += 1;
        }
        let top = counts.values().copied().max().unwrap();
        assert!(top > 6_000, "θ = 2.5 puts most mass on one key, got {top}");
        assert!(counts.contains_key(&hot));
    }

    #[test]
    fn reference_prefix_sums_cover_every_boundary() {
        let inputs = MeterInputs::new(3, 250);
        let r = MeterReference::of(&inputs);
        assert_eq!(r.prefix_sums.len(), 4);
        let total: u64 = inputs.readings.iter().map(|x| x.value).sum();
        assert_eq!(*r.prefix_sums.last().unwrap(), total);
        assert_eq!(r.sums.iter().map(|s| s.0).sum::<u64>(), 250);
    }
}
