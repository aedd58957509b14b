//! Seeded input generation, digests, stopwatches and percentiles.

use std::time::Instant;

/// SplitMix64: a tiny, portable, seedable generator. Every input the
/// workloads feed the system comes from one of these, so the same seed
/// always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i as u32) as usize);
        }
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

/// FNV-1a digest over input and output bytes. Deliberately independent
/// of the system's own fingerprint fold, which the benchmark measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Wall-clock stopwatch in nanoseconds since its creation.
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Nearest-rank percentile of `v` (sorted in place).
pub fn percentile(v: &mut [u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile, at most `want`, that leaves at least ten
/// samples beyond it (p50 when even that is unsupported).
pub fn supported_pct(n: usize, want: f64) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|p| *p <= want)
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

pub fn median_f(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The supported tail (at most p99) of `v`, sorted in place.
pub fn tail(v: &mut [u64]) -> u64 {
    let p = supported_pct(v.len(), 99.0);
    percentile(v, p)
}

/// One chunk of a fixed reference computation that shares no code with
/// the system under test: byte hashing, buffer copies and ordered-map
/// updates, the mix the simulator itself spends its time on. Returns its
/// wall time. Workloads run chunks between ops and in idle time, so the
/// machine's speed is sampled at the same moments as the work.
pub fn reference_chunk() -> u64 {
    let clock = Clock::start();
    let mut rng = Rng::new(7, 7);
    let b = rng.bytes(4096);
    let mut d = Digest::new();
    d.bytes(&b);
    let bufs: Vec<Vec<u8>> = (0..8).map(|k| b[k * 512..].to_vec()).collect();
    let mut map = std::collections::BTreeMap::new();
    for k in 0..128u64 {
        let key = rng.next_u64();
        map.insert(key, k);
        if let Some((_, v)) = map.range(key / 2..).next() {
            d.u64(*v);
        }
    }
    std::hint::black_box((d.0, bufs.len(), map.len()));
    clock.ns()
}
