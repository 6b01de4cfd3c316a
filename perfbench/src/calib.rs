//! Host-speed calibration: a fixed reference bundle of work, owned by the
//! benchmark and never by the program, timed between passes.
//!
//! On a shared host the speed of a core drifts by up to 2x over minutes
//! (other machines on the same physical cores and caches), and CPU time
//! does not remove that. The bundle has two parts, kinds of compute the
//! workloads spend their time on: a sort (branchy compute over an
//! L2-sized array) and hash-map inserts and lookups (allocation, hashing).
//! The host's speed holds still for a second or a few and then jumps, so
//! bundles are interleaved with the measured work: one runs after every
//! `CHUNK_S` of measured CPU time (`Scaled`), or just before and after a
//! call too long to split. A bundle's slowdown is the geometric mean, over
//! the parts, of each part's CPU time divided by its time on the reference
//! host (`REFERENCE_S`), and the adjacent work is reported scaled to the
//! reference host by it: `scaled = measured / slowdown` for a time,
//! `measured x slowdown` for a rate. The program's own speed-ups and slow-downs move the workload and
//! not the bundle, so they show in full.
//!
//! Other parts were tried on the reference host while its speed swung, and
//! left out because scaling by them left the workloads' figures less
//! steady: a pure-ALU hash chain (hardly slowed when the workloads did), a
//! dependent pointer chase over 16 MiB and an 8 MiB copy (their time
//! varied from process to process more than the workloads' did), string
//! formatting into an ordered map, and many small allocations.

use crate::clock::CpuInstant;
use crate::payload::mix;
use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Measured CPU seconds between two bundles: well under the second or
/// more the host's speed holds still for, and about 18 bundle times.
pub const CHUNK_S: f64 = 0.06;

/// The bundle's parts, in the order they run.
pub const PARTS: [&str; 2] = ["sort", "map"];

/// CPU seconds of each part on the reference host (the median over runs
/// on a 2-core slice of a shared Xeon host with a 105 MiB L3).
pub const REFERENCE_S: [f64; 2] = [1.809e-3, 1.605e-3];

const SORT_WORDS: usize = 1 << 16;
const MAP_OPS: u64 = 1 << 14;

pub struct Calibrator {
    sort_src: Vec<u32>,
    sort_buf: Vec<u32>,
    /// CPU seconds of every run of each part, indexed like `PARTS`.
    samples: [Vec<f64>; 2],
    sink: u64,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Calibrator {
            sort_src: (0..SORT_WORDS as u64).map(|k| mix(k) as u32).collect(),
            sort_buf: vec![0; SORT_WORDS],
            samples: Default::default(),
            sink: 0,
        };
        // Warm-up: fault the pages in before the first timed bundle.
        c.bundle();
        c.samples = Default::default();
        c
    }

    fn part(&mut self, k: usize, f: impl FnOnce(&mut Self) -> u64) {
        let t = CpuInstant::now();
        let x = f(self);
        self.samples[k].push(t.elapsed_s());
        self.sink = self.sink.wrapping_add(x);
    }

    /// Run one bundle and record the CPU time of each part.
    pub fn bundle(&mut self) {
        self.part(0, |c| {
            c.sort_buf.copy_from_slice(&c.sort_src);
            c.sort_buf.sort_unstable();
            u64::from(c.sort_buf[SORT_WORDS / 2])
        });
        self.part(1, |_| {
            // A fixed hasher: the same probe sequence in every process.
            let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
            for k in 0..MAP_OPS {
                *map.entry(mix(k) & 0xFFFF).or_insert(0) += k;
            }
            (0..MAP_OPS).fold(0u64, |acc, k| {
                acc.wrapping_add(map.get(&(mix(k ^ 0xFF) & 0xFFFF)).copied().unwrap_or(1))
            })
        });
        std::hint::black_box(self.sink);
    }

    /// Run one bundle and return the slowdown it shows.
    pub fn probe(&mut self) -> f64 {
        self.bundle();
        slowdown(std::array::from_fn(|k| self.samples[k][self.bundles() - 1]))
    }

    /// Median CPU seconds of each part over the run, indexed like `PARTS`.
    pub fn part_s(&self) -> [f64; 2] {
        std::array::from_fn(|k| median(&self.samples[k]))
    }

    /// How much slower than the reference host this run's host was, over
    /// the whole run.
    pub fn slowdown(&self) -> f64 {
        slowdown(self.part_s())
    }

    pub fn bundles(&self) -> usize {
        self.samples[0].len()
    }
}

/// Geometric mean over the parts of `part_s / REFERENCE_S`.
fn slowdown(part_s: [f64; 2]) -> f64 {
    let log_sum: f64 = part_s
        .iter()
        .zip(REFERENCE_S)
        .map(|(s, r)| (s / r).ln())
        .sum();
    (log_sum / PARTS.len() as f64).exp()
}

/// CPU time of measured work, scaled chunk by chunk to the reference host:
/// once `CHUNK_S` of measured CPU time has gathered, one bundle runs and the
/// chunk is divided by the slowdown it shows.
#[derive(Debug, Default, Clone)]
pub struct Scaled {
    pending_s: f64,
    /// Measured CPU seconds scaled to the reference host.
    pub scaled_s: f64,
}

impl Scaled {
    /// Add `cpu_s` of measured work; true when a chunk is due for `flush`.
    pub fn add(&mut self, cpu_s: f64) -> bool {
        self.pending_s += cpu_s;
        self.pending_s >= CHUNK_S
    }

    /// Scale the work gathered since the last flush by a fresh bundle.
    pub fn flush(&mut self, calib: &mut Calibrator) {
        if self.pending_s > 0.0 {
            let slow = calib.probe();
            self.scaled_s += self.pending_s / slow;
            self.pending_s = 0.0;
        }
    }
}
