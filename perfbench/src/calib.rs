//! Host-speed calibration for the end-to-end times.
//!
//! On a shared host the same work can take 1.9 times as long from one
//! minute to the next, while other tenants load the physical core. A
//! fixed reference kernel, which belongs to the benchmark and calls no
//! library code, is timed between the measured steps. Each step's host
//! time is then scaled by how fast the kernel ran at both of its ends:
//! `norm_s = host_s * REFERENCE_S / mean(probe before, probe after)`.
//! A change to the library cannot move the kernel, so it moves the
//! scaled time by the same factor as the host time. A slow spell of the
//! host slows the kernel too, and as far as it does, it cancels.
//!
//! The kernel mixes two kinds of work: random updates of a table larger
//! than a core's L2 cache, which slow down with the emulator when other
//! tenants fill the shared caches; and graph, hash-map, string and sort
//! work with many small allocations, like the compiler and the
//! optimizer. Of the kernels tried on a shared 2-vCPU guest (an
//! interpreter over a generated program, a dependent-multiply chain, a
//! pointer chase over 64 MiB, hash-map lookups, and these two), this
//! pair tracked the loop's own slowdowns best. It still cancels only
//! part of them.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one probe on a quiet 2-vCPU Xeon guest (Sapphire
/// Rapids, 2.1 GHz), about the fastest probe seen there. Scaled times
/// are seconds on such a host.
pub const REFERENCE_S: f64 = 0.018;

/// The table's size, and the updates, graph walks and graph nodes of
/// one probe. The table stays allocated for the whole run (it adds
/// 4 MiB to `peak_rss_mb`); the graphs are small.
const TABLE_WORDS: usize = 1 << 19;
const UPDATES: u64 = 3_000_000;
const GRAPH_WALKS: u64 = 3;
const GRAPH_NODES: u64 = 20_000;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Random read-modify-writes over `table`, which is larger than a
/// core's L2 cache, so that the probe feels contention for the shared
/// L3 cache and memory as the emulator's tables do.
fn scatter(table: &mut [u64], updates: u64) -> u64 {
    let mut r = Rng(0x9E37_79B9_7F4A_7C15);
    let mask = table.len() - 1;
    for _ in 0..updates {
        let x = r.next();
        let i = x as usize & mask;
        table[i] = table[i].wrapping_add(x);
    }
    table[0]
}

/// Builds a random graph, walks it depth first while counting visits
/// in a hash map, and sorts what it found.
fn graph(seed: u64, nodes: u64) -> usize {
    let mut r = Rng(seed);
    let adj: Vec<Vec<u32>> = (0..nodes)
        .map(|_| {
            (0..r.next() % 6)
                .map(|_| (r.next() % nodes) as u32)
                .collect()
        })
        .collect();
    let mut visits: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut seen = vec![false; nodes as usize];
    let (mut order, mut stack) = (Vec::new(), vec![0u32]);
    while let Some(v) = stack.pop() {
        *visits.entry(u64::from(v).wrapping_mul(0x9E37)).or_default() += 1;
        if std::mem::replace(&mut seen[v as usize], true) {
            continue;
        }
        order.push(v);
        stack.extend(&adj[v as usize]);
    }
    let mut keys: Vec<u64> = visits.keys().copied().collect();
    keys.sort_unstable();
    let mut names: Vec<String> = order.iter().take(2000).map(|v| format!("f{v}")).collect();
    names.sort();
    keys.len() + order.len() + names.len()
}

/// One scaled interval: the host seconds it took, and those seconds
/// scaled to the reference host.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    pub host_s: f64,
    pub norm_s: f64,
}

impl Lap {
    /// `host_s` seconds measured inside this lap, scaled at its speed.
    pub fn part(self, host_s: f64) -> Lap {
        let speed = if self.host_s > 0.0 {
            self.norm_s / self.host_s
        } else {
            0.0
        };
        Lap {
            host_s,
            norm_s: host_s * speed,
        }
    }
}

impl std::ops::AddAssign for Lap {
    fn add_assign(&mut self, other: Lap) {
        self.host_s += other.host_s;
        self.norm_s += other.norm_s;
    }
}

/// A stopwatch that probes the host's speed at every lap.
pub struct Clock {
    table: Vec<u64>,
    last_probe_s: f64,
    since: Instant,
    /// Every probe's host seconds, for the report.
    pub probes: Vec<f64>,
}

impl Clock {
    /// Allocates the kernel's table and takes the first probe; the
    /// first lap starts when this returns.
    pub fn new() -> Clock {
        let mut clock = Clock {
            table: vec![1; TABLE_WORDS],
            last_probe_s: 0.0,
            since: Instant::now(),
            probes: Vec::new(),
        };
        clock.last_probe_s = clock.probe();
        clock.since = Instant::now();
        clock
    }

    fn probe(&mut self) -> f64 {
        let started = Instant::now();
        black_box(scatter(&mut self.table, UPDATES));
        for walk in 0..GRAPH_WALKS {
            black_box(graph(0x6EA9 + walk, GRAPH_NODES));
        }
        let secs = started.elapsed().as_secs_f64();
        self.probes.push(secs);
        secs
    }

    /// Ends the current lap and starts the next. The probe between them
    /// belongs to neither.
    pub fn lap(&mut self) -> Lap {
        let host_s = self.since.elapsed().as_secs_f64();
        let probe_s = self.probe();
        let speed = REFERENCE_S / ((self.last_probe_s + probe_s) / 2.0);
        self.last_probe_s = probe_s;
        self.since = Instant::now();
        Lap {
            host_s,
            norm_s: host_s * speed,
        }
    }
}
