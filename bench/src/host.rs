//! What the benchmark knows about the machine it runs on, and what it does
//! to measure the program and not the machine: one pinned CPU, the
//! process's CPU clock, the interleaved reference slice, a calibration
//! loop, peak memory, the live thread count, and the provenance every
//! result carries.
//!
//! Three things made runs of the same code differ by 30 % and more on a
//! shared 2-vCPU host, each measured before it was dealt with here:
//! - the container's cpuset has load balancing off, so a thread stays on
//!   the CPU it was started on until a wake-up happens to move it: which
//!   of the stack's threads shared a CPU was decided by chance, and waking
//!   a thread on the *other* vCPU took 40–80 µs against 4 µs on the same
//!   one, more when the host was busy, while the ingest path hands every
//!   256-sample batch across three threads. The benchmark pins itself to
//!   one CPU ([`pin_to_one_cpu`]), where `ingest_firehose` runs a tenth
//!   slower than at its luckiest on two;
//! - the hypervisor took 0–20 % of that CPU for other guests: time is the
//!   process's CPU clock ([`cpu_now`]), which leaves stolen time out;
//! - with nothing stolen at all the same CPU seconds bought 225–306 k
//!   samples from one minute to the next, as other guests came and went on
//!   the core's sibling thread and in its caches: every time is scaled by
//!   how fast a fixed [`Reference`] slice ran between the ops of the same
//!   run.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::median;

// The three libc calls below have no counterpart in std; the package has
// no dependency to take them from, and std links libc already.
#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        pub fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
    }
}

/// CPU time this process has used so far, over all its threads. On a
/// closed loop pinned to one CPU that is wall time less what the
/// hypervisor took; without the clock (not Linux) it is wall time.
pub fn cpu_now() -> Duration {
    #[cfg(target_os = "linux")]
    {
        let mut ts = sys::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call's duration.
        if unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32);
        }
    }
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

/// Words of a CPU mask: room for 1024 CPUs, the kernel's usual limit.
const MASK_WORDS: usize = 16;

/// How many CPUs the process was allowed and the one it pinned itself to.
#[derive(Debug, Clone, Copy)]
pub struct Affinity {
    pub allowed_cpus: usize,
    pub pinned_cpu: Option<u32>,
}

/// Pin the calling thread, and every thread started from here on, to the
/// highest-numbered CPU it may run on (interrupts land on the lowest).
/// Call before anything spawns. Where pinning is refused the benchmark
/// runs unpinned and says so in its provenance.
pub fn pin_to_one_cpu() -> Affinity {
    #[cfg(target_os = "linux")]
    {
        let mut allowed = [0u64; MASK_WORDS];
        // SAFETY: `allowed` is MASK_WORDS writable words; pid 0 is this thread.
        let known = unsafe { sys::sched_getaffinity(0, MASK_WORDS * 8, allowed.as_mut_ptr()) } == 0;
        let last = allowed
            .iter()
            .enumerate()
            .rev()
            .find(|(_, word)| **word != 0)
            .map(|(i, word)| i as u32 * 64 + 63 - word.leading_zeros());
        if let (true, Some(cpu)) = (known, last) {
            let mut one = [0u64; MASK_WORDS];
            one[cpu as usize / 64] = 1 << (cpu % 64);
            // SAFETY: `one` is MASK_WORDS readable words.
            let pinned = unsafe { sys::sched_setaffinity(0, MASK_WORDS * 8, one.as_ptr()) } == 0;
            return Affinity {
                allowed_cpus: allowed.iter().map(|w| w.count_ones() as usize).sum(),
                pinned_cpu: pinned.then_some(cpu),
            };
        }
    }
    Affinity {
        allowed_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pinned_cpu: None,
    }
}

/// CPU milliseconds [`Reference::slice`] takes on the reference host: this
/// host on an average hour (the run medians of the day the benchmark was
/// written lay between 3.3 and 4.2). Frozen: it only fixes the unit the
/// benchmark's times are in.
pub const REFERENCE_SLICE_MS: f64 = 4.0;

/// Entries of the reference tree (about 50 MB, far beyond any cache).
const REFERENCE_TREE_ENTRIES: usize = 500_000;

/// A fixed piece of work of the kinds the product's hot paths are made of,
/// run between the ops of every run: how long it takes says how fast the
/// host is *now*. Half of a slice is an ordered map far larger than the
/// caches, with an allocation per insert (the memstore, the rollup
/// writer: memory latency, the allocator); half is sorting, hashing and
/// four independent arithmetic chains over 128 KB (scan, decode, encode,
/// render: issue width, the core's sibling thread). A dependent chain like
/// [`calib_ms`] barely moves when the sibling thread is busy (±3 %), the
/// workloads move by ±15 % and this slice moves with them (correlation
/// 0.85–0.96 with the CPU time of a round, over twelve runs each of
/// `ingest_firehose` and `monitor_cycle`).
pub struct Reference {
    tree: BTreeMap<u64, Vec<u8>>,
    key: u64,
    data: Vec<u64>,
    scratch: Vec<u64>,
    slices_ms: Vec<f64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    fn new() -> Self {
        let mut key = 0x2545_f491_4f6c_dd1du64;
        let data: Vec<u64> = (0..16_384).map(|_| xorshift(&mut key)).collect();
        let mut tree = BTreeMap::new();
        for _ in 0..REFERENCE_TREE_ENTRIES {
            tree.insert(xorshift(&mut key), vec![0u8; 40]);
        }
        Reference {
            tree,
            key,
            scratch: data.clone(),
            data,
            slices_ms: Vec::new(),
        }
    }

    /// One slice; returns its CPU time in ms.
    fn slice(&mut self) -> f64 {
        let start = cpu_now();
        // The tree stays the same size: every insert evicts its successor.
        for _ in 0..1_000 {
            let k = xorshift(&mut self.key);
            self.tree.insert(k, vec![1u8; 40]);
            let successor = self.tree.range(k.wrapping_add(1)..).next().map(|(k, _)| *k);
            match successor {
                Some(next) => self.tree.remove(&next),
                None => self.tree.pop_first().map(|(_, v)| v),
            };
        }
        for _ in 0..5 {
            self.scratch.copy_from_slice(&self.data);
            self.scratch.sort_unstable();
            let mut hash = [0u64; 4];
            let mut sum = [1.0f64; 4];
            for quad in self.scratch.chunks_exact(4) {
                for lane in 0..4 {
                    hash[lane] = (hash[lane] ^ quad[lane])
                        .wrapping_mul(0x0100_0000_01b3)
                        .rotate_left(17);
                    sum[lane] = sum[lane] * 1.000_000_1 + (quad[lane] & 0xff) as f64 * 1e-9;
                }
            }
            // Fixed hash keys: the same work in every process.
            let mut counts = HashMap::with_capacity_and_hasher(
                4096,
                BuildHasherDefault::<DefaultHasher>::default(),
            );
            for v in &self.scratch[..4096] {
                *counts.entry(v >> 20).or_insert(0u64) += 1;
            }
            std::hint::black_box((hash, sum, counts.len()));
        }
        (cpu_now() - start).as_secs_f64() * 1e3
    }
}

static REFERENCE: Mutex<Option<Reference>> = Mutex::new(None);

/// Run one reference slice and keep its time. The first call builds the
/// reference (half a second); `main` makes it before any set-up is timed.
pub fn reference_slice() {
    let mut guard = REFERENCE.lock().unwrap_or_else(|e| e.into_inner());
    let reference = guard.get_or_insert_with(Reference::new);
    let ms = reference.slice();
    reference.slices_ms.push(ms);
}

/// Median CPU time of the run's reference slices, in ms, and how many
/// there were.
pub fn reference_slice_ms() -> (f64, usize) {
    let guard = REFERENCE.lock().unwrap_or_else(|e| e.into_inner());
    let slices = guard.as_ref().map_or(&[][..], |r| &r.slices_ms);
    if slices.is_empty() {
        (REFERENCE_SLICE_MS, 0)
    } else {
        (median(slices), slices.len())
    }
}

/// One pass of the reference loop, in milliseconds: integer mixing plus a
/// dependent floating-point chain over a cache-resident array. The work is
/// fixed, so a slow reading means a slow (or busy) host, not slow code.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut lanes = [0u64; 512];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 1.0f64;
    for i in 0..40_000_000usize {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut lanes[i & 511];
        *slot = slot.wrapping_add(x);
        acc = acc * 1.000_000_1 + (*slot & 0xff) as f64 * 1e-9;
    }
    std::hint::black_box((lanes, acc));
    start.elapsed().as_secs_f64() * 1e3
}

fn proc_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set size (VmHWM) in MiB; 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Live threads of this process; 1 where `/proc` is missing.
pub fn thread_count() -> u64 {
    proc_status_field("Threads:").unwrap_or(1)
}

/// Wait until the process is back to `baseline` threads. A dropped
/// `Monitor` only *signals* its region servers, which then free the whole
/// store on their own detached threads; timing the next store while they
/// are still at it charged it up to 0.6 s of someone else's teardown.
pub fn quiesce(baseline: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while thread_count() > baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The repository root as seen from the working directory: the driver and
/// the README run from the root itself, `cargo test` from `bench/`.
pub fn repo_root() -> &'static Path {
    if Path::new("bench/Cargo.toml").exists() {
        Path::new(".")
    } else {
        Path::new("..")
    }
}

/// The commit checked out, read from `.git` without running git (the
/// benchmark driver's checkout has no `.git`; there this is "unknown").
fn git_commit() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU time the hypervisor gave to someone else, in clock ticks of 10 ms
/// (`steal` of `/proc/stat`): of the pinned CPU, or of all CPUs together
/// when the run is not pinned; 0 where it is not reported.
fn steal_ticks(cpu: Option<u32>) -> u64 {
    let line = cpu.map_or("cpu".to_string(), |n| format!("cpu{n}"));
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .find(|l| l.split_whitespace().next() == Some(&line))?
                .split_whitespace()
                .nth(8)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Nothing here runs on a simulated clock. End-to-end times are CPU time
/// of the whole process on its one CPU, in reference-host units; spans and
/// the ladder's rungs are plain wall time on the same pinned CPU.
pub const CLOCK: &str = "end-to-end: process CPU time (CLOCK_PROCESS_CPUTIME_ID) on one pinned CPU x host_speed; spans: wall (std::time::Instant)";

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// CPUs the process was allowed before it pinned itself.
    pub nproc: usize,
    pub pinned_cpu: Option<u32>,
    pub git_commit: String,
    pub rustc: &'static str,
    pub seed: u64,
    pub calib_before_ms: f64,
    pub calib_after_ms: f64,
    /// Share of the pinned CPU's time the hypervisor gave to other guests
    /// while the benchmark ran. The CPU clock leaves it out of every
    /// end-to-end time; spans and rungs, on the wall clock, include it.
    pub steal_share: f64,
    /// Median CPU time of the run's reference slices and their number.
    pub reference_ms: f64,
    pub reference_slices: usize,
    started: Instant,
    steal_at_start: u64,
}

impl Provenance {
    /// Capture everything known before the workload starts (the
    /// calibration loop runs here; [`Provenance::finish`] fills in the
    /// rest).
    pub fn capture(seed: u64, affinity: &Affinity) -> Self {
        Provenance {
            nproc: affinity.allowed_cpus,
            pinned_cpu: affinity.pinned_cpu,
            git_commit: git_commit(),
            rustc: env!("PGA_PERF_RUSTC"),
            seed,
            calib_before_ms: calib_ms(),
            calib_after_ms: 0.0,
            steal_share: 0.0,
            reference_ms: REFERENCE_SLICE_MS,
            reference_slices: 0,
            started: Instant::now(),
            steal_at_start: steal_ticks(affinity.pinned_cpu),
        }
    }

    /// Run the calibration loop again, close the steal account and take
    /// the run's reference time.
    pub fn finish(&mut self) {
        let cpus = if self.pinned_cpu.is_some() {
            1
        } else {
            self.nproc
        };
        let cpu_seconds = self.started.elapsed().as_secs_f64() * cpus as f64;
        self.steal_share =
            (steal_ticks(self.pinned_cpu) - self.steal_at_start) as f64 / 100.0 / cpu_seconds;
        (self.reference_ms, self.reference_slices) = reference_slice_ms();
        self.calib_after_ms = calib_ms();
    }

    /// `host.calib_ms`: mean of the loop before and after the workload.
    pub fn calib_ms(&self) -> f64 {
        (self.calib_before_ms + self.calib_after_ms) / 2.0
    }

    /// How fast the host ran this run's reference slices: 1 on the
    /// reference host, 0.8 on one that took a quarter longer. A time
    /// multiplied by it is the time the reference host would have taken.
    pub fn host_speed(&self) -> f64 {
        REFERENCE_SLICE_MS / self.reference_ms
    }

    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "nproc": (self.nproc),
            "pinned_cpu": (self.pinned_cpu),
            "git_commit": (self.git_commit),
            "rustc": (self.rustc),
            "clock": CLOCK,
            "seed": (self.seed),
            "calib_before_ms": (self.calib_before_ms),
            "calib_after_ms": (self.calib_after_ms),
            "steal_share": (self.steal_share),
            "reference_slice_ms": (self.reference_ms),
            "reference_slices": (self.reference_slices),
            "host_speed": (self.host_speed()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_the_thread_one_cpu() {
        let affinity = pin_to_one_cpu();
        assert!(affinity.allowed_cpus >= 1);
        if affinity.pinned_cpu.is_some() {
            let usable = std::thread::available_parallelism().map_or(0, |n| n.get());
            assert_eq!(usable, 1);
        }
    }

    #[test]
    fn the_cpu_clock_advances_with_work() {
        let (cpu, wall) = (cpu_now(), Instant::now());
        while wall.elapsed() < Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        let used = cpu_now() - cpu;
        assert!(used >= Duration::from_millis(2), "{used:?} of CPU in 20 ms");
    }

    #[test]
    fn reference_slices_are_kept_and_their_median_reported() {
        let (_, before) = reference_slice_ms();
        for _ in 0..3 {
            reference_slice();
        }
        let (ms, slices) = reference_slice_ms();
        assert!(slices >= before + 3);
        assert!(ms > 0.0 && ms.is_finite(), "{ms}");
    }
}
