//! Host plumbing: thread pinning, process accounting, cache size and the
//! calibration loops that separate host drift from program change.
//!
//! Everything here degrades to "unavailable" (`None`), never to zero, on
//! a platform that lacks the Linux interfaces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` is 1024 bits on glibc and musl.
    pub const MASK_WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }

    pub fn get_affinity() -> Option<Vec<usize>> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the byte length
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        Some(
            (0..MASK_WORDS * 64)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect(),
        )
    }

    pub fn set_affinity(cpu: usize) -> bool {
        if cpu >= MASK_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the byte length
        // passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
    }

    /// `(user_s, sys_s)` of the whole process.
    pub fn cpu_times() -> Option<(f64, f64)> {
        // `struct rusage` on 64-bit Linux: two `timeval`s (4 longs) then
        // 14 longs.
        let mut ru = [0i64; 18];
        // SAFETY: `ru` is a writable buffer the size of `struct rusage`;
        // 0 is RUSAGE_SELF.
        if unsafe { getrusage(0, &mut ru) } != 0 {
            return None;
        }
        Some((
            ru[0] as f64 + ru[1] as f64 * 1e-6,
            ru[2] as f64 + ru[3] as f64 * 1e-6,
        ))
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn get_affinity() -> Option<Vec<usize>> {
        None
    }
    pub fn set_affinity(_cpu: usize) -> bool {
        false
    }
    pub fn cpu_times() -> Option<(f64, f64)> {
        None
    }
}

/// `current_affinity()`: CPUs the calling thread may run on
/// (`sched_getaffinity`). `cpu_times()`: `(user_s, sys_s)` consumed by
/// this process so far (`getrusage`).
pub use sys::{cpu_times, get_affinity as current_affinity};

/// Where measured code runs: **every** thread of a job on one CPU, the
/// first the process is allowed.
///
/// The sizing host is a 2-vCPU guest. With one image per CPU (the
/// binding real CAF/MPI jobs use) two things outside the program decide
/// the numbers there: every blocking wake crosses CPUs through a
/// virtualised IPI (~17 µs each way, `host.condvar_xcpu_rt_us`, against
/// ~1 µs for a same-CPU switch), and whenever both vCPUs are busy the
/// repetition times of every two-image kernel turn bimodal (32 ms or
/// 46 ms for `hpl`) in phases that last minutes, as if the host ran the
/// vCPUs on sibling hardware threads some of the time. Ten 10 s runs
/// then spread 12–18 % on `fft` `hpl` `cgpop` and 16 % on `sync`; with
/// the job on one CPU the same runs spread 1–8 %, and the program's own
/// path is a visible share of each wake instead of 3 % of it. What this
/// gives up is everything only true parallelism shows (overlap,
/// cache-line bouncing between cores); on this host that cannot be told
/// from the host's own noise.
#[derive(Debug, Clone)]
pub struct Pinning {
    /// Every CPU the process was allowed at start; empty when affinity
    /// is unavailable.
    pub allowed: Vec<usize>,
}

impl Pinning {
    /// Read the process's allowed-CPU list. Call from the main thread
    /// before any thread is pinned.
    pub fn detect() -> Self {
        Pinning {
            allowed: current_affinity().unwrap_or_default(),
        }
    }

    /// The CPU jobs run on.
    pub fn cpu(&self) -> Option<usize> {
        self.allowed.first().copied()
    }

    /// Bind the calling thread to the job CPU. Threads it spawns from
    /// here on inherit the binding, so a launcher pins itself once and
    /// every image thread, task carrier and executor worker follows.
    /// Returns the affinity read back (`None` when unavailable).
    pub fn pin(&self) -> Option<Vec<usize>> {
        if !sys::set_affinity(self.cpu()?) {
            return None;
        }
        current_affinity()
    }
}

/// `VmHWM` of this process in MiB (`/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Size in bytes of the last-level cache of CPU 0 (sysfs).
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let (Ok(level), Some(size)) = (level.trim().parse::<u32>(), parse_size(size.trim())) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, s)| s)
}

/// Parse a sysfs cache size such as `32K` or `16384K` or `8M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// One calibration sample of `host.memcpy1m_gbps`: copy 1 MiB `reps`
/// times between two resident buffers.
pub fn memcpy1m_gbps(reps: usize) -> f64 {
    const N: usize = 1 << 20;
    let src = vec![0x5au8; N];
    let mut dst = vec![0u8; N];
    let t = Instant::now();
    for _ in 0..reps {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
    }
    (N * reps) as f64 / t.elapsed().as_secs_f64() * 1e-9
}

/// One calibration sample of `host.atomic_inc_ns`: uncontended relaxed
/// `fetch_add` on one word.
pub fn atomic_inc_ns(reps: usize) -> f64 {
    let word = AtomicU64::new(0);
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(&word).fetch_add(1, Ordering::Relaxed);
    }
    t.elapsed().as_secs_f64() * 1e9 / reps as f64
}

/// A bare `Mutex`+`Condvar` ping-pong between the calling thread and a
/// peer — the floor under every blocking wake in the stack. The peer
/// runs on `peer_cpu` (`host.condvar_xcpu_rt_us`: what a wake costs
/// across CPUs) or, with `None`, inherits the caller's CPU
/// (`host.condvar_rt_us`). Returns `batches` samples of µs per round
/// trip.
pub fn condvar_rt_us(peer_cpu: Option<usize>, batches: usize, per_batch: usize) -> Vec<f64> {
    // The turn word: even = caller may go, odd = peer may go.
    let cell = Arc::new((Mutex::new(0u64), Condvar::new()));
    let total = (batches * per_batch) as u64;
    let pass = |cell: &(Mutex<u64>, Condvar), parity: u64| {
        let (m, cv) = cell;
        let mut turn = m.lock().expect("calibration mutex");
        while *turn % 2 != parity {
            turn = cv.wait(turn).expect("calibration mutex");
        }
        *turn += 1;
        // Unlock before waking, as the fabric's mailbox does: a peer
        // woken under the lock would block on it at once.
        drop(turn);
        cv.notify_one();
    };
    std::thread::scope(|s| {
        let peer = Arc::clone(&cell);
        s.spawn(move || {
            if let Some(cpu) = peer_cpu {
                sys::set_affinity(cpu);
            }
            for _ in 0..total {
                pass(&peer, 1);
            }
        });
        (0..batches)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..per_batch {
                    pass(&cell, 0);
                }
                t.elapsed().as_secs_f64() * 1e6 / per_batch as f64
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("32K"), Some(32 << 10));
        assert_eq!(parse_size("8M"), Some(8 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn pinning_is_read_back_and_inherited() {
        let pin = Pinning::detect();
        let Some(cpu) = pin.cpu() else {
            return; // affinity unavailable on this platform
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(pin.pin(), Some(vec![cpu]));
                // A thread spawned after pinning starts on the same CPU.
                let child = std::thread::scope(|s| s.spawn(current_affinity).join().unwrap());
                assert_eq!(child, Some(vec![cpu]));
            });
        });
    }

    #[test]
    fn process_accounting_is_plausible() {
        if let Some((user, sys)) = cpu_times() {
            assert!(user >= 0.0 && sys >= 0.0);
        }
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.1, "peak RSS {mb} MiB");
        }
    }

    #[test]
    fn calibration_loops_return_positive_numbers() {
        assert!(memcpy1m_gbps(4) > 0.0);
        assert!(atomic_inc_ns(1000) > 0.0);
        for peer_cpu in [None, Pinning::detect().allowed.last().copied()] {
            let rt = condvar_rt_us(peer_cpu, 3, 10);
            assert_eq!(rt.len(), 3);
            assert!(rt.iter().all(|&v| v > 0.0));
        }
    }
}
