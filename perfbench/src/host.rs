//! Provenance recorded with every result, and the process's peak memory.
//!
//! Host facts come from the kernel's read-only views of this process and
//! machine (`/proc/self/status`, `/proc/meminfo`, the sysfs cache
//! description); every lookup degrades to "unknown" rather than failing.

use lts_sem::simd;

/// Environment variables that change what is measured: `LTS_SIMD` downgrades
/// the stiffness kernel, `LTS_FLIGHT` the flight-recorder default.
pub const OVERRIDES: [&str; 2] = ["LTS_SIMD", "LTS_FLIGHT"];

/// One `key: value` line per fact, in a fixed order.
pub fn provenance(seed: u64, malloc_pinned: bool) -> Vec<(&'static str, String)> {
    let llc = llc_bytes().map_or("unknown".to_string(), |b| format!("{} MiB", b >> 20));
    let mem = mem_total_bytes().map_or("unknown".to_string(), |b| format!("{} MiB", b >> 20));
    vec![
        ("nproc", nproc().to_string()),
        ("cpu_features", simd::cpu_features().to_string()),
        ("kernel_variant", simd::active().name().to_string()),
        ("llc", llc),
        ("memory", mem),
        ("git_commit", git_commit()),
        (
            "malloc_policy",
            if malloc_pinned {
                format!(
                    "mmap threshold {} MiB, trim threshold {} MiB",
                    MMAP_THRESHOLD_BYTES >> 20,
                    TRIM_THRESHOLD_BYTES >> 20
                )
            } else {
                "allocator default (not pinned)".to_string()
            },
        ),
        ("seed", seed.to_string()),
    ]
}

/// A loud warning for every set override: results taken under one are not
/// comparable with results taken without it.
pub fn override_warnings() -> Vec<String> {
    OVERRIDES
        .iter()
        .filter_map(|&k| std::env::var(k).ok().map(|v| (k, v)))
        .map(|(k, v)| {
            format!(
                "WARNING: {k}={v} is set; compare this run only with runs made under \
                 the same setting"
            )
        })
        .collect()
}

/// glibc's largest mmap threshold (32 MiB on 64-bit hosts): smaller
/// allocations, which is all of the solvers' arrays, come from the heap.
const MMAP_THRESHOLD_BYTES: i32 = 32 << 20;
/// Free heap memory above this stays with the process instead of going
/// back to the kernel.
const TRIM_THRESHOLD_BYTES: i32 = 1 << 30;

/// Fix glibc malloc's policy so every solve after the warm-up reuses the
/// heap the warm-up faulted in. Left alone, glibc adapts its mmap and trim
/// thresholds to the frees it has seen, and where that switch happened
/// differed from process to process: serial `setup_s` read 0.018 s in some
/// runs and 0.042 s in others, peak memory 155 MB against 134 MB. With the
/// thresholds fixed the allocation pattern, and so both numbers, repeat,
/// and page-fault cost (set by the host, not the program) stays out of the
/// timed solves. Returns whether the policy was set.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_malloc_policy() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores an allocator tunable under malloc's own
    // lock; it takes plain integers and touches no memory of ours.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1
            && mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_malloc_policy() -> bool {
    false
}

/// Rotates a single-threaded workload's solves over the CPUs this process
/// may use, one CPU per solve, and restores the full set when dropped.
///
/// A single-threaded process otherwise stays on one vCPU for its whole
/// life, and on this host one vCPU at a time sees contention bursts from
/// other tenants: the same serial solve ran at 25 ms per step on one vCPU
/// and 26–43 ms on the other, so a run's numbers depended on where the
/// scheduler first put it. Rotating lets every run see every CPU.
pub struct CpuRotation {
    cpus: Vec<usize>,
}

impl CpuRotation {
    /// A rotation over the calling thread's allowed CPUs; empty (pinning
    /// nothing) where affinity is unavailable or there is one CPU.
    pub fn new() -> CpuRotation {
        let cpus = affinity::get();
        CpuRotation {
            cpus: if cpus.len() > 1 { cpus } else { Vec::new() },
        }
    }

    /// Pin the calling thread to the `i`-th CPU of the rotation.
    pub fn pin(&self, i: usize) {
        if !self.cpus.is_empty() {
            affinity::set(&[self.cpus[i % self.cpus.len()]]);
        }
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if !self.cpus.is_empty() {
            affinity::set(&self.cpus);
        }
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: 1024 CPU bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The calling thread's allowed CPUs, ascending; empty on failure.
    pub fn get() -> Vec<usize> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer and
        // the size passed is exactly its size; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        if rc != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restrict the calling thread to `cpus`; whether it took effect.
    pub fn set(cpus: &[usize]) -> bool {
        let mut mask: CpuSet = [0; 16];
        for &c in cpus.iter().filter(|&&c| c < 1024) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a live `cpu_set_t`-sized buffer and the size
        // passed is exactly its size; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn get() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_cpus: &[usize]) -> bool {
        false
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the last-level (L3) cache, if the host describes it.
pub fn llc_bytes() -> Option<u64> {
    let s = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    parse_size(s.trim())
}

/// Peak resident set of this process so far (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_field("/proc/self/status", "VmHWM:")
}

fn mem_total_bytes() -> Option<u64> {
    proc_field("/proc/meminfo", "MemTotal:")
}

/// A `Key:   1234 kB` line of a procfs file, in bytes.
fn proc_field(path: &str, key: &str) -> Option<u64> {
    let s = std::fs::read_to_string(path).ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// `"300M"`, `"32768K"`, `"1G"` or plain bytes.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// The commit of the checkout, when it is a git work tree with git on the
/// path; "unknown" otherwise (benchmark checkouts need not be repositories).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_suffixes() {
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("32768K"), Some(32768 << 10));
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn cpu_rotation_pins_and_restores() {
        let before = affinity::get();
        {
            let rot = CpuRotation::new();
            rot.pin(1);
            if before.len() > 1 {
                assert_eq!(affinity::get(), vec![before[1]]);
            }
        }
        assert_eq!(affinity::get(), before);
    }

    #[test]
    fn provenance_names_seed_and_kernel() {
        let p = provenance(7, false);
        assert!(p.iter().any(|(k, v)| *k == "seed" && v == "7"));
        assert!(p.iter().any(|(k, _)| *k == "kernel_variant"));
    }
}
