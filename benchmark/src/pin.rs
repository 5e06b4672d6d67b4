//! Moving the measuring thread between CPUs on purpose.
//!
//! On a shared VM each vCPU sits on a host core whose speed changes every
//! few seconds between a few discrete levels (turbo or not, a busy
//! sibling hyperthread or not; 25-75 % apart), and the guest scheduler
//! leaves a single-threaded workload on one vCPU for seconds at a time,
//! so a run's op times come from whichever levels that vCPU happened to
//! have. A [`CpuRotation`] pins the measuring thread to each of two CPUs
//! in turn, so every run samples both; the live workload pins its server
//! and its MUs with [`set_affinity`] so that their placement is not the
//! guest scheduler's choice either.

use std::time::{Duration, Instant};

/// How long the thread stays on one CPU during a measured window. Long
/// enough that the cold-cache ops after a move are few, short enough
/// that a window visits each CPU many times.
pub const SLICE: Duration = Duration::from_millis(250);

extern "C" {
    /// `sched_setaffinity(2)` from the C library std already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the CPU mask handed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// Restricts the calling thread, and every thread it spawns from now
/// on, to `cpus`; `false` when the kernel refuses (or a CPU number is
/// beyond the mask).
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        let Some(word) = mask.get_mut(cpu / 64) else {
            return false;
        };
        *word |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialised array of exactly the byte
    // length passed; the kernel only reads it. Pid 0 names the calling
    // thread, so no other thread's state is touched.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The CPU numbers of a `Cpus_allowed_list:` value such as `0-1` or
/// `0,2-3,8`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
        if lo > hi || hi >= MASK_WORDS * 64 {
            return None;
        }
        cpus.extend(lo..=hi);
    }
    Some(cpus)
}

/// The CPUs this thread may run on, from `/proc/thread-self/status`.
pub fn allowed_cpus() -> Option<Vec<usize>> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    parse_cpu_list(line)
}

/// Pins the calling thread to one of two CPUs at a time; dropping it
/// gives the thread its original CPUs back.
pub struct CpuRotation {
    /// Every CPU the thread could use when the rotation began.
    original: Vec<usize>,
    /// The CPUs rotated over: two, or none when the rotation is off.
    cpus: Vec<usize>,
    at: usize,
    since: Instant,
}

impl CpuRotation {
    /// A rotation over the first two CPUs the thread may use. With `on`
    /// false, with fewer than two CPUs, or where the kernel refuses the
    /// first pin, it does nothing.
    pub fn new(on: bool) -> Self {
        let original = allowed_cpus().unwrap_or_default();
        let mut cpus: Vec<usize> = original.iter().copied().take(2).collect();
        if !on || cpus.len() < 2 || !set_affinity(&cpus[..1]) {
            cpus.clear();
        }
        CpuRotation {
            original,
            cpus,
            at: 0,
            since: Instant::now(),
        }
    }

    /// Whether the thread is actually being moved.
    pub fn is_on(&self) -> bool {
        !self.cpus.is_empty()
    }

    /// Moves to the next CPU now.
    pub fn advance(&mut self) {
        if self.is_on() {
            self.at = (self.at + 1) % self.cpus.len();
            // A refused pin leaves the thread where it was.
            set_affinity(&self.cpus[self.at..=self.at]);
        }
        self.since = Instant::now();
    }

    /// Moves to the next CPU if the current one has had its [`SLICE`].
    /// Call between ops.
    pub fn tick(&mut self) {
        if self.since.elapsed() >= SLICE {
            self.advance();
        }
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if self.is_on() {
            set_affinity(&self.original);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("\t0,2-4,8"), Some(vec![0, 2, 3, 4, 8]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list("4-2"), None);
        assert_eq!(parse_cpu_list("0-99999"), None);
        assert_eq!(parse_cpu_list("x"), None);
    }

    #[test]
    fn a_rotation_that_is_off_leaves_the_thread_alone() {
        let before = allowed_cpus();
        let mut r = CpuRotation::new(false);
        assert!(!r.is_on());
        r.advance();
        r.tick();
        assert_eq!(allowed_cpus(), before);
    }

    #[test]
    fn a_rotation_returns_the_thread_its_cpus() {
        let before = allowed_cpus();
        let mut r = CpuRotation::new(true);
        if r.is_on() {
            r.advance();
            assert_eq!(allowed_cpus(), Some(vec![r.cpus[1]]));
            r.advance();
            assert_eq!(allowed_cpus(), Some(vec![r.cpus[0]]));
        }
        drop(r);
        assert_eq!(allowed_cpus(), before);
    }
}
