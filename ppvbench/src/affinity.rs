//! One core at a time: confining the client thread and every server
//! thread to a single CPU, and swapping CPUs as the run goes.
//!
//! On the 2-vCPU shared host this benchmark was designed on, a thread
//! wake-up that crosses vCPUs costs 25–50 µs — more than a whole pinned
//! cache hit — so unpinned µs-scale numbers measure the hypervisor. The
//! remedy is `sched_setaffinity` on every thread of the process (threads
//! inherit the mask of the thread that spawns them, so pinning the
//! caller *before* `serve()` covers acceptors and connection threads),
//! and a swap to the other core every second so a loud stretch on one
//! vCPU cannot own a whole run.
//!
//! Std-only: the two libc symbols are declared here; std already links
//! libc on Linux. Off Linux every call is a no-op and the run is simply
//! unpinned.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the pinned set moves to the other core.
pub const SWAP_EVERY: Duration = Duration::from_secs(1);

/// `cpu_set_t`: 1024 bits.
pub type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }

    pub fn get(tid: i32) -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable 128-byte buffer and the size
        // passed is exactly its size; the kernel writes at most that many
        // bytes. `tid` 0 means the calling thread; any other value is only
        // looked up, never dereferenced.
        let rc = unsafe { sched_getaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub fn set(tid: i32, set: &CpuSet) -> bool {
        // SAFETY: `set` is a live, readable 128-byte buffer and the size
        // passed is exactly its size; the kernel only reads it.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }

    /// Thread ids of this process, from `/proc/self/task`.
    pub fn thread_ids() -> Vec<i32> {
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return Vec::new();
        };
        dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
            .collect()
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub fn get(_tid: i32) -> Option<CpuSet> {
        None
    }
    pub fn set(_tid: i32, _set: &CpuSet) -> bool {
        false
    }
    pub fn thread_ids() -> Vec<i32> {
        Vec::new()
    }
}

fn single(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1u64 << (cpu % 64);
    set
}

fn cpus_of(set: &CpuSet) -> Vec<usize> {
    (0..1024)
        .filter(|&c| set[c / 64] & (1u64 << (c % 64)) != 0)
        .collect()
}

/// Confines the calling thread to `cpu` (threads it spawns inherit that).
/// For threads other than the one that owns the [`Pinner`]; the pinner's
/// `restore` puts them back with everything else.
pub fn pin_current_thread(cpu: usize) {
    sys::set(0, &single(cpu));
}

/// The calling thread's affinity mask (`None` where unsupported).
pub fn current_mask() -> Option<CpuSet> {
    sys::get(0)
}

/// Number of threads this process has right now (1 where `/proc` is not
/// available).
pub fn thread_count() -> usize {
    sys::thread_ids().len().max(1)
}

/// Blocks until this process is down to `at_most` threads or `limit`
/// passes; returns whether it got there. Connection threads of the
/// product are detached, so "joined" can only be observed this way.
pub fn wait_for_threads(at_most: usize, limit: Duration) -> bool {
    let deadline = Instant::now() + limit;
    loop {
        if thread_count() <= at_most {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Which of the two cores a side is on; shared so a second thread (the
/// writer of `update_serve`) can tag its samples.
#[derive(Clone)]
pub struct CoreCell(Arc<AtomicUsize>);

impl CoreCell {
    /// Index (0 or 1) of the core the *reader* side is on.
    pub fn reader(&self) -> usize {
        self.0.load(Ordering::Acquire)
    }
}

/// Owns the process's pinning for one run and puts every thread back on
/// the original mask when dropped — on return, on `?`, and on unwind.
pub struct Pinner {
    /// The two cores in use (equal when the host allows only one).
    cores: [usize; 2],
    original: Option<CpuSet>,
    reader: Arc<AtomicUsize>,
    last_swap: Instant,
    /// Whether any thread but the caller was ever moved (decides how far
    /// `restore` has to reach).
    moved_others: bool,
}

impl Pinner {
    /// Reads the calling thread's mask and picks its first two CPUs.
    /// Nothing is pinned yet.
    pub fn new() -> Pinner {
        let original = current_mask();
        let allowed = original.as_ref().map(cpus_of).unwrap_or_default();
        let cores = match allowed.as_slice() {
            [] => [0, 0],
            [only] => [*only, *only],
            [a, b, ..] => [*a, *b],
        };
        Pinner {
            cores,
            original,
            reader: Arc::new(AtomicUsize::new(0)),
            last_swap: Instant::now(),
            moved_others: false,
        }
    }

    /// Whether two distinct cores are available.
    pub fn two_cores(&self) -> bool {
        self.cores[0] != self.cores[1]
    }

    /// The CPU number behind core index `idx`.
    pub fn cpu(&self, idx: usize) -> usize {
        self.cores[idx]
    }

    /// A handle other threads can read the reader side's core from.
    pub fn cell(&self) -> CoreCell {
        CoreCell(Arc::clone(&self.reader))
    }

    /// Index of the core the reader side (the calling thread) is on.
    pub fn core(&self) -> usize {
        self.reader.load(Ordering::Acquire)
    }

    /// Confines the calling thread alone to core `idx`: what the guard
    /// tests pin with, so tests running in parallel leave each other's
    /// threads alone.
    #[cfg(test)]
    fn pin_self(&mut self, idx: usize) {
        if self.original.is_some() {
            sys::set(0, &single(self.cores[idx]));
        }
    }

    /// Confines every thread of the process to core `idx` and restarts
    /// the swap clock.
    pub fn pin_all(&mut self, idx: usize) {
        if self.original.is_some() {
            self.moved_others = true;
            let set = single(self.cores[idx]);
            for tid in sys::thread_ids() {
                sys::set(tid, &set);
            }
        }
        self.reader.store(idx, Ordering::Release);
        self.last_swap = Instant::now();
    }

    /// Moves every thread to the other core.
    pub fn swap_all(&mut self) {
        self.pin_all(1 - self.core());
    }

    /// Two-sided swap: every thread pinned to one of the two cores moves
    /// to the other one, so a reader side and a writer side trade places.
    /// Threads with any other mask are left alone.
    pub fn swap_sides(&mut self) {
        if self.original.is_some() && self.two_cores() {
            self.moved_others = true;
            let sets = [single(self.cores[0]), single(self.cores[1])];
            for tid in sys::thread_ids() {
                match sys::get(tid) {
                    Some(m) if m == sets[0] => sys::set(tid, &sets[1]),
                    Some(m) if m == sets[1] => sys::set(tid, &sets[0]),
                    _ => false,
                };
            }
        }
        self.reader.store(1 - self.core(), Ordering::Release);
        self.last_swap = Instant::now();
    }

    /// Restarts the swap clock without moving anything: the current core
    /// gets a full [`SWAP_EVERY`] from now.
    pub fn stay(&mut self) {
        self.last_swap = Instant::now();
    }

    /// Whether [`SWAP_EVERY`] has passed since the last swap.
    pub fn swap_due(&self) -> bool {
        self.last_swap.elapsed() >= SWAP_EVERY
    }

    /// Puts every thread back on the mask the process started with.
    /// Idempotent; also what `Drop` does.
    pub fn restore(&mut self) {
        if let Some(original) = self.original.take() {
            if self.moved_others {
                for tid in sys::thread_ids() {
                    sys::set(tid, &original);
                }
            }
            sys::set(0, &original);
        }
    }
}

impl Drop for Pinner {
    fn drop(&mut self) {
        self.restore();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each test pins a thread of its own so tests running in parallel
    /// cannot see each other's masks (`pin_self` only touches the caller).
    fn on_own_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::spawn(f).join().expect("test thread")
    }

    fn pinned_scope(exit: u8) -> Result<(), String> {
        let mut p = Pinner::new();
        p.pin_self(0);
        if let Some(m) = current_mask() {
            assert_eq!(cpus_of(&m).len(), 1, "pin_self confines to one core");
        }
        match exit {
            0 => Ok(()),
            1 => Err("early return".into()),
            _ => panic!("unwind"),
        }
    }

    #[test]
    fn guard_restores_mask_on_return_error_and_unwind() {
        on_own_thread(|| {
            let before = current_mask();
            assert!(pinned_scope(0).is_ok());
            assert_eq!(current_mask(), before, "normal return");
            assert!(pinned_scope(1).is_err());
            assert_eq!(current_mask(), before, "error return");
            let unwound = std::panic::catch_unwind(|| pinned_scope(2));
            assert!(unwound.is_err());
            assert_eq!(current_mask(), before, "unwind");
        });
    }

    #[test]
    fn restore_is_idempotent() {
        on_own_thread(|| {
            let before = current_mask();
            let mut p = Pinner::new();
            p.pin_self(1);
            p.restore();
            p.restore();
            assert_eq!(current_mask(), before);
            drop(p);
            assert_eq!(current_mask(), before);
        });
    }

    #[test]
    fn single_and_cpus_round_trip() {
        for cpu in [0usize, 1, 63, 64, 700] {
            assert_eq!(cpus_of(&single(cpu)), vec![cpu]);
        }
    }
}
