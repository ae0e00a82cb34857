//! What the machine was doing: two fixed probes timed between blocks (so
//! a loud run can be told from a slow program), peak RSS, and the machine
//! context every result file records.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::stats;

/// Bytes the memory probe walks over (well past L2 on the design host).
const MEM_PROBE_BYTES: usize = 8 << 20;
/// Dependent loads per memory probe.
const MEM_PROBE_STEPS: usize = 4_096;
/// Iterations of the ALU probe.
const CPU_PROBE_STEPS: u64 = 100_000;

/// The two probes and their per-core samples.
pub struct Probes {
    /// A single random cycle through `MEM_PROBE_BYTES / 8` slots.
    ring: Vec<u64>,
    cursor: u64,
    cpu_us: [Vec<f64>; 2],
    mem_us: [Vec<f64>; 2],
}

impl Probes {
    pub fn new() -> Probes {
        // Sattolo's algorithm: one cycle covering every slot, so the walk
        // cannot fall into a short, cache-resident loop. Fixed seed — the
        // probe is the same work on every run.
        let slots = MEM_PROBE_BYTES / std::mem::size_of::<u64>();
        let mut ring: Vec<u64> = (0..slots as u64).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..slots).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ring.swap(i, (state % i as u64) as usize);
        }
        Probes {
            ring,
            cursor: 0,
            cpu_us: [Vec::new(), Vec::new()],
            mem_us: [Vec::new(), Vec::new()],
        }
    }

    /// Runs both probes once, crediting the samples to `core`.
    pub fn sample(&mut self, core: usize) {
        let started = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..CPU_PROBE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        self.cpu_us[core].push(started.elapsed().as_secs_f64() * 1e6);

        let started = Instant::now();
        let mut at = self.cursor;
        for _ in 0..MEM_PROBE_STEPS {
            at = self.ring[at as usize];
        }
        self.cursor = black_box(at);
        self.mem_us[core].push(started.elapsed().as_secs_f64() * 1e6);
    }

    fn core_estimate(samples: &[Vec<f64>; 2]) -> [Option<f64>; 2] {
        // The 25th percentile: what the probe costs when the host leaves
        // it alone, without resting on a single lucky sample.
        [0, 1].map(|c| stats::quantile(&samples[c], 0.25))
    }

    /// `(host.cpu_probe_us, host.mem_probe_us, host.core_gap)`: each probe
    /// on its better core, and how much slower the ALU probe read on the
    /// other one (1.0 with a single core).
    pub fn summary(&self) -> (f64, f64, f64) {
        let cpu = Self::core_estimate(&self.cpu_us);
        let mem = Self::core_estimate(&self.mem_us);
        let cpu_best = stats::better_of(cpu[0], cpu[1], false).unwrap_or(0.0);
        let mem_best = stats::better_of(mem[0], mem[1], false).unwrap_or(0.0);
        let gap = match (cpu[0], cpu[1]) {
            (Some(a), Some(b)) => a.max(b) / a.min(b).max(1e-12),
            _ => 1.0,
        };
        (cpu_best, mem_best, gap)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Machine context recorded in every result file.
pub struct Context {
    pub nproc: usize,
    pub rustc: String,
    pub profile: &'static str,
    pub commit: String,
}

impl Context {
    pub fn capture() -> Context {
        Context {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            rustc: command_line("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (lto=thin, codegen-units=1)"
            },
            commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
        }
    }
}
