//! What every workload shares: the run configuration, the sample collector,
//! the round loop's clock, `/proc` readers and the seeded input generator.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// One invocation: a single workload, measured for `seconds`.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch root (`benchmark/out/tmp/...`); everything a workload writes
    /// lives under it and is removed when the run ends.
    pub tmp: PathBuf,
    /// The `critter-serve` binary under test.
    pub serve_bin: PathBuf,
}

/// Fewest rounds of a run: `setup_s` is a median and needs three samples.
const MIN_ROUNDS: usize = 3;

/// Samples and checks collected over the rounds of one run.
///
/// A round sets the workload up afresh (one `setup_s` sample), then times a
/// fixed number of operations. Rounds repeat until the timed operations alone
/// have covered `Config::seconds`, so the state an operation sees (history
/// length of a store, job count of a daemon) is the same in every run however
/// fast the machine is. In a traced run every second round carries spans and
/// observability; the ratio to the rounds between them is the tracing overhead.
pub struct Run<'a> {
    pub cfg: &'a Config,
    /// Records spans in a traced run; `off` never does.
    pub tracer: &'a Tracer,
    off: &'a Tracer,
    pub round: usize,
    pub setup_s: Vec<f64>,
    pub op_ms: Vec<f64>,
    pub traced_op_ms: Vec<f64>,
    /// Wall and CPU seconds of the untraced timed segments, and the
    /// operations completed in them.
    pub window_s: f64,
    pub window_cpu_s: f64,
    pub window_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Per-layer values the workload itself produced (counts and ratios).
    pub layer: BTreeMap<&'static str, f64>,
    /// Peak RSS of a child process under test, when the workload has one.
    pub child_rss_kib: u64,
    measured: Duration,
}

impl<'a> Run<'a> {
    pub fn new(cfg: &'a Config, tracer: &'a Tracer, off: &'a Tracer) -> Self {
        Run {
            cfg,
            tracer,
            off,
            round: 0,
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            traced_op_ms: Vec::new(),
            window_s: 0.0,
            window_cpu_s: 0.0,
            window_ops: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            layer: BTreeMap::new(),
            child_rss_kib: 0,
            measured: Duration::ZERO,
        }
    }

    /// Start the next round if the timed operations have not yet covered the
    /// requested seconds. Returns whether the round carries tracing.
    pub fn next_round(&mut self) -> Option<bool> {
        if self.round >= MIN_ROUNDS && self.measured.as_secs_f64() >= self.cfg.seconds {
            return None;
        }
        self.round += 1;
        Some(self.cfg.trace && self.round.is_multiple_of(2))
    }

    /// The tracer of a round: untraced rounds of a traced run record nothing.
    pub fn tracer_for(&self, traced: bool) -> &'a Tracer {
        if traced {
            self.tracer
        } else {
            self.off
        }
    }

    pub fn record_setup(&mut self, started: Instant) {
        self.setup_s.push(started.elapsed().as_secs_f64());
    }

    /// Account one timed segment: `ops` operations completed between
    /// `started` and now, using `cpu_s` CPU seconds of the process under test.
    pub fn record_segment(&mut self, traced: bool, started: Instant, cpu_s: f64, ops: u64) {
        let wall = started.elapsed();
        self.measured += wall;
        if !traced {
            self.window_s += wall.as_secs_f64();
            self.window_cpu_s += cpu_s;
            self.window_ops += ops;
        }
    }

    pub fn record_op(&mut self, traced: bool, ms: f64) {
        if traced {
            self.traced_op_ms.push(ms);
        } else {
            self.op_ms.push(ms);
        }
    }

    /// Count one checked operation; a violation goes into the failure share.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }
}

/// Milliseconds since `started`.
pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// A value of `/proc/<pid>/status` in KiB (`VmHWM`, `VmRSS`); 0 if unreadable.
pub fn proc_status_kib(pid: &str, key: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(':')))
                .and_then(|r| r.split_whitespace().next().and_then(|n| n.parse().ok()))
        })
        .unwrap_or(0)
}

/// User plus system CPU seconds a process has used, threads and reaped
/// children's threads included. `/proc/<pid>/stat` counts in clock ticks, 100 a second on
/// Linux; the name field may hold spaces, so fields are counted from the
/// closing parenthesis.
pub fn proc_cpu_s(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
            Some(ticks as f64 / 100.0)
        })
        .unwrap_or(0.0)
}

/// Bytes of all regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else { return 0 };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// SplitMix64: the generator behind every seeded input of the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_shuffles_a_permutation() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(3).shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
        let u = Rng::new(1).unit();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(proc_status_kib("self", "VmHWM") > 0);
        assert!(proc_cpu_s("self") >= 0.0);
        assert_eq!(proc_status_kib("self", "NoSuchKey"), 0);
    }
}
