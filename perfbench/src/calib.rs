//! Host-speed calibration: a fixed kernel, owned by the benchmark, timed
//! next to the measured operations so that timings can be restated at a
//! reference host speed.
//!
//! The benchmark shares its cores with other tenants, whose load changes the
//! speed of the same code by up to 2.6x over minutes (a design job took
//! 0.21-0.36 s in one process and whole passes 2.8-7.4 s across an hour).
//! The process's CPU time tracks its wall time through that drift, so it is
//! slower execution, not time off the CPU, and no aggregation inside a run
//! removes it. The kernel below uses none of the repository's code, so its
//! time moves only with the host: a job timed at wall `t` next to a kernel
//! reading `k` took `t * REF_S / k` at the reference speed, and a change to
//! the program still moves that figure in full.

use crate::rng::SplitMix;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seconds one [`kernel`] call takes at the reference speed: about its
/// median between design jobs on the 2-vCPU Xeon (KVM guest) the benchmark
/// was tuned on.
pub const REF_S: f64 = 5.0e-4;

/// The calibration kernel: a fixed mix of the work the design stack does —
/// a Runge-Kutta rollout of a cubic 3-D field, truncated products of short
/// coefficient vectors (allocated per call), ordered-map inserts and
/// look-ups, and a sort. Returns a checksum so nothing is optimised away.
///
/// The mix was chosen by how well it tracked the workloads on the tuning
/// host, as the pass-to-pass coefficient of variation of the pass walls
/// across runs: restated with it, 3.5-4.6% against 7.9-8.9% as measured on
/// `design_acc`, 5.3% against 7.1% on `design_nn` and 8.8% against 10.1% on
/// `serve_mix`. Allocation churn alone tracked `design_acc` better
/// (2.3-3.4%) but left `design_nn` (8.1%) and `serve_mix` (10.8%) worse
/// than measured, and dependent loads over an 8 MiB table left `design_acc`
/// at 9.4%.
#[must_use]
pub fn kernel() -> u64 {
    let mut sum = 0u64;
    // Floating point: RK4 on x' = y, y' = z, z' = -x - y - z^3 + x*y.
    let f = |s: [f64; 3]| {
        [
            s[1],
            s[2],
            -s[0] - s[1] - s[2] * s[2] * s[2] + 0.1 * s[0] * s[1],
        ]
    };
    let mut s = [0.3, -0.2, 0.1];
    let h = 1e-3;
    for _ in 0..1500 {
        let k1 = f(s);
        let k2 = f([
            s[0] + 0.5 * h * k1[0],
            s[1] + 0.5 * h * k1[1],
            s[2] + 0.5 * h * k1[2],
        ]);
        let k3 = f([
            s[0] + 0.5 * h * k2[0],
            s[1] + 0.5 * h * k2[1],
            s[2] + 0.5 * h * k2[2],
        ]);
        let k4 = f([s[0] + h * k3[0], s[1] + h * k3[1], s[2] + h * k3[2]]);
        for i in 0..3 {
            s[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }
    sum ^= s.iter().map(|v| v.to_bits()).fold(0, u64::wrapping_add);
    // Allocation and short dense loops: truncated polynomial products.
    let mut rng = SplitMix::new(7, 0xCA1B);
    let mut acc = [0.0f64; 16];
    for _ in 0..200 {
        let a: Vec<f64> = (0..16).map(|_| rng.unit() - 0.5).collect();
        let b: Vec<f64> = (0..16).map(|_| rng.unit() - 0.5).collect();
        let mut c = vec![0.0f64; 16];
        for (i, ai) in a.iter().enumerate() {
            for (j, bj) in b.iter().take(16 - i).enumerate() {
                c[i + j] += ai * bj;
            }
        }
        for (x, y) in acc.iter_mut().zip(&c) {
            *x = 0.5 * *x + y;
        }
    }
    sum ^= acc.iter().map(|v| v.to_bits()).fold(0, u64::wrapping_add);
    // Branchy pointer work: an ordered map.
    let mut map = BTreeMap::new();
    for i in 0..1500u64 {
        map.insert(rng.next_u64() % 4096, i);
    }
    for _ in 0..1500 {
        if let Some((k, v)) = map.range(rng.next_u64() % 4096..).next() {
            sum = sum.wrapping_add(k ^ v);
        }
    }
    // A sort of floats.
    let mut v: Vec<f64> = (0..1500).map(|_| rng.unit()).collect();
    v.sort_by(f64::total_cmp);
    sum.wrapping_add(v[750].to_bits())
}

/// Times one kernel call, in seconds.
#[must_use]
pub fn sample() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// One speed reading: the median of `n` kernel timings, in seconds.
#[must_use]
pub fn probe(n: usize) -> f64 {
    let v: Vec<f64> = (0..n.max(1)).map(|_| sample()).collect();
    crate::stats::median(&v)
}

/// One speed reading of every core: `threads` threads each take a reading
/// of `n` kernel calls at the same time; the result is their mean.
#[must_use]
pub fn probe_all(threads: usize, n: usize) -> f64 {
    let threads = threads.max(1);
    let sum: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(|| probe(n))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .sum()
    });
    sum / threads as f64
}

/// CPU seconds the calling thread has run, where the platform gives them.
#[cfg(target_os = "linux")]
fn thread_cpu_s() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields on
    // 64-bit Linux) through a pointer to a live, writable value.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_s() -> Option<f64> {
    None
}

/// A CPU affinity mask over up to 1024 CPUs.
#[cfg(target_os = "linux")]
type CpuMask = [u64; 16];

/// The `/proc` stat file of the calling thread, so another thread can see
/// which CPU it is on.
#[cfg(target_os = "linux")]
fn own_stat_path() -> Option<std::path::PathBuf> {
    let task = std::fs::read_link("/proc/thread-self").ok()?;
    Some(std::path::Path::new("/proc").join(task).join("stat"))
}

/// The CPU the thread with stat file `path` last ran on (field 39).
#[cfg(target_os = "linux")]
fn cpu_of(path: &std::path::Path) -> Option<usize> {
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(39 - 3)?.parse().ok()
}

/// Moves the calling thread onto `cpu` alone; false where refused.
#[cfg(target_os = "linux")]
fn move_to(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
    }
    if cpu >= 1024 {
        return false;
    }
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; `one` is a live mask of the size
    // passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &one) == 0 }
}

/// Keeps the sampling thread on the CPU a followed thread is on, checking
/// before each reading. The followed thread itself stays free to move.
struct Follow {
    #[cfg(target_os = "linux")]
    path: Option<std::path::PathBuf>,
    #[cfg(target_os = "linux")]
    on: Option<usize>,
}

impl Follow {
    /// Follows the calling thread when `follow` is set.
    fn caller(follow: bool) -> Self {
        #[cfg(not(target_os = "linux"))]
        let _ = follow;
        Self {
            #[cfg(target_os = "linux")]
            path: if follow { own_stat_path() } else { None },
            #[cfg(target_os = "linux")]
            on: None,
        }
    }

    /// Moves the sampling thread to the followed thread's CPU.
    fn catch_up(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(cpu) = self.path.as_deref().and_then(cpu_of) {
            if self.on != Some(cpu) && move_to(cpu) {
                self.on = Some(cpu);
            }
        }
    }
}

/// One reading by a [`Sampler`]: seconds since the sampler started, and
/// the kernel call's time.
pub type Reading = (f64, f64);

/// Readings taken by a thread of their own while the program runs: one
/// kernel call every `every`, timed in the sampling thread's CPU time (wall
/// time where the platform has no thread clock), so time the sampler waits
/// for a core the program holds does not count, while a slower host does.
pub struct Sampler {
    origin: Instant,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<Reading>>,
}

impl Sampler {
    /// Starts sampling. With `follow`, each reading is taken on the CPU
    /// the calling thread is on at that moment, so a single-threaded
    /// workload is read on its own CPU; otherwise the sampler runs where the
    /// scheduler puts it.
    #[must_use]
    pub fn start(every: Duration, follow: bool) -> Self {
        let origin = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let mut follow = Follow::caller(follow);
        let handle = std::thread::spawn(move || {
            let mut readings = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(every);
                follow.catch_up();
                let (cpu, wall) = (thread_cpu_s(), Instant::now());
                std::hint::black_box(kernel());
                let took = match (cpu, thread_cpu_s()) {
                    (Some(a), Some(b)) => b - a,
                    _ => wall.elapsed().as_secs_f64(),
                };
                readings.push((wall.duration_since(origin).as_secs_f64(), took));
            }
            readings
        });
        Self {
            origin,
            stop,
            handle,
        }
    }

    /// Seconds since the sampler started, on the readings' clock.
    #[must_use]
    pub fn elapsed(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Stops sampling, waits for the thread and returns its readings; one
    /// reading taken here when the thread took none.
    #[must_use]
    pub fn finish(self) -> Vec<Reading> {
        self.stop.store(true, Ordering::Relaxed);
        let mut readings = self.handle.join().expect("sampler thread panicked");
        if readings.is_empty() {
            readings.push((self.origin.elapsed().as_secs_f64(), probe(3)));
        }
        readings
    }
}

/// Readings behind each restated operation, at least.
const NEAREST: usize = 6;

/// The reading for an operation that ran from `from` to `to` seconds on
/// the sampler's clock: the median of the readings taken meanwhile, or of
/// the [`NEAREST`] readings nearest its middle when fewer were taken. One
/// reading jitters by tens of per cent, while the host's speed stays
/// correlated over about 0.4 s.
#[must_use]
pub fn during(readings: &[Reading], from: f64, to: f64) -> f64 {
    let inside: Vec<f64> = readings
        .iter()
        .filter(|r| (from..=to).contains(&r.0))
        .map(|r| r.1)
        .collect();
    if inside.len() >= NEAREST {
        return crate::stats::median(&inside);
    }
    let mid = 0.5 * (from + to);
    let mut near: Vec<&Reading> = readings.iter().collect();
    near.sort_by(|a, b| (a.0 - mid).abs().total_cmp(&(b.0 - mid).abs()));
    let near: Vec<f64> = near.iter().take(NEAREST).map(|r| r.1).collect();
    crate::stats::median(&near)
}

/// Restates `t` seconds, measured while a kernel call took `k` seconds, at
/// the reference speed.
#[must_use]
pub fn at_ref(t: f64, k: f64) -> f64 {
    t * REF_S / k
}

/// The run record's account of the speed readings: the set-up reading and
/// the median, quartiles and count of the readings taken while measuring.
#[must_use]
pub fn readings_json(setup_k: f64, readings: &[f64]) -> String {
    use crate::stats::{quantile, Obj};
    let mut o = Obj::new();
    o.num("reference", REF_S)
        .num("setup", setup_k)
        .num("median", quantile(readings, 0.5))
        .num("q1", quantile(readings, 0.25))
        .num("q3", quantile(readings, 0.75))
        .int("readings", readings.len() as u64);
    o.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn during_takes_the_readings_of_an_operation() {
        let r: Vec<Reading> = (0..20).map(|i| (f64::from(i), f64::from(i))).collect();
        // Seven readings inside: their median.
        assert_eq!(during(&r, 2.0, 8.0), 5.0);
        // Two inside: the six nearest the middle, 3..=8.
        assert_eq!(during(&r, 5.0, 6.0), 5.5);
        assert_eq!(during(&r[..2], 0.0, 0.5), 0.5);
        assert_eq!(at_ref(2.0, 2.0 * REF_S), 1.0);
    }

    #[test]
    fn sampler_reads_on_the_followed_cpu() {
        let s = Sampler::start(Duration::from_millis(1), true);
        std::thread::sleep(Duration::from_millis(20));
        let r = s.finish();
        assert!(!r.is_empty());
        assert!(r.iter().all(|&(t, k)| t >= 0.0 && k > 0.0));
        #[cfg(target_os = "linux")]
        {
            let me = own_stat_path().expect("own stat file");
            assert!(cpu_of(&me).is_some());
        }
    }
}
