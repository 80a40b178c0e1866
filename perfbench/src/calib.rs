//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host, and that host
//! switches between a fast and a slow state every second or so: on the
//! 2-vCPU VM this was built on, the same computation took 1.4–1.6×
//! longer in the slow state, whatever it was (JSON parsing, file reads,
//! allocation, thread wake-ups), and which state held most of the time
//! changed over tens of minutes. A latency median then jumps by up to
//! half between runs of the same build. Our own load does not cause it:
//! a computation on one vCPU runs at the same speed whether the other
//! is idle or spinning.
//!
//! So while a load block runs, a [`Sampler`] thread times a fixed
//! reference computation ([`kernel`]) every [`EVERY`], in thread CPU
//! time so that waiting for a core behind the benchmark's own threads
//! does not count. Each measured operation is then scaled to the host
//! speed at which the kernel takes [`REFERENCE_MS`], using the samples
//! around it ([`Speed::over`]). The kernel uses only the standard
//! library, so no change to the program under test can move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::run::median;
use crate::sys;

/// The kernel's median CPU time on the 2-vCPU VM the benchmark was built
/// on, under the benchmark's load.
pub const REFERENCE_MS: f64 = 0.47;

/// Time between two kernel samples (a sample costs about 1.5% of a core).
pub const EVERY: Duration = Duration::from_millis(30);

/// How far around an operation its samples are taken from.
const SLACK: Duration = Duration::from_millis(100);

/// One pass of the reference computation: text formatting and float
/// parsing, an ordered map of strings, an integer sort and a small dense
/// matrix product — the kinds of work a served job spends its time on
/// (JSON, allocation, LP arithmetic). Returns its thread CPU time in ms.
pub fn kernel() -> f64 {
    let cpu0 = sys::thread_cpu_ms();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut text = String::new();
    for i in 0..400 {
        text.push_str(&format!(
            "{{\"k{i}\":{:.6},",
            (next() % 100_000) as f64 / 7.0
        ));
    }
    let mut sum = 0.0;
    let mut keys = BTreeMap::new();
    for token in text.split([',', ':']) {
        let token = token.trim_matches(['{', '}']);
        match token.parse::<f64>() {
            Ok(v) => sum += v,
            Err(_) => {
                keys.insert(token.to_string(), sum);
            }
        }
    }
    let mut ints: Vec<u64> = (0..4000).map(|i| next() ^ i).collect();
    ints.sort_unstable();
    const N: usize = 24;
    let mut m = [[0.0f64; N]; N];
    for (i, row) in m.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = ((i * 31 + j * 17) % 11) as f64 + 0.5;
        }
    }
    let mut acc = 0.0;
    for _ in 0..6 {
        for i in 0..N {
            for j in 0..N {
                acc += (0..N).map(|k| m[i][k] * m[k][j]).sum::<f64>() * 1e-9;
            }
        }
        m[0][0] = black_box(m[0][0]);
    }
    black_box((sum, keys.len(), ints[7], acc));
    sys::thread_cpu_ms() - cpu0
}

/// A thread that samples [`kernel`] every [`EVERY`] until finished.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    join: JoinHandle<Vec<(Instant, f64)>>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                samples.push((Instant::now(), kernel()));
                std::thread::park_timeout(EVERY);
            }
            samples
        });
        Sampler { stop, join }
    }

    /// Stop sampling and wait for the thread.
    pub fn finish(self) -> Speed {
        self.stop.store(true, Ordering::SeqCst);
        self.join.thread().unpark();
        Speed {
            samples: self.join.join().unwrap_or_default(),
        }
    }
}

/// The kernel samples of one load block, in time order.
#[derive(Default)]
pub struct Speed {
    samples: Vec<(Instant, f64)>,
}

impl Speed {
    /// How much faster than the reference the host ran an operation that
    /// started at `at` and took `ms`: [`REFERENCE_MS`] over the median of
    /// the kernel samples from [`SLACK`] before it to [`SLACK`] after.
    /// Multiplying the operation's time by it gives its time at the
    /// reference speed. 1 when nothing was sampled.
    pub fn over(&self, at: Instant, ms: f64) -> f64 {
        let from = at.checked_sub(SLACK).unwrap_or(at);
        let to = at + Duration::from_secs_f64(ms.max(0.0) / 1000.0) + SLACK;
        let lo = self.samples.partition_point(|(t, _)| *t < from);
        let hi = self.samples.partition_point(|(t, _)| *t <= to);
        let window: Vec<f64> = self.samples[lo..hi].iter().map(|(_, k)| *k).collect();
        let kernel = if window.is_empty() {
            self.kernel_ms()
        } else {
            median(&window)
        };
        if kernel > 0.0 {
            REFERENCE_MS / kernel
        } else {
            1.0
        }
    }

    /// Median of every sample, in ms (0 when nothing was sampled).
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples.iter().map(|(_, k)| *k).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_operation_is_scaled_by_the_samples_around_it() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Slow host (twice the reference) for the first second, then at
        // the reference speed.
        let samples = (0..40)
            .map(|k| {
                let kernel = if k < 20 { 2.0 } else { 1.0 } * REFERENCE_MS;
                (at(50 * k), kernel)
            })
            .collect();
        let speed = Speed { samples };
        assert!((speed.over(at(300), 10.0) - 0.5).abs() < 1e-9);
        assert!((speed.over(at(1600), 10.0) - 1.0).abs() < 1e-9);
        // Long after the last sample: the block's median.
        let all = speed.over(at(60_000), 1.0);
        assert!((0.5..=1.0).contains(&all));
        assert_eq!(Speed::default().over(t0, 1.0), 1.0);
    }

    #[test]
    fn the_kernel_takes_cpu_time() {
        assert!(kernel() > 0.0);
    }
}
