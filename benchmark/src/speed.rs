//! Timing at a reference machine speed.
//!
//! On a shared machine the same work takes one of two times, about 1.6
//! apart (a cold patricia optimize: about 550 or about 880 ms), switching
//! within seconds, and the share of slow time changes from one minute to
//! the next. Raw medians of two sets of runs minutes apart differed by
//! 40 %. Each CPU switches on its own, so the benchmark runs on one CPU
//! (`product::pin_to_one_cpu`, inherited by every process it starts), and
//! a calibration timed on that CPU right before and right after each
//! operation measures the speed the operation saw. Unpinned, the two
//! would often run on different CPUs and calibration would not help.
//!
//! The calibration is compiler work much like the optimizer's: the
//! bundled bitcnts, crc and dijkstra compiled by `gpa_minicc`, the input
//! generator, which the optimizer does not use. An operation's CPU time
//! is scaled by `REFERENCE_MS / calibration`; its waiting (a delayed ACK,
//! process start-up sleeps) is kept as measured. Over 20-second windows
//! the median of the scaled times of one repeated optimize moved by about
//! 4 % where the raw median moved by 28 %.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use gpa_minicc::Options;

/// The calibration's time at the reference speed: about its fast-state
/// time on the two-vCPU Xeon machine the bounds were set on.
pub const REFERENCE_MS: f64 = 4.0;

const KERNELS: [&str; 3] = ["bitcnts", "crc", "dijkstra"];

/// The calibration workload.
pub struct Speed {
    sources: Vec<&'static str>,
    /// Held while calibrating: two client threads on one CPU would
    /// otherwise time each other.
    running: Mutex<()>,
}

/// What one operation cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Wall time from start to end.
    pub wall_ms: f64,
    /// The part of `wall_ms` the product spent on the CPU.
    pub cpu_ms: f64,
    /// The calibration's time around the operation (mean of before and
    /// after).
    pub calibration_ms: f64,
}

impl Timing {
    /// The operation's time had the CPU run at the reference speed.
    pub fn scaled_ms(&self) -> f64 {
        let cpu = self.cpu_ms.min(self.wall_ms);
        self.wall_ms - cpu + cpu * REFERENCE_MS / self.calibration_ms
    }
}

impl Speed {
    /// Loads the calibration's sources and runs it once to warm up.
    pub fn new() -> Result<Speed, String> {
        let sources = KERNELS
            .iter()
            .map(|k| gpa_minicc::programs::source(k).ok_or(format!("unknown kernel {k}")))
            .collect::<Result<Vec<_>, _>>()?;
        let speed = Speed {
            sources,
            running: Mutex::new(()),
        };
        speed.calibrate();
        Ok(speed)
    }

    /// Times one calibration, in ms.
    pub fn calibrate(&self) -> f64 {
        let _running = self.running.lock().expect("calibration panicked");
        let start = Instant::now();
        for source in &self.sources {
            let image = gpa_minicc::compile(black_box(source), &Options::default());
            black_box(image.map(|i| i.to_bytes().len()).unwrap_or(0));
        }
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Runs `op` between two calibrations and times it. `cpu_s` reads the
    /// CPU time, in s, of whatever does the operation's work; `None` means
    /// the whole wall time is CPU work on this CPU.
    pub fn timed<T>(&self, cpu_s: Option<&dyn Fn() -> f64>, op: impl FnOnce() -> T) -> (T, Timing) {
        let before = self.calibrate();
        let cpu_start = cpu_s.map_or(0.0, |f| f());
        let start = Instant::now();
        let out = op();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = cpu_s.map_or(wall_ms, |f| (f() - cpu_start) * 1e3);
        let after = self.calibrate();
        let timing = Timing {
            wall_ms,
            cpu_ms,
            calibration_ms: (before + after) / 2.0,
        };
        (out, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_cpu_time_is_scaled() {
        let slow = Timing {
            wall_ms: 100.0,
            cpu_ms: 60.0,
            calibration_ms: 2.0 * REFERENCE_MS,
        };
        assert_eq!(slow.scaled_ms(), 40.0 + 30.0);
        let waiting = Timing {
            cpu_ms: 0.0,
            ..slow
        };
        assert_eq!(waiting.scaled_ms(), 100.0);
        // CPU time read a little above the wall time counts as all of it.
        let over = Timing {
            cpu_ms: 101.0,
            ..slow
        };
        assert_eq!(over.scaled_ms(), 50.0);
    }

    #[test]
    fn calibration_takes_milliseconds() {
        let speed = Speed::new().unwrap();
        let ms = speed.calibrate();
        assert!(ms > 0.1 && ms < 1000.0, "{ms}");
        let (value, t) = speed.timed(None, || 7);
        assert_eq!(value, 7);
        assert_eq!(t.cpu_ms, t.wall_ms);
        assert!(t.calibration_ms > 0.0);
    }
}
