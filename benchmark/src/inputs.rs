//! Seeded inputs: every image and request the workloads send is a pure
//! function of `--seed`. The program under test receives only the
//! generated images.
//!
//! A run sends a prefix of its plan: as many operations as fit in
//! `--seconds`. Each plan holds more operations than any run can send,
//! and a longer plan extends a shorter one, so two commits that send
//! different counts still draw them from the same sequence, and the
//! manifest hash (over the whole plan) shows that.

use gpa_image::Image;
use gpa_minicc::edits::{apply_edits, EditConfig};
use gpa_minicc::Options;

/// The bundled kernels whose cold Edgar run takes well under a second.
pub const SMALL_KERNELS: [&str; 5] = ["bitcnts", "crc", "dijkstra", "patricia", "search"];

/// The serve workloads' kernels: the small kernels whose requests the
/// daemon answers in about 0.2 s.
pub const SERVE_KERNELS: [&str; 3] = ["bitcnts", "crc", "dijkstra"];

/// How many operations a plan holds per second of `--seconds`: several
/// times what the fastest operation of each workload allows today, so
/// that a run stops at its time limit, not at the end of its plan.
const COLD_CYCLES_PER_S: f64 = 2.0;
const BATCH_CYCLES_PER_S: f64 = 2.0;
const EDIT_REQUESTS_PER_S: f64 = 20.0;
const HOT_REQUESTS_PER_S: f64 = 2000.0;

/// SplitMix64: one seeded stream of draws per purpose.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, kept apart from other purposes by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// 64-bit FNV-1a over everything a run may send, printed as the manifest
/// hash so two commits can be shown to have run on identical inputs.
#[derive(Clone, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// How one input image is made from a bundled kernel: an optional
/// one-statement edit, then compilation with a scheduler seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    pub kernel: &'static str,
    pub edit_seed: Option<u64>,
    pub sched_seed: u64,
}

impl Spec {
    /// The bundled image of `kernel`: no edit, scheduler seed 0.
    pub fn base(kernel: &'static str) -> Spec {
        Spec {
            kernel,
            edit_seed: None,
            sched_seed: 0,
        }
    }

    pub fn build(&self) -> Result<Image, String> {
        let source = gpa_minicc::programs::source(self.kernel)
            .ok_or_else(|| format!("unknown kernel {}", self.kernel))?;
        let source = match self.edit_seed {
            Some(seed) => apply_edits(source, &EditConfig { edits: 1, seed }),
            None => source.to_owned(),
        };
        let options = Options {
            schedule: true,
            sched_seed: self.sched_seed,
        };
        gpa_minicc::compile(&source, &options).map_err(|e| format!("{}: {e}", self.label()))
    }

    /// A file-name-safe label, unique per spec.
    pub fn label(&self) -> String {
        match self.edit_seed {
            Some(e) => format!("{}-e{e:016x}-s{:016x}", self.kernel, self.sched_seed),
            None => format!("{}-s{:016x}", self.kernel, self.sched_seed),
        }
    }
}

/// Which kind of operation a request is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A bundled image, optimized in a cold process (cold-edgar).
    Base,
    /// An image sent before.
    Resubmit,
    /// A primed kernel with one statement edit.
    Edit,
    /// A primed kernel compiled with another scheduler seed.
    Variant,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Base, Class::Resubmit, Class::Edit, Class::Variant];
}

/// One operation a user waits for: which connection sends it (for the
/// serve workloads), and which input it sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    pub conn: usize,
    pub input: usize,
    pub class: Class,
}

/// Everything a workload may send. The first `bases` specs are the
/// bundled images the set-up prepares (for the serve workloads, the
/// primed ones); `requests` are the cold-edgar and serve operations in
/// order, `batches` the inputs of each batch-variants operation.
#[derive(Clone, Debug, Default)]
pub struct Plan {
    pub specs: Vec<Spec>,
    pub bases: usize,
    pub requests: Vec<Request>,
    pub batches: Vec<Vec<usize>>,
}

impl Plan {
    fn with_bases(kernels: &[&'static str]) -> Plan {
        Plan {
            specs: kernels.iter().map(|&k| Spec::base(k)).collect(),
            bases: kernels.len(),
            ..Plan::default()
        }
    }

    /// Compiles every input.
    pub fn build(&self) -> Result<Vec<Image>, String> {
        self.specs.iter().map(Spec::build).collect()
    }

    /// FNV-1a over every input image plus the request and batch
    /// sequences.
    pub fn manifest<'a>(&self, images: impl IntoIterator<Item = &'a [u8]>) -> u64 {
        let mut fnv = Fnv::default();
        for image in images {
            fnv.write(image);
        }
        for r in &self.requests {
            fnv.write(&[r.conn as u8, r.class as u8]);
            fnv.write(&(r.input as u64).to_le_bytes());
        }
        for batch in &self.batches {
            fnv.write(&(batch.len() as u64).to_le_bytes());
            for &i in batch {
                fnv.write(&(i as u64).to_le_bytes());
            }
        }
        fnv.finish()
    }
}

/// Operations for `seconds` at `per_s` a second, at least one.
fn capacity(seconds: f64, per_s: f64) -> usize {
    (seconds * per_s).ceil().max(1.0) as usize
}

/// cold-edgar: the five small kernels' bundled images, in cycles that
/// each send every image once in a seeded order. The images are the same
/// for every seed: the run's latency percentiles fall between kernels,
/// where another scheduler seed's few per cent on one kernel would show.
pub fn cold_plan(seed: u64, seconds: f64) -> Plan {
    let mut plan = Plan::with_bases(&SMALL_KERNELS);
    let mut rng = Rng::new(seed, 1);
    for _ in 0..capacity(seconds, COLD_CYCLES_PER_S) {
        let mut cycle: Vec<usize> = (0..plan.bases).collect();
        rng.shuffle(&mut cycle);
        plan.requests.extend(cycle.into_iter().map(|input| Request {
            conn: 0,
            input,
            class: Class::Base,
        }));
    }
    plan
}

/// batch-variants: batches of two, a small kernel's bundled image and a
/// new one-statement edit of it, in cycles that each send every kernel
/// once in a seeded order.
pub fn batch_plan(seed: u64, seconds: f64) -> Plan {
    let mut plan = Plan::with_bases(&SMALL_KERNELS);
    let mut rng = Rng::new(seed, 2);
    for _ in 0..capacity(seconds, BATCH_CYCLES_PER_S) {
        let mut cycle: Vec<usize> = (0..plan.bases).collect();
        rng.shuffle(&mut cycle);
        for base in cycle {
            plan.specs.push(Spec {
                edit_seed: Some(rng.next_u64()),
                ..plan.specs[base]
            });
            plan.batches.push(vec![base, plan.specs.len() - 1]);
        }
    }
    plan
}

/// serve-edits: requests on one connection. Each block of ten holds
/// exactly 3 resubmissions of an image sent before, 6 one-edit variants
/// and 1 scheduler variant of a primed kernel, in seeded order; the
/// kernels take turns.
pub fn edits_plan(seed: u64, seconds: f64) -> Plan {
    let mut plan = Plan::with_bases(&SERVE_KERNELS);
    let mut rng = Rng::new(seed, 4);
    let mut block = Vec::new();
    for i in 0..capacity(seconds, EDIT_REQUESTS_PER_S) {
        if block.is_empty() {
            block = vec![Class::Resubmit; 3];
            block.extend([Class::Edit; 6]);
            block.push(Class::Variant);
            rng.shuffle(&mut block);
        }
        let class = block.pop().expect("refilled above");
        let base = plan.specs[i % plan.bases];
        let draw = rng.next_u64();
        let input = match class {
            Class::Edit | Class::Variant => {
                plan.specs.push(match class {
                    Class::Edit => Spec {
                        edit_seed: Some(draw),
                        ..base
                    },
                    _ => Spec {
                        sched_seed: draw,
                        ..base
                    },
                });
                plan.specs.len() - 1
            }
            _ => (draw % plan.specs.len() as u64) as usize,
        };
        plan.requests.push(Request {
            conn: 0,
            input,
            class,
        });
    }
    plan
}

/// serve-hot: resubmissions of the primed images on each of two
/// connections, alternating in the plan.
pub fn hot_plan(seed: u64, seconds: f64) -> Plan {
    let mut plan = Plan::with_bases(&SERVE_KERNELS);
    let mut rngs = [Rng::new(seed, 10), Rng::new(seed, 11)];
    for _ in 0..capacity(seconds, HOT_REQUESTS_PER_S) {
        for (conn, rng) in rngs.iter_mut().enumerate() {
            plan.requests.push(Request {
                conn,
                input: rng.below(plan.bases),
                class: Class::Resubmit,
            });
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    /// The same seed gives the same manifest, and another seed another.
    #[test]
    fn same_seed_same_manifest_and_another_seed_another() {
        for workload in Workload::ALL {
            let manifest = |seed| {
                let plan = workload.plan(seed, 2.0);
                let bytes: Vec<Vec<u8>> =
                    plan.build().unwrap().iter().map(Image::to_bytes).collect();
                plan.manifest(bytes.iter().map(Vec::as_slice))
            };
            let a = manifest(7);
            assert_eq!(a, manifest(7), "{}", workload.name());
            assert_ne!(a, manifest(8), "{}", workload.name());
        }
    }

    /// A longer run sends more of the same sequence.
    #[test]
    fn a_longer_plan_extends_a_shorter_one() {
        for workload in Workload::ALL {
            let short = workload.plan(5, 1.0);
            let long = workload.plan(5, 3.0);
            assert!(
                long.requests.len() + long.batches.len()
                    > short.requests.len() + short.batches.len()
            );
            assert!(long.specs.starts_with(&short.specs), "{}", workload.name());
            assert!(
                long.requests.starts_with(&short.requests),
                "{}",
                workload.name()
            );
            assert!(
                long.batches.starts_with(&short.batches),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn edit_plan_keeps_the_mix_in_every_block() {
        let plan = edits_plan(3, 5.0);
        assert_eq!(plan.requests.len(), 100);
        for block in plan.requests.chunks(10) {
            let count = |c| block.iter().filter(|r| r.class == c).count();
            assert_eq!(
                Class::ALL.map(count),
                [0, 3, 6, 1],
                "base, resubmit, edit, variant"
            );
        }
        for (i, r) in plan.requests.iter().enumerate() {
            // A resubmission refers to an image already sent or primed.
            let sent_before = SERVE_KERNELS.len()
                + plan.requests[..i]
                    .iter()
                    .filter(|r| r.class != Class::Resubmit)
                    .count();
            assert!(r.input < sent_before || r.class != Class::Resubmit);
        }
    }

    #[test]
    fn cycles_send_every_bundled_image_once() {
        let plan = cold_plan(9, 2.0);
        assert_eq!(plan.specs.len(), SMALL_KERNELS.len());
        for cycle in plan.requests.chunks(SMALL_KERNELS.len()) {
            let mut inputs: Vec<usize> = cycle.iter().map(|r| r.input).collect();
            inputs.sort_unstable();
            assert_eq!(inputs, [0, 1, 2, 3, 4]);
        }
        let plan = batch_plan(9, 2.0);
        for cycle in plan.batches.chunks(SMALL_KERNELS.len()) {
            let mut bases: Vec<usize> = cycle.iter().map(|b| b[0]).collect();
            bases.sort_unstable();
            assert_eq!(bases, [0, 1, 2, 3, 4]);
            for batch in cycle {
                // The second image is a new edit of the first's kernel.
                let (base, edit) = (plan.specs[batch[0]], plan.specs[batch[1]]);
                assert_eq!(edit.kernel, base.kernel);
                assert!(base.edit_seed.is_none() && edit.edit_seed.is_some());
            }
        }
        let bundled = gpa_minicc::compile(
            gpa_minicc::programs::source("crc").unwrap(),
            &Options::default(),
        )
        .unwrap();
        assert_eq!(
            Spec::base("crc").build().unwrap().to_bytes(),
            bundled.to_bytes()
        );
    }
}
