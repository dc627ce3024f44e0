//! Stable FNV-1a/128 hashing.
//!
//! Addresses that outlive a process — `gpa::image_cache_key`, which
//! names an optimization result on disk, and the golden fingerprints of
//! the test suites — must not depend on the process, the platform or
//! `HashMap` seeding, so they hash with this fixed FNV-1a/128 instead of
//! `DefaultHasher`.

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// An incremental FNV-1a/128 hasher over byte streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128::new()
    }
}

impl Fnv128 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv128 {
        Fnv128(FNV_OFFSET)
    }

    /// Absorbs a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u128 {
        self.0
    }
}
