//! The workspace's one FNV-1a implementation: a streaming 64-bit hasher
//! behind every at-rest and on-wire checksum (`.fgb` sections, durable
//! checkpoint frames, sync-payload and wire-batch framing).

/// FNV-1a offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The standard 64-bit FNV prime (2^40 + 0x1b3).
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a: feed bytes in any number of [`update`](Self::update)
/// calls; the digest only depends on the concatenated byte stream.
///
/// ```
/// use flash_graph::hash::{fnv1a, Fnv1a};
/// let mut h = Fnv1a::new();
/// h.update(b"FC");
/// h.update(b"K1");
/// assert_eq!(h.finish(), fnv1a(b"FCK1"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a {
    hash: u64,
    prime: u64,
}

impl Fnv1a {
    /// A hasher with the standard prime.
    pub fn new() -> Self {
        Self::with_prime(PRIME)
    }

    /// A hasher multiplying by `prime` instead of the standard one — for
    /// checksums whose published values predate this module and must not
    /// change (see `flash_runtime::fault::payload_checksum`).
    pub fn with_prime(prime: u64) -> Self {
        Fnv1a {
            hash: OFFSET,
            prime,
        }
    }

    /// Folds `bytes` into the digest.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let prime = self.prime;
        self.hash = bytes
            .iter()
            .fold(self.hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(prime));
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a (standard prime) over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        // From the FNV reference distribution (64-bit FNV-1a).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_is_split_invariant() {
        let data: Vec<u8> = (0..=255).collect();
        for cut in [0, 1, 17, 255, 256] {
            let mut h = Fnv1a::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), fnv1a(&data), "cut at {cut}");
        }
        // A different prime is a different function.
        let mut other = Fnv1a::with_prime(0x1000_0000_01b3);
        other.update(&data);
        assert_ne!(other.finish(), fnv1a(&data));
    }
}
