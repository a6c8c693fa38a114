//! The workspace's content-key hash, shared by the simulation cache
//! ([`crate::simcache`]), the point pool's trace-identity digests
//! ([`crate::pool`]) and the benchmark's point runner.

/// 64-bit FNV-1a over a string — the workspace's content-key filename
/// hash. Not cryptographic; collisions are tolerated because the cache
/// keeps the full key inside each entry and checks it on load.
pub fn fnv1a_64(s: &str) -> u64 {
    fnv1a_64_bytes(s.as_bytes())
}

/// [`fnv1a_64`] over raw bytes.
pub fn fnv1a_64_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a 64 of the empty string is the offset basis.
        assert_eq!(fnv1a_64(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_64("a"), fnv1a_64("b"));
        assert_eq!(fnv1a_64("ab"), fnv1a_64_bytes(b"ab"));
    }
}
