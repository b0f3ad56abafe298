//! Seeded inputs, built before any timed window and outside `setup_s`.
//!
//! Key generation is a fixture, not server work: a deployment loads an
//! existing key. The key is handed to the measured set-up as PKCS#1 PEM
//! bytes, so `setup_s` starts from "have the key bytes".

use phi_bigint::BigUint;
use phi_rsa::RsaPrivateKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct streams derived from the one `--seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A key plus a pool of known plaintext/ciphertext pairs under it.
pub struct Fixture {
    pub key: RsaPrivateKey,
    pub pem: String,
    /// `(m, c)` with `c = m^e mod n`, computed by the reference
    /// `BigUint::mod_exp`, not by the library under test.
    pub pool: Vec<(BigUint, BigUint)>,
}

impl Fixture {
    pub fn new(seed: u64, bits: u32, pool_size: usize) -> Fixture {
        let mut r = rng(seed, u64::from(bits));
        let key = RsaPrivateKey::generate(&mut r, bits).expect("seeded key generation");
        let pem = key.to_pkcs1_pem();
        let (n, e) = (key.public().n(), key.public().e());
        let mut bytes = vec![0u8; (bits / 8 - 1) as usize];
        let pool = (0..pool_size)
            .map(|_| {
                r.fill(&mut bytes[..]);
                bytes[0] |= 0x80;
                let m = BigUint::from_bytes_be(&bytes);
                let c = m.mod_exp(e, n);
                (m, c)
            })
            .collect();
        Fixture { key, pem, pool }
    }

    /// The pair request `i` uses.
    pub fn pair(&self, i: usize) -> &(BigUint, BigUint) {
        &self.pool[i % self.pool.len()]
    }
}

/// The first step of every set-up: parse the key bytes.
pub fn parse_key(pem: &str) -> RsaPrivateKey {
    RsaPrivateKey::from_pkcs1_pem(pem).expect("fixture PEM parses")
}
