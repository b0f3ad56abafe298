//! # phi-rsa
//!
//! RSA over pluggable big-number backends — the layer of the PhiOpenSSL
//! reproduction that corresponds to OpenSSL's `rsa/` directory.
//!
//! * [`key`] — key material: [`RsaPublicKey`], [`RsaPrivateKey`], key
//!   generation on top of `phi_bigint::prime`, consistency validation.
//! * [`ops`] — the raw (`RSAEP`/`RSADP`) modular operations, generic over
//!   any [`Libcrypto`](phi_mont::Libcrypto): the private operation runs the
//!   Chinese Remainder Theorem with all multiplications delegated to the
//!   selected library, and optional multiplicative blinding. For
//!   batch-shaped server loads, [`RsaBatchService`] serves one key's
//!   private operations from `phi_rt`'s offload fleet (N ≥ 1 modeled
//!   cards, one by default): built by [`RsaBatchService::new_fleet`],
//!   redeemed through [`RsaTicket`]s, and reported in one
//!   [`FleetReport`](phi_rt::FleetReport).
//! * [`padding`] — PKCS#1 v1.5 (encryption and signatures), OAEP and PSS.
//! * [`der`] — PKCS#1 ASN.1 DER encoding/decoding of key material.
//!
//! The same RSA code therefore runs over the vectorized PhiOpenSSL
//! library and both scalar baselines — exactly the comparison the paper's
//! RSA experiments make.
//!
//! ```
//! use phi_rsa::key::RsaPrivateKey;
//! use phi_rsa::ops::RsaOps;
//! use phiopenssl::PhiLibrary;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let key = RsaPrivateKey::generate(&mut rng, 512).unwrap();
//! let ops = RsaOps::new(Box::new(PhiLibrary::default()));
//! let msg = b"attack at dawn";
//! let ct = ops.encrypt_pkcs1v15(&mut rng, key.public(), msg).unwrap();
//! assert_eq!(ops.decrypt_pkcs1v15(&key, &ct).unwrap(), msg);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blinding;
pub mod der;
pub mod error;
pub mod fast_prime;
pub mod key;
pub mod ops;
pub mod padding;
pub mod pem;

pub use error::RsaError;
pub use key::{RsaPrivateKey, RsaPublicKey, DEFAULT_PUBLIC_EXPONENT};
pub use ops::{RsaBatchService, RsaOps, RsaTicket};
