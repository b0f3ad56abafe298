//! # phi-bigint
//!
//! Arbitrary-precision unsigned and signed integer arithmetic, written from
//! scratch as the substrate equivalent of OpenSSL's `BN` library for the
//! PhiOpenSSL reproduction.
//!
//! The crate provides:
//!
//! * [`BigUint`] — an arbitrary-precision unsigned integer over little-endian
//!   `u64` limbs, with schoolbook and Karatsuba multiplication, dedicated
//!   squaring, Knuth Algorithm D division, shifts and bit operations, and
//!   hex / decimal / big-endian-byte conversions.
//! * [`BigInt`] — a thin signed wrapper used by the extended GCD.
//! * Number-theoretic routines: [`BigUint::gcd`], [`BigUint::mod_inverse`],
//!   [`BigUint::inverse_mod_pow2`] (the Montgomery `N′`),
//!   [`BigUint::mod_exp`], Miller–Rabin primality testing and prime
//!   generation (see the [`prime`] module).
//! * Random generation of uniform values and fixed-bit-length candidates
//!   (see the [`rand_ext`] module).
//!
//! Everything here is plain word-level code: it serves both as the reference
//! implementation that the vectorized PhiOpenSSL kernels are tested against
//! and as the arithmetic engine behind the scalar baseline libraries.
//!
//! ## Example
//!
//! ```
//! use phi_bigint::BigUint;
//!
//! let a = BigUint::from_hex("ffffffffffffffff").unwrap();
//! let b = BigUint::from(2u64);
//! assert_eq!((&a * &b).to_hex(), "1fffffffffffffffe");
//!
//! let m = BigUint::from(97u64);
//! let x = BigUint::from(5u64);
//! // Fermat: x^(m-1) = 1 mod prime m
//! assert_eq!(x.mod_exp(&BigUint::from(96u64), &m), BigUint::one());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bigint;
pub mod biguint;
pub mod error;
pub mod limb;
pub mod prime;
pub mod rand_ext;

pub use crate::bigint::{BigInt, Sign};
pub use crate::biguint::BigUint;
pub use crate::error::BigIntError;
pub use crate::limb::{Limb, LIMB_BITS};
