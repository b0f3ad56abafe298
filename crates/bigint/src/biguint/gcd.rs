//! GCD, extended GCD, and modular inverses.

use super::BigUint;
use crate::bigint::{BigInt, Sign};
use crate::error::BigIntError;
use crate::limb::LIMB_BITS;

impl BigUint {
    /// Greatest common divisor by the binary (Stein) algorithm.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let za = a.trailing_zeros().unwrap();
        let zb = b.trailing_zeros().unwrap();
        let common = za.min(zb);
        a >>= za;
        b >>= zb;
        loop {
            debug_assert!(a.is_odd() && b.is_odd());
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b -= &a;
            if b.is_zero() {
                return a << common;
            }
            b >>= b.trailing_zeros().unwrap();
        }
    }

    /// Extended GCD: returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
    pub fn extended_gcd(&self, other: &BigUint) -> (BigUint, BigInt, BigInt) {
        let mut r0 = BigInt::from(self.clone());
        let mut r1 = BigInt::from(other.clone());
        let mut s0 = BigInt::one();
        let mut s1 = BigInt::zero();
        let mut t0 = BigInt::zero();
        let mut t1 = BigInt::one();
        while !r1.is_zero() {
            let q: BigInt = {
                let (q, _) = r0.magnitude().div_rem(r1.magnitude()).expect("r1 nonzero");
                // Signs: r0, r1 stay non-negative through the classic loop.
                BigInt::from(q)
            };
            let r2 = &r0 - &(&q * &r1);
            let s2 = &s0 - &(&q * &s1);
            let t2 = &t0 - &(&q * &t1);
            r0 = r1;
            r1 = r2;
            s0 = s1;
            s1 = s2;
            t0 = t1;
            t1 = t2;
        }
        debug_assert_eq!(r0.sign(), Sign::Plus);
        (r0.into_magnitude(), s0, t0)
    }

    /// Modular inverse: the `x` in `[1, m)` with `self * x ≡ 1 (mod m)`.
    pub fn mod_inverse(&self, m: &BigUint) -> Result<BigUint, BigIntError> {
        if m.is_zero() {
            return Err(BigIntError::DivisionByZero);
        }
        let a = self.rem_ref(m)?;
        if a.is_zero() {
            return Err(BigIntError::NotInvertible);
        }
        let (g, x, _) = a.extended_gcd(m);
        if !g.is_one() {
            return Err(BigIntError::NotInvertible);
        }
        Ok(x.rem_euclid(m))
    }

    /// Inverse of an odd `self` modulo `2^bits`: the `x` in `[0, 2^bits)`
    /// with `self·x ≡ 1 (mod 2^bits)` — the Montgomery `N′` of a
    /// power-of-two radix.
    ///
    /// Newton–Hensel lifting: a word inverse, then `x ← x·(2 − self·x)
    /// mod 2^prec` with `prec` doubling up to `bits`. Each step doubles
    /// the correct low bits at the price of two truncated products, where
    /// [`mod_inverse`](Self::mod_inverse)'s extended Euclid takes a
    /// division per quotient step.
    ///
    /// # Panics
    ///
    /// If `self` is even: no inverse exists for `bits ≥ 1`.
    pub fn inverse_mod_pow2(&self, bits: u32) -> BigUint {
        assert!(self.is_odd(), "only odd values are invertible mod 2^bits");
        let n0 = self.limbs[0];
        // Every odd n is its own inverse mod 2^3; five steps reach 96 bits.
        let mut x = n0;
        for _ in 0..5 {
            x = x.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(x)));
        }
        let mut inv = BigUint::from(x);
        let mut prec = LIMB_BITS;
        while prec < bits {
            prec = prec.saturating_mul(2).min(bits);
            // Only the low `prec` bits of self reach the truncated product.
            let limbs = (prec.div_ceil(LIMB_BITS) as usize).min(self.limbs.len());
            let mut nx = &BigUint::from_limbs(self.limbs[..limbs].to_vec()) * &inv;
            nx.mask_low_bits(prec);
            // 2 − n·x (mod 2^prec), kept non-negative since n·x < 2^prec.
            let two_minus_nx = &(&BigUint::power_of_two(prec) + &BigUint::from(2u64)) - &nx;
            inv = &inv * &two_minus_nx;
            inv.mask_low_bits(prec);
        }
        inv.mask_low_bits(bits);
        inv
    }

    /// Least common multiple. Returns zero if either operand is zero.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let g = self.gcd(other);
        &(self / &g) * other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gcd_small() {
        let g = BigUint::from(48u64).gcd(&BigUint::from(36u64));
        assert_eq!(g.to_u64(), Some(12));
    }

    #[test]
    fn gcd_with_zero() {
        let a = BigUint::from(7u64);
        assert_eq!(a.gcd(&BigUint::zero()), a);
        assert_eq!(BigUint::zero().gcd(&a), a);
        assert_eq!(BigUint::zero().gcd(&BigUint::zero()), BigUint::zero());
    }

    #[test]
    fn gcd_coprime() {
        let g = BigUint::from(17u64).gcd(&BigUint::from(31u64));
        assert!(g.is_one());
    }

    #[test]
    fn gcd_powers_of_two() {
        let a = BigUint::power_of_two(100);
        let b = BigUint::power_of_two(64);
        assert_eq!(a.gcd(&b), b);
    }

    #[test]
    fn gcd_is_symmetric_and_divides() {
        let a = BigUint::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        let b = BigUint::from_hex("fedcba98765432100123456789abcdef").unwrap();
        let g = a.gcd(&b);
        assert_eq!(g, b.gcd(&a));
        assert!((&a % &g).is_zero());
        assert!((&b % &g).is_zero());
    }

    #[test]
    fn extended_gcd_bezout_identity() {
        let a = BigUint::from(240u64);
        let b = BigUint::from(46u64);
        let (g, x, y) = a.extended_gcd(&b);
        assert_eq!(g.to_u64(), Some(2));
        let lhs = &(&BigInt::from(a) * &x) + &(&BigInt::from(b) * &y);
        assert_eq!(lhs, BigInt::from(g));
    }

    #[test]
    fn extended_gcd_large() {
        let a = BigUint::from_hex("deadbeefcafebabe1234567890abcdef").unwrap();
        let b = BigUint::from_hex("badc0ffee0ddf00d").unwrap();
        let (g, x, y) = a.extended_gcd(&b);
        let lhs = &(&BigInt::from(a.clone()) * &x) + &(&BigInt::from(b.clone()) * &y);
        assert_eq!(lhs, BigInt::from(g.clone()));
        assert!((&a % &g).is_zero());
        assert!((&b % &g).is_zero());
    }

    #[test]
    fn mod_inverse_small() {
        let inv = BigUint::from(3u64)
            .mod_inverse(&BigUint::from(7u64))
            .unwrap();
        assert_eq!(inv.to_u64(), Some(5)); // 3*5 = 15 ≡ 1 mod 7
    }

    #[test]
    fn mod_inverse_verifies() {
        let m = BigUint::from_hex("fffffffffffffffffffffffffffffff1").unwrap();
        let a = BigUint::from_hex("123456789").unwrap();
        let inv = a.mod_inverse(&m).unwrap();
        let prod = (&a * &inv).rem_ref(&m).unwrap();
        assert!(prod.is_one());
    }

    #[test]
    fn mod_inverse_not_coprime() {
        assert_eq!(
            BigUint::from(6u64).mod_inverse(&BigUint::from(9u64)),
            Err(BigIntError::NotInvertible)
        );
    }

    #[test]
    fn mod_inverse_of_zero_and_zero_modulus() {
        assert_eq!(
            BigUint::zero().mod_inverse(&BigUint::from(9u64)),
            Err(BigIntError::NotInvertible)
        );
        assert_eq!(
            BigUint::from(2u64).mod_inverse(&BigUint::zero()),
            Err(BigIntError::DivisionByZero)
        );
    }

    #[test]
    fn mod_inverse_reduces_input_first() {
        // 10 mod 7 = 3, inverse 5.
        let inv = BigUint::from(10u64)
            .mod_inverse(&BigUint::from(7u64))
            .unwrap();
        assert_eq!(inv.to_u64(), Some(5));
    }

    /// Odd test values for a `bits`-wide inverse: 1, `2^bits − 1`, random
    /// odd values below `2^bits`, and one wider than `2^bits`.
    fn odd_values(bits: u32, rng: &mut StdRng) -> Vec<BigUint> {
        let mut vals = vec![
            BigUint::one(),
            &BigUint::power_of_two(bits) - &BigUint::one(),
        ];
        for width in [bits, bits.div_ceil(2), bits + 70] {
            let mut v = BigUint::random_bits(rng, width);
            if v.is_even() {
                v = &v + &BigUint::one();
            }
            vals.push(v);
        }
        vals
    }

    #[test]
    fn inverse_mod_pow2_inverts_and_matches_euclid() {
        let mut rng = StdRng::seed_from_u64(0x1E5E1);
        for bits in [1u32, 26, 27, 63, 64, 65, 1026, 2052, 4104] {
            let r = BigUint::power_of_two(bits);
            for n in odd_values(bits, &mut rng) {
                let inv = n.inverse_mod_pow2(bits);
                assert!(inv < r, "bits = {bits}, n = {n:?}");
                let mut check = &n * &inv;
                check.mask_low_bits(bits);
                assert!(check.is_one(), "bits = {bits}, n = {n:?}");
                assert_eq!(inv, n.mod_inverse(&r).unwrap(), "bits = {bits}, n = {n:?}");
            }
        }
    }

    #[test]
    fn inverse_mod_pow2_zero_width_is_zero() {
        assert!(BigUint::from(3u64).inverse_mod_pow2(0).is_zero());
    }

    #[test]
    #[should_panic(expected = "only odd values")]
    fn inverse_mod_pow2_rejects_even() {
        BigUint::from(6u64).inverse_mod_pow2(64);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(
            BigUint::from(4u64).lcm(&BigUint::from(6u64)).to_u64(),
            Some(12)
        );
        assert_eq!(BigUint::from(4u64).lcm(&BigUint::zero()), BigUint::zero());
    }
}
