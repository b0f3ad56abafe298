//! Montgomery context over 64-bit limbs (the MPSS libcrypto kernel shape).

use crate::engine::MontEngine;
use phi_bigint::limb::mac;
use phi_bigint::{BigIntError, BigUint};
use phi_simd::count::{record, OpClass};

/// Compute the inverse of an odd `x` modulo 2^64 by Newton iteration.
///
/// For odd `x`, `x⁻¹ ≡ x (mod 8)`; each iteration doubles the number of
/// correct low bits, so five iterations reach 96 ≥ 64 bits.
pub fn inv_mod_2_64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1, "inverse requires an odd argument");
    let mut inv = x; // 3 correct bits
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

/// Montgomery multiplication context with 64-bit limbs and CIOS reduction.
///
/// This is the kernel shape of OpenSSL's generic 64-bit `bn_mul_mont` — the
/// code path the MPSS (k1om) libcrypto build executes on the Phi's scalar
/// pipe. Each call records its scalar multiply/ALU/memory operations so the
/// harness can model KNC cycles.
#[derive(Debug, Clone)]
pub struct MontCtx64 {
    n: BigUint,
    n_limbs: Vec<u64>,
    k: usize,
    /// `-n⁻¹ mod 2^64`.
    n0_inv: u64,
    /// `N' = -n⁻¹ mod R`, all `k` limbs (the truncated variant multiplies
    /// by the full-width inverse once instead of limb-by-limb).
    nprime: Vec<u64>,
    /// `R² mod n`, for entering the domain.
    rr: BigUint,
    r_bits: u32,
}

impl MontCtx64 {
    /// Build a context for the odd modulus `n`.
    pub fn new(n: &BigUint) -> Result<Self, BigIntError> {
        if n.is_zero() || n.is_even() {
            return Err(BigIntError::EvenModulus);
        }
        let _span = phi_trace::span(phi_trace::Scope::CtxSetup);
        phi_simd::count::record_ctx_setup();
        let n_limbs = n.limbs().to_vec();
        let k = n_limbs.len();
        let r_bits = (k as u32) * 64;
        let n0_inv = inv_mod_2_64(n_limbs[0]).wrapping_neg();
        let rr = &BigUint::power_of_two(2 * r_bits) % n;
        // N' = -n⁻¹ mod 2^(64k). An odd n is always invertible mod a power
        // of two, and the inverse is odd, so R - inv never wraps.
        let r = BigUint::power_of_two(r_bits);
        let inv = (n % &r)
            .mod_inverse(&r)
            .expect("odd modulus is invertible mod a power of two");
        let mut nprime = (&r - &inv).limbs().to_vec();
        nprime.resize(k, 0);
        Ok(MontCtx64 {
            n: n.clone(),
            n_limbs,
            k,
            n0_inv,
            nprime,
            rr,
            r_bits,
        })
    }

    /// Limb count of the modulus.
    pub fn limbs(&self) -> usize {
        self.k
    }

    /// `-n⁻¹ mod 2^64` (exposed for tests and the vectorized kernels).
    pub fn n0_inv(&self) -> u64 {
        self.n0_inv
    }

    /// Pad a reduced value to exactly `k` limbs.
    fn padded(&self, a: &BigUint) -> Vec<u64> {
        debug_assert!(a < &self.n, "operand not reduced");
        let mut v = a.limbs().to_vec();
        v.resize(self.k, 0);
        v
    }

    /// Record the deterministic operation footprint of one CIOS call.
    ///
    /// Per inner multiply-accumulate the modeled KNC scalar pipe executes
    /// one `mulq`, ~3 dependent ALU ops (add/adc/carry bookkeeping) and two
    /// memory ops (load operand limb, store accumulator limb); each of the
    /// `k` outer rows adds the `m = t₀·n₀'` multiply plus loop overhead.
    fn record_cios_ops(&self) {
        let k = self.k as u64;
        record(OpClass::SMul64, 2 * k * k + k);
        record(OpClass::SAlu, 6 * k * k + 8 * k);
        record(OpClass::SMem, 4 * k * k + 2 * k);
    }

    /// CIOS Montgomery product of two reduced, padded operands.
    fn cios(&self, a: &[u64], b: &[u64]) -> BigUint {
        let k = self.k;
        let mut t = vec![0u64; k + 2];
        for &ai in a.iter().take(k) {
            // t += a_i * b
            let mut c = 0u64;
            for j in 0..k {
                let (lo, hi) = mac(t[j], ai, b[j], c);
                t[j] = lo;
                c = hi;
            }
            let (s, c2) = t[k].overflowing_add(c);
            t[k] = s;
            t[k + 1] += c2 as u64;

            // m = t0 * n0' mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n0_inv);
            let (_, mut c) = mac(t[0], m, self.n_limbs[0], 0);
            for j in 1..k {
                let (lo, hi) = mac(t[j], m, self.n_limbs[j], c);
                t[j - 1] = lo;
                c = hi;
            }
            let (s, c2) = t[k].overflowing_add(c);
            t[k - 1] = s;
            t[k] = t[k + 1] + c2 as u64;
            t[k + 1] = 0;
        }
        self.record_cios_ops();

        let mut r = BigUint::from_limbs(t[..=k].to_vec());
        if r >= self.n {
            r -= &self.n;
        }
        r
    }

    /// Record the deterministic footprint of one truncated-separated call
    /// (full product + truncated reduction).
    ///
    /// Products: `k²` for T = a·b, `k(k+1)/2` for the truncated
    /// `m = T·N' mod R` triangle, `k(k-1)/2` for the anti-triangle high
    /// part of `m·n`, and `2k-1` for the two correction boundary columns —
    /// `2k² + 2k - 1` in total, versus `2k² + k` for classic CIOS. The
    /// scalar variant is roughly op-neutral (it exists as the bit-exact
    /// oracle); the win is in the generated 16-lane kernel, where the
    /// elided triangle is saved in every lane at once.
    fn record_truncated_ops(&self) {
        let k = self.k as u64;
        record(OpClass::SMul64, 2 * k * k + 2 * k - 1);
        record(OpClass::SAlu, 6 * k * k + 10 * k);
        record(OpClass::SMem, 4 * k * k + 4 * k);
    }

    /// Truncated separated Montgomery reduction of a raw `2k`-limb product.
    ///
    /// Classic CIOS interleaves reduction with the product and touches every
    /// partial product of `m·n`. The separated form (Didier et al.,
    /// arXiv 2410.18129) computes `m = T·N' mod R` with only the low
    /// triangle of products, then only the *high* part of `m·n` — the low
    /// columns `s_0..s_{k-3}` are elided entirely. Their contribution is
    /// recovered by a correction term derived from the two boundary columns
    /// `s_{k-2}, s_{k-1}`:
    ///
    /// * `D̂ = T_lo + s_{k-2}·β^{k-2} + s_{k-1}·β^{k-1}` misses only
    ///   `E = Σ_{c≤k-3} s_c β^c < (k-1)·β^{k-1} < R` (valid while `k-1 < β`),
    /// * the exact low half `D = D̂ + E` is divisible by `R`, so
    ///   `D/R = floor(D̂/R) + [D̂ mod R ≠ 0]`.
    ///
    /// The result `U = T_hi + S_hi + D/R` equals `(T + m·n)/R < 2n` and a
    /// single conditional subtract makes it bit-identical to `cios`.
    fn reduce_truncated_limbs(&self, t: &[u64]) -> BigUint {
        let k = self.k;
        debug_assert!(k >= 2, "truncated reduction needs k >= 2");
        debug_assert_eq!(t.len(), 2 * k);

        // m = (T·N') mod R: low triangle only, k(k+1)/2 products. The carry
        // out of column k-1 belongs to column k and is discarded (mod R).
        let mut m = vec![0u64; k];
        for i in 0..k {
            let mut carry = 0u64;
            for j in 0..(k - i) {
                let (lo, hi) = mac(m[i + j], t[i], self.nprime[j], carry);
                m[i + j] = lo;
                carry = hi;
            }
        }

        // Boundary columns s_{k-2} and s_{k-1} of m·n as exact 3-word sums.
        let s_km2 = col_sum(&m, &self.n_limbs, k - 2);
        let s_km1 = col_sum(&m, &self.n_limbs, k - 1);

        // D̂ = T_lo + s_{k-2}·β^{k-2} + s_{k-1}·β^{k-1}; its limbs k..k+2
        // are floor(D̂/R), its low k limbs are D̂ mod R.
        let mut d = vec![0u64; k + 3];
        d[..k].copy_from_slice(&t[..k]);
        add3_at(&mut d, k - 2, s_km2);
        add3_at(&mut d, k - 1, s_km1);
        debug_assert_eq!(d[k + 2], 0);
        let round_up = d[..k].iter().any(|&x| x != 0) as u64;

        // U = T_hi + S_hi + floor(D̂/R) + round_up.
        let mut u = vec![0u64; k + 2];
        u[..k].copy_from_slice(&t[k..2 * k]);
        add_at(&mut u, 0, d[k]);
        add_at(&mut u, 1, d[k + 1]);
        add_at(&mut u, 0, round_up);
        // S_hi: the anti-triangle rows of m·n with i + j >= k.
        for i in 1..k {
            let mut carry = 0u64;
            for j in (k - i)..k {
                let (lo, hi) = mac(u[i + j - k], m[i], self.n_limbs[j], carry);
                u[i + j - k] = lo;
                carry = hi;
            }
            add_at(&mut u, i, carry);
        }
        debug_assert_eq!(u[k + 1], 0, "U must fit k+1 limbs (U < 2n)");

        self.record_truncated_ops();
        let mut r = BigUint::from_limbs(u[..=k].to_vec());
        if r >= self.n {
            r -= &self.n;
        }
        debug_assert!(r < self.n);
        r
    }

    /// Montgomery-reduce `t < n·R` to `t·R⁻¹ mod n` via the truncated path.
    ///
    /// Bit-identical to reducing through [`MontEngine::mont_mul`]; moduli of
    /// a single limb fall back to CIOS (the boundary column `s_{k-2}` does
    /// not exist for `k < 2`).
    pub fn mont_reduce_truncated(&self, t: &BigUint) -> BigUint {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        debug_assert!(t.bit_length() <= 2 * self.r_bits, "t must be < n·R");
        if self.k < 2 {
            let one = vec![1u64];
            return self.cios(&self.padded(&(t % &self.n)), &one);
        }
        let mut limbs = t.limbs().to_vec();
        limbs.resize(2 * self.k, 0);
        self.reduce_truncated_limbs(&limbs)
    }

    /// Montgomery product via truncated-separated reduction.
    ///
    /// Same contract and bit-identical result as [`MontEngine::mont_mul`];
    /// the reduction elides the partial products that feed only the
    /// discarded low limbs.
    pub fn mont_mul_truncated(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        if self.k < 2 {
            return self.cios(&self.padded(a), &self.padded(b));
        }
        let k = self.k;
        let av = self.padded(a);
        let bv = self.padded(b);
        let mut t = vec![0u64; 2 * k];
        for i in 0..k {
            let mut carry = 0u64;
            for j in 0..k {
                let (lo, hi) = mac(t[i + j], av[i], bv[j], carry);
                t[i + j] = lo;
                carry = hi;
            }
            t[i + k] = carry;
        }
        self.reduce_truncated_limbs(&t)
    }
}

/// Exact 3-word (lo, hi, overflow) sum of column `c` of `a·b`.
fn col_sum(a: &[u64], b: &[u64], c: usize) -> (u64, u64, u64) {
    let (mut lo, mut hi, mut ex) = (0u64, 0u64, 0u64);
    let i_lo = (c + 1).saturating_sub(b.len());
    for i in i_lo..=c.min(a.len() - 1) {
        let p = u128::from(a[i]) * u128::from(b[c - i]);
        let (nl, ca) = lo.overflowing_add(p as u64);
        lo = nl;
        // (p >> 64) <= 2^64 - 2, so adding the carry bit cannot overflow.
        let (nh, cb) = hi.overflowing_add(((p >> 64) as u64) + u64::from(ca));
        hi = nh;
        ex += u64::from(cb);
    }
    (lo, hi, ex)
}

/// Add `v` into `d[o]`, propagating carries upward.
fn add_at(d: &mut [u64], mut o: usize, v: u64) {
    let mut c = v;
    while c != 0 {
        let (s, ov) = d[o].overflowing_add(c);
        d[o] = s;
        c = u64::from(ov);
        o += 1;
    }
}

/// Add a 3-word column sum into `d` at limb offset `o`.
fn add3_at(d: &mut [u64], o: usize, (lo, hi, ex): (u64, u64, u64)) {
    add_at(d, o, lo);
    add_at(d, o + 1, hi);
    add_at(d, o + 2, ex);
}

impl MontEngine for MontCtx64 {
    fn modulus(&self) -> &BigUint {
        &self.n
    }

    fn r_bits(&self) -> u32 {
        self.r_bits
    }

    fn to_mont(&self, a: &BigUint) -> BigUint {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        let reduced = if a < &self.n { a.clone() } else { a % &self.n };
        self.cios(&self.padded(&reduced), &self.padded(&self.rr))
    }

    fn from_mont(&self, a: &BigUint) -> BigUint {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        let one = {
            let mut v = vec![0u64; self.k];
            v[0] = 1;
            v
        };
        self.cios(&self.padded(a), &one)
    }

    fn one_mont(&self) -> BigUint {
        &BigUint::power_of_two(self.r_bits) % &self.n
    }

    fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let _span = phi_trace::span(phi_trace::Scope::MontReduce);
        self.cios(&self.padded(a), &self.padded(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_simd::count;

    fn ctx(hex: &str) -> MontCtx64 {
        MontCtx64::new(&BigUint::from_hex(hex).unwrap()).unwrap()
    }

    #[test]
    fn inv_mod_2_64_identity() {
        for x in [1u64, 3, 5, 0xdeadbeef | 1, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv_mod_2_64(x)), 1, "x = {x:#x}");
        }
    }

    #[test]
    fn rejects_even_or_zero_modulus() {
        assert!(MontCtx64::new(&BigUint::from(10u64)).is_err());
        assert!(MontCtx64::new(&BigUint::zero()).is_err());
    }

    #[test]
    fn roundtrip_small() {
        let c = ctx("61"); // 97
        for v in 0u64..97 {
            let a = BigUint::from(v);
            assert_eq!(c.from_mont(&c.to_mont(&a)), a, "v = {v}");
        }
    }

    #[test]
    fn mont_mul_matches_mod_mul() {
        let c = ctx("ffffffffffffffffffffffffffffff61"); // odd 128-bit
        let n = c.modulus().clone();
        let a = BigUint::from_hex("123456789abcdef00fedcba987654321").unwrap() % &n;
        let b = BigUint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap() % &n;
        let am = c.to_mont(&a);
        let bm = c.to_mont(&b);
        let prod = c.from_mont(&c.mont_mul(&am, &bm));
        assert_eq!(prod, a.mod_mul(&b, &n));
    }

    #[test]
    fn mont_mul_large_modulus() {
        // 512-bit odd modulus (deterministic).
        let mut limbs = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..8 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            limbs.push(state);
        }
        limbs[0] |= 1;
        let n = BigUint::from_limbs(limbs);
        let c = MontCtx64::new(&n).unwrap();
        let a = BigUint::from_hex("1234567890abcdef").unwrap();
        let b = BigUint::from_hex("fedcba9876543210").unwrap();
        let prod = c.from_mont(&c.mont_mul(&c.to_mont(&a), &c.to_mont(&b)));
        assert_eq!(prod, a.mod_mul(&b, &n));
    }

    #[test]
    fn one_mont_is_identity() {
        let c = ctx("ffffffffffffffc5");
        let a = BigUint::from(123456789u64);
        let am = c.to_mont(&a);
        assert_eq!(c.mont_mul(&am, &c.one_mont()), am);
        // from_mont(one_mont) == 1
        assert!(c.from_mont(&c.one_mont()).is_one());
    }

    #[test]
    fn to_mont_reduces_unreduced_input() {
        let c = ctx("61"); // 97
        let big = BigUint::from(1000u64); // 1000 mod 97 = 30
        assert_eq!(c.from_mont(&c.to_mont(&big)).to_u64(), Some(30));
    }

    #[test]
    fn op_counts_are_deterministic_and_quadratic() {
        let c = ctx("ffffffffffffffffffffffffffffff61"); // k = 2
        let a = c.to_mont(&BigUint::from(3u64));
        let b = c.to_mont(&BigUint::from(5u64));
        count::reset();
        let (_, d1) = count::measure(|| c.mont_mul(&a, &b));
        let (_, d2) = count::measure(|| c.mont_mul(&a, &b));
        assert_eq!(d1, d2, "counts must be deterministic");
        let k = 2u64;
        assert_eq!(d1.get(OpClass::SMul64), 2 * k * k + k);
        assert_eq!(d1.get(OpClass::SMul32), 0);
    }

    #[test]
    fn truncated_matches_cios_across_widths() {
        // k = 1 (fallback), 2, and a dense 512-bit modulus.
        let mut moduli = vec![
            BigUint::from_hex("ffffffffffffffc5").unwrap(),
            BigUint::from_hex("ffffffffffffffffffffffffffffff61").unwrap(),
        ];
        let mut state = 0xA5A5_5A5A_DEAD_BEEFu64;
        let mut limbs = Vec::new();
        for _ in 0..8 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            limbs.push(state);
        }
        limbs[0] |= 1;
        limbs[7] = u64::MAX; // dense top limb
        moduli.push(BigUint::from_limbs(limbs));
        for n in &moduli {
            let c = MontCtx64::new(n).unwrap();
            let mut s = 0x1234_5678_9abc_def0u64;
            for _ in 0..16 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = &BigUint::from_limbs(vec![s, s.rotate_left(13), s ^ 0xffff]) % n;
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let b = &BigUint::from_limbs(vec![s.rotate_right(7), s, !s]) % n;
                assert_eq!(
                    c.mont_mul_truncated(&a, &b),
                    c.mont_mul(&a, &b),
                    "n = {n:?}"
                );
            }
        }
    }

    #[test]
    fn truncated_boundary_operands() {
        // Operands that straddle the correction boundary: 0, 1, n-1, and a
        // top-limb-dense modulus 2^192 - 237 so every column sum saturates.
        let n = &BigUint::power_of_two(192) - &BigUint::from(237u64);
        let c = MontCtx64::new(&n).unwrap();
        let max = &n - &BigUint::one();
        let one_m = c.one_mont();
        for a in [BigUint::zero(), BigUint::one(), one_m.clone(), max.clone()] {
            for b in [BigUint::zero(), BigUint::one(), one_m.clone(), max.clone()] {
                assert_eq!(c.mont_mul_truncated(&a, &b), c.mont_mul(&a, &b));
            }
        }
    }

    #[test]
    fn truncated_reduce_matches_classic_reduce() {
        let c = ctx("ffffffffffffffffffffffffffffff61"); // k = 2
        let n = c.modulus().clone();
        let a = &BigUint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap() % &n;
        let b = &BigUint::from_hex("123456789abcdef00fedcba987654321").unwrap() % &n;
        let t = &a * &b; // raw double-width product < n·R
        assert_eq!(c.mont_reduce_truncated(&t), c.mont_mul(&a, &b));
        // Zero reduces to zero; R itself reduces to 1.
        assert!(c.mont_reduce_truncated(&BigUint::zero()).is_zero());
        assert!(c
            .mont_reduce_truncated(&BigUint::power_of_two(c.r_bits()))
            .is_one());
    }

    #[test]
    fn truncated_op_counts_are_deterministic() {
        let c = ctx("ffffffffffffffffffffffffffffff61"); // k = 2
        let a = c.to_mont(&BigUint::from(3u64));
        let b = c.to_mont(&BigUint::from(5u64));
        count::reset();
        let (_, d1) = count::measure(|| c.mont_mul_truncated(&a, &b));
        let (_, d2) = count::measure(|| c.mont_mul_truncated(&a, &b));
        assert_eq!(d1, d2, "counts must be deterministic");
        let k = 2u64;
        assert_eq!(d1.get(OpClass::SMul64), 2 * k * k + 2 * k - 1);
    }

    #[test]
    fn cios_result_always_reduced() {
        // Stress with operands near n-1 where the conditional subtract fires.
        let c = ctx("ffffffffffffffc5");
        let n = c.modulus().clone();
        let max = &n - &BigUint::one();
        let mm = c.mont_mul(&max, &max);
        assert!(mm < n);
        // (n-1)^2 mod n == 1, checked through the domain.
        let am = c.to_mont(&max);
        let sq = c.from_mont(&c.mont_mul(&am, &am));
        assert!(sq.is_one());
    }
}
