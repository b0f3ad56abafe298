//! Multi-modulus batched Montgomery: sixteen lanes, sixteen *different*
//! moduli.
//!
//! [`BatchMont`](crate::batch::BatchMont) assumes all lanes share one
//! modulus (one server key). This variant gives every lane its own odd
//! modulus and `n₀'`, which unlocks the other batch-shaped workload:
//! verifying sixteen signatures under sixteen *different* public keys in
//! one pass (everyone's public exponent is 65537, so the ladder schedule
//! is still shared even though the keys differ).
//!
//! All lanes run `k = max kᵢ` reduction rows with the shared radix
//! `R = 2^(27·k)` — perfectly valid Montgomery for the smaller moduli too,
//! their residues just ride in a larger-than-minimal radix.

use crate::batch::{Batch16, BATCH_WIDTH};
use crate::radix::{pad_to_lanes, VecNum, DIGIT_BITS, DIGIT_MASK, LANES};
use phi_backend::{with_backend, ResolvedBackend, Vector32, Vector64, VectorBackend};
use phi_bigint::{BigIntError, BigUint};
use phi_simd::count::OpClass;

fn inv_mod_digit(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x;
    for _ in 0..4 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv))) & DIGIT_MASK;
    }
    inv
}

/// Batched Montgomery arithmetic over sixteen independent odd moduli.
pub struct MultiBatchMont {
    moduli: Vec<BigUint>,
    /// Shared reduction-row count (max over the lanes).
    k: usize,
    /// Shared padded digit width.
    kk: usize,
    /// Per-digit, per-lane modulus digits (transposed halves, lane arrays
    /// so the same data feeds either backend's registers).
    n_halves: Vec<([u64; 8], [u64; 8])>,
    /// Per-lane `-nᵢ⁻¹ mod 2^27` (halves).
    n0_halves: ([u64; 8], [u64; 8]),
    /// Per-lane `R² mod nᵢ` for entering the domain.
    rr: Vec<BigUint>,
    /// Per-lane modulus in digit form (for the conditional subtract).
    n_vecs: Vec<VecNum>,
    /// Which vector backend the kernels run on.
    backend: ResolvedBackend,
}

impl MultiBatchMont {
    /// Build for sixteen odd moduli on the process-default backend.
    pub fn new(moduli: &[BigUint]) -> Result<Self, BigIntError> {
        Self::with_backend(moduli, phi_backend::process_default().resolve())
    }

    /// Build for sixteen odd moduli on an explicit backend.
    pub fn with_backend(moduli: &[BigUint], backend: ResolvedBackend) -> Result<Self, BigIntError> {
        assert_eq!(moduli.len(), BATCH_WIDTH, "need exactly 16 moduli");
        for n in moduli {
            if n.is_zero() || n.is_even() {
                return Err(BigIntError::EvenModulus);
            }
        }
        let k = moduli
            .iter()
            .map(|n| n.bit_length().div_ceil(DIGIT_BITS) as usize)
            .max()
            .expect("sixteen moduli");
        let kk = pad_to_lanes(k + 1);
        let r_bits = (k as u32) * DIGIT_BITS;

        let n_vecs: Vec<VecNum> = moduli
            .iter()
            .map(|n| with_backend!(backend, B => VecNum::from_biguint_on::<B>(n, kk)))
            .collect();
        let mut n_halves = Vec::with_capacity(kk);
        for d in 0..kk {
            let mut lo = [0u64; 8];
            let mut hi = [0u64; 8];
            for j in 0..BATCH_WIDTH {
                let v = n_vecs[j].digit(d);
                if j < 8 {
                    lo[j] = v;
                } else {
                    hi[j - 8] = v;
                }
            }
            with_backend!(backend, B => B::record(OpClass::VPerm, 4));
            n_halves.push((lo, hi));
        }

        let mut lo = [0u64; 8];
        let mut hi = [0u64; 8];
        for (j, n) in moduli.iter().enumerate() {
            let inv = (1u64 << DIGIT_BITS) - inv_mod_digit(n.limbs()[0] & DIGIT_MASK);
            if j < 8 {
                lo[j] = inv;
            } else {
                hi[j - 8] = inv;
            }
        }
        let rr = moduli
            .iter()
            .map(|n| &BigUint::power_of_two(2 * r_bits) % n)
            .collect();
        Ok(MultiBatchMont {
            moduli: moduli.to_vec(),
            k,
            kk,
            n_halves,
            n0_halves: (lo, hi),
            rr,
            n_vecs,
            backend,
        })
    }

    /// The backend this engine's kernels run on.
    pub fn backend(&self) -> ResolvedBackend {
        self.backend
    }

    /// Shared padded digit width.
    pub fn padded_digits(&self) -> usize {
        self.kk
    }

    /// The lane moduli.
    pub fn moduli(&self) -> &[BigUint] {
        &self.moduli
    }

    /// Lift per-lane residues into the Montgomery domain (digit form).
    pub fn to_mont_lanes(&self, values: &[BigUint]) -> Batch16 {
        with_backend!(self.backend, B => self.to_mont_lanes_generic::<B>(values))
    }

    fn to_mont_lanes_generic<B: VectorBackend>(&self, values: &[BigUint]) -> Batch16 {
        assert_eq!(values.len(), BATCH_WIDTH);
        let plain: Vec<VecNum> = values
            .iter()
            .zip(&self.moduli)
            .map(|(v, n)| VecNum::from_biguint_on::<B>(&(v % n), self.kk))
            .collect();
        let rrs: Vec<VecNum> = self
            .rr
            .iter()
            .map(|r| VecNum::from_biguint_on::<B>(r, self.kk))
            .collect();
        self.mont_mul_16_generic::<B>(
            &Batch16::transpose_from_impl::<B>(&plain),
            &Batch16::transpose_from_impl::<B>(&rrs),
        )
    }

    /// Map out of the Montgomery domain to plain residues.
    pub fn from_mont_lanes(&self, batch: &Batch16) -> Vec<BigUint> {
        with_backend!(self.backend, B => self.from_mont_lanes_generic::<B>(batch))
    }

    #[allow(clippy::wrong_self_convention)] // mirrors the public from_mont_lanes it backs
    fn from_mont_lanes_generic<B: VectorBackend>(&self, batch: &Batch16) -> Vec<BigUint> {
        let mut one = VecNum::zero(self.kk);
        one.digits_mut()[0] = 1;
        let ones = vec![one; BATCH_WIDTH];
        self.mont_mul_16_generic::<B>(batch, &Batch16::transpose_from_impl::<B>(&ones))
            .transpose_out_impl::<B>()
            .iter()
            .map(|v| v.to_biguint_on::<B>())
            .collect()
    }

    /// Sixteen Montgomery products, lane `j` modulo `moduli[j]`.
    pub fn mont_mul_16(&self, a: &Batch16, b: &Batch16) -> Batch16 {
        with_backend!(self.backend, B => self.mont_mul_16_generic::<B>(a, b))
    }

    fn mont_mul_16_generic<B: VectorBackend>(&self, a: &Batch16, b: &Batch16) -> Batch16 {
        let _span = phi_trace::span(phi_trace::Scope::BatchMont);
        let kk = self.kk;
        debug_assert_eq!(a.len(), kk);
        debug_assert_eq!(b.len(), kk);

        let mut acc: Vec<(B::V64, B::V64)> = vec![(B::V64::zero(), B::V64::zero()); kk];
        let b_halves: Vec<(B::V64, B::V64)> = b
            .cols()
            .iter()
            .map(|c| {
                let col = B::V32::from_lanes(c.to_lanes());
                (col.widen_lo(), col.widen_hi())
            })
            .collect();
        let n_halves: Vec<(B::V64, B::V64)> = self
            .n_halves
            .iter()
            .map(|&(lo, hi)| (B::V64::from_lanes(lo), B::V64::from_lanes(hi)))
            .collect();
        let maskv = B::V64::splat(DIGIT_MASK);
        let n0_lo = B::V64::from_lanes(self.n0_halves.0);
        let n0_hi = B::V64::from_lanes(self.n0_halves.1);

        for i in 0..self.k {
            let a_col = B::V32::from_lanes(a.cols()[i].to_lanes());
            let av0 = a_col.widen_lo();
            let av1 = a_col.widen_hi();

            let (c00, c01) = acc[0];
            let t00 = c00.fma32(av0, b_halves[0].0);
            let t01 = c01.fma32(av1, b_halves[0].1);

            let q0 = B::V64::zero().fma32(t00.and(maskv), n0_lo).and(maskv);
            let q1 = B::V64::zero().fma32(t01.and(maskv), n0_hi).and(maskv);

            let t00 = t00.fma32(q0, n_halves[0].0);
            let t01 = t01.fma32(q1, n_halves[0].1);
            debug_assert!(t00.to_lanes().iter().all(|&l| l & DIGIT_MASK == 0));
            debug_assert!(t01.to_lanes().iter().all(|&l| l & DIGIT_MASK == 0));
            let carry0 = t00.shr(DIGIT_BITS);
            let carry1 = t01.shr(DIGIT_BITS);

            for d in 1..kk {
                let (cd0, cd1) = acc[d];
                let mut nd0 = cd0.fma32(av0, b_halves[d].0).fma32(q0, n_halves[d].0);
                let mut nd1 = cd1.fma32(av1, b_halves[d].1).fma32(q1, n_halves[d].1);
                if d == 1 {
                    nd0 = nd0.add(carry0);
                    nd1 = nd1.add(carry1);
                }
                acc[d - 1] = (nd0, nd1);
                B::record(OpClass::VMem, 2);
            }
            acc[kk - 1] = (B::V64::zero(), B::V64::zero());
        }

        // Per-lane normalization + conditional subtract (each lane against
        // its own modulus).
        let mut outs = Vec::with_capacity(BATCH_WIDTH);
        for lane in 0..BATCH_WIDTH {
            let (half, idx) = (lane / 8, lane % 8);
            let mut v = VecNum::zero(kk);
            let mut carry = 0u64;
            for (d, slot) in acc.iter().enumerate() {
                let cell = if half == 0 {
                    slot.0.lane(idx)
                } else {
                    slot.1.lane(idx)
                };
                let s = cell + carry;
                v.digits_mut()[d] = s & DIGIT_MASK;
                carry = s >> DIGIT_BITS;
            }
            debug_assert_eq!(carry, 0);
            B::record(OpClass::SAlu, 3 * kk as u64);
            B::record(OpClass::SMem, kk as u64);
            v.cond_sub::<B>(&self.n_vecs[lane]);
            outs.push(v);
        }
        Batch16::transpose_from_impl::<B>(&outs)
    }

    /// Sixteen exponentiations with one **shared** exponent but per-lane
    /// moduli — the batched signature-verification shape (`e = 65537`
    /// across different keys).
    pub fn mod_exp_16(&self, bases: &[BigUint], exp: &BigUint, window: u32) -> Vec<BigUint> {
        with_backend!(self.backend, B => self.mod_exp_16_generic::<B>(bases, exp, window))
    }

    fn mod_exp_16_generic<B: VectorBackend>(
        &self,
        bases: &[BigUint],
        exp: &BigUint,
        window: u32,
    ) -> Vec<BigUint> {
        let _span = phi_trace::span(phi_trace::Scope::BatchExp);
        assert_eq!(bases.len(), BATCH_WIDTH);
        assert!((1..=7).contains(&window));
        if exp.is_zero() {
            return vec![BigUint::one(); BATCH_WIDTH];
        }
        let base_b = self.to_mont_lanes_generic::<B>(bases);

        // table[v] = base^v per lane; table[0] = per-lane R mod n.
        let ones: Vec<VecNum> = self
            .moduli
            .iter()
            .map(|n| {
                let r = &BigUint::power_of_two(self.k as u32 * DIGIT_BITS) % n;
                VecNum::from_biguint_on::<B>(&r, self.kk)
            })
            .collect();
        let one_b = Batch16::transpose_from_impl::<B>(&ones);
        let table_len = 1usize << window;
        let mut table = Vec::with_capacity(table_len);
        table.push(one_b);
        for v in 1..table_len {
            let prev: &Batch16 = &table[v - 1];
            table.push(self.mont_mul_16_generic::<B>(prev, &base_b));
        }

        let bits = exp.bit_length();
        let windows = bits.div_ceil(window);
        let mut acc = table[0].clone();
        for win in (0..windows).rev() {
            for _ in 0..window {
                acc = self.mont_mul_16_generic::<B>(&acc, &acc);
            }
            let lo = win * window;
            let width = window.min(bits - lo);
            let val = exp.extract_bits(lo, width) as usize;
            B::record(OpClass::SAlu, 4);
            B::record(OpClass::VMem, 2 * (self.kk / LANES) as u64);
            acc = self.mont_mul_16_generic::<B>(&acc, &table[val]);
        }
        self.from_mont_lanes_generic::<B>(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sixteen_moduli(base_bits: u32) -> Vec<BigUint> {
        // Deterministic odd moduli of *varying* widths.
        let mut state = 0x0DD5_EED5u64;
        (0..BATCH_WIDTH as u32)
            .map(|j| {
                let bits = base_bits + 13 * (j % 4); // four different widths
                let mut limbs = Vec::new();
                for _ in 0..bits.div_ceil(64) {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    limbs.push(state);
                }
                let mut n = BigUint::from_limbs(limbs);
                n.mask_low_bits(bits);
                n.set_bit(bits - 1, true);
                n.set_bit(0, true);
                n
            })
            .collect()
    }

    #[test]
    fn rejects_even_modulus() {
        let mut m = sixteen_moduli(96);
        m[5] = BigUint::from(100u64);
        assert!(MultiBatchMont::new(&m).is_err());
    }

    #[test]
    fn roundtrip_per_lane() {
        let moduli = sixteen_moduli(96);
        let mb = MultiBatchMont::new(&moduli).unwrap();
        let values: Vec<BigUint> = (0..BATCH_WIDTH as u64)
            .map(|j| &BigUint::from(0xAA55_0000 + j * 331) % &moduli[j as usize])
            .collect();
        let m = mb.to_mont_lanes(&values);
        assert_eq!(mb.from_mont_lanes(&m), values);
    }

    #[test]
    fn mont_mul_matches_per_lane_oracle() {
        let moduli = sixteen_moduli(128);
        let mb = MultiBatchMont::new(&moduli).unwrap();
        let a: Vec<BigUint> = (0..16u64)
            .map(|j| &BigUint::from(j * 7919 + 3) % &moduli[j as usize])
            .collect();
        let b: Vec<BigUint> = (0..16u64)
            .map(|j| &BigUint::from(j * 104729 + 5) % &moduli[j as usize])
            .collect();
        let am = mb.to_mont_lanes(&a);
        let bm = mb.to_mont_lanes(&b);
        let got = mb.from_mont_lanes(&mb.mont_mul_16(&am, &bm));
        for j in 0..BATCH_WIDTH {
            assert_eq!(got[j], a[j].mod_mul(&b[j], &moduli[j]), "lane {j}");
        }
    }

    #[test]
    fn shared_exponent_exp_matches_oracle() {
        let moduli = sixteen_moduli(96);
        let mb = MultiBatchMont::new(&moduli).unwrap();
        let bases: Vec<BigUint> = (0..16u64)
            .map(|j| &BigUint::from(j + 2) % &moduli[j as usize])
            .collect();
        let e = BigUint::from(65537u64);
        let got = mb.mod_exp_16(&bases, &e, 5);
        for j in 0..BATCH_WIDTH {
            assert_eq!(got[j], bases[j].mod_exp(&e, &moduli[j]), "lane {j}");
        }
    }

    #[test]
    fn exp_edge_cases() {
        let moduli = sixteen_moduli(96);
        let mb = MultiBatchMont::new(&moduli).unwrap();
        let bases: Vec<BigUint> = (0..16u64).map(|j| BigUint::from(j + 2)).collect();
        let zeros = mb.mod_exp_16(&bases, &BigUint::zero(), 4);
        assert!(zeros.iter().all(|v| v.is_one()));
        let ones = mb.mod_exp_16(&bases, &BigUint::one(), 4);
        for j in 0..BATCH_WIDTH {
            assert_eq!(ones[j], &bases[j] % &moduli[j], "lane {j}");
        }
    }

    #[test]
    fn native_backend_matches_modeled_per_lane() {
        let moduli = sixteen_moduli(96);
        let mb = MultiBatchMont::new(&moduli).unwrap();
        let nb = MultiBatchMont::with_backend(&moduli, ResolvedBackend::NativeX86).unwrap();
        assert_eq!(nb.backend(), ResolvedBackend::NativeX86);
        let bases: Vec<BigUint> = (0..16u64)
            .map(|j| &BigUint::from(j * 7919 + 11) % &moduli[j as usize])
            .collect();
        let e = BigUint::from(65537u64);
        assert_eq!(mb.mod_exp_16(&bases, &e, 5), nb.mod_exp_16(&bases, &e, 5));
    }

    #[test]
    fn batched_signature_verification_shape() {
        // Sixteen different RSA keys, one shared e: verify 16 "signatures"
        // (raw RSA) in one pass.
        use phi_rsa::key::RsaPrivateKey;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let keys: Vec<RsaPrivateKey> = (0..4)
            .map(|i| RsaPrivateKey::generate(&mut StdRng::seed_from_u64(0xAB0 + i), 128).unwrap())
            .collect();
        // Reuse 4 keys across 16 lanes (keygen cost), still 4 distinct moduli.
        let moduli: Vec<BigUint> = (0..BATCH_WIDTH)
            .map(|j| keys[j % 4].public().n().clone())
            .collect();
        let msgs: Vec<BigUint> = (0..BATCH_WIDTH as u64)
            .map(|j| &BigUint::from(j + 17) % &moduli[j as usize])
            .collect();
        let sigs: Vec<BigUint> = (0..BATCH_WIDTH)
            .map(|j| msgs[j].mod_exp(keys[j % 4].d(), &moduli[j]))
            .collect();
        let mb = MultiBatchMont::new(&moduli).unwrap();
        let recovered = mb.mod_exp_16(&sigs, &BigUint::from(65537u64), 5);
        assert_eq!(recovered, msgs, "all sixteen signatures verify");
    }
}
