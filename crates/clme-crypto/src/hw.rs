//! x86-64 AES-NI and PCLMULQDQ back ends for the two primitives that
//! run on every data block: the AES encryption behind counter-mode pads
//! and XTS, and the GF(2¹²⁸) dot product of the counter-mode MAC.
//!
//! This module holds all of the crate's `unsafe` and
//! `#[target_feature]` code. Callers probe the CPU once, when a cipher
//! or MAC is built ([`aes_detected`], [`clmul_detected`]), keep the
//! answer, and call the `unsafe` functions only when it was `true`. The
//! portable code in [`crate::aes`] and [`crate::gf`] stays the reference:
//! both paths produce the same bytes, which the known-answer and
//! differential tests check on every host. On other architectures the
//! probes return `false` and the portable code is the only path.

/// Whether the CPU has AES-NI (CPUID-probed; the result is cached by
/// the standard library).
pub(crate) fn aes_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the CPU has the carry-less multiply (PCLMULQDQ).
pub(crate) fn clmul_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{aes_encrypt, clmul_dot};

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn aes_encrypt<const N: usize>(
    _round_keys: &[[u8; 16]],
    _blocks: [[u8; 16]; N],
) -> [[u8; 16]; N] {
    unreachable!("aes_detected() is false off x86-64")
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn clmul_dot(_lanes: &[u8; 64], _meta: u32, _keys: &[u128; 9]) -> u128 {
    unreachable!("clmul_detected() is false off x86-64")
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_setzero_si128, _mm_storeu_si128, _mm_xor_si128,
    };

    #[inline(always)]
    fn load(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: `bytes` is 16 readable bytes; `loadu` has no alignment
        // requirement, and SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    #[inline(always)]
    fn store(v: __m128i) -> [u8; 16] {
        let mut out = [0u8; 16];
        // SAFETY: `out` is 16 writable bytes; `storeu` has no alignment
        // requirement, and SSE2 is part of the x86-64 baseline.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) };
        out
    }

    /// Encrypts `N` independent blocks under the FIPS 197 round keys
    /// `round_keys` (the initial key, then one per round), interleaving
    /// the blocks round by round so the unit's pipeline stays full.
    ///
    /// The FIPS schedule needs no transformation: AESENC consumes the
    /// state and round key in the same byte order FIPS 197 uses.
    ///
    /// # Safety
    ///
    /// The CPU must support AES-NI, i.e. [`super::aes_detected`] returned
    /// `true`.
    #[target_feature(enable = "aes")]
    pub(crate) unsafe fn aes_encrypt<const N: usize>(
        round_keys: &[[u8; 16]],
        blocks: [[u8; 16]; N],
    ) -> [[u8; 16]; N] {
        let (first, rest) = round_keys.split_first().expect("at least two round keys");
        let (last, middle) = rest.split_last().expect("at least two round keys");
        let mut state = [_mm_setzero_si128(); N];
        let k0 = load(first);
        for (s, b) in state.iter_mut().zip(&blocks) {
            *s = _mm_xor_si128(load(b), k0);
        }
        for rk in middle {
            let k = load(rk);
            for s in state.iter_mut() {
                *s = _mm_aesenc_si128(*s, k);
            }
        }
        let k = load(last);
        let mut out = [[0u8; 16]; N];
        for (o, s) in out.iter_mut().zip(state) {
            *o = store(_mm_aesenclast_si128(s, k));
        }
        out
    }

    /// The unreduced-then-reduced GF(2¹²⁸) dot product
    /// `Σᵢ lane_i · keys[i] ⊕ meta · keys[8]` of the counter-mode MAC,
    /// in the crate's little-endian bit order (bit `i` is the coefficient
    /// of `xⁱ`; see [`crate::gf::Gf128`]).
    ///
    /// Each 64-bit lane times a 128-bit key is two carry-less products:
    /// `lane·K_lo` and `lane·K_hi·x⁶⁴`. The nine 191-bit products are
    /// summed unreduced into `lo` (bits 0..128) and `mid` (bits 64..192),
    /// and the sum is reduced once: its bits 128..191 form `H` of degree
    /// at most 62, and `x¹²⁸ ≡ x⁷+x²+x+1` (0x87) folds them down as
    /// `H·0x87`, whose degree is at most 69 — below 128, so one fold
    /// suffices.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ, i.e. [`super::clmul_detected`]
    /// returned `true`.
    #[target_feature(enable = "pclmulqdq")]
    pub(crate) unsafe fn clmul_dot(lanes: &[u8; 64], meta: u32, keys: &[u128; 9]) -> u128 {
        let key = |i: usize| load(&keys[i].to_le_bytes());
        let mut lo = _mm_setzero_si128();
        let mut mid = _mm_setzero_si128();
        for pair in 0..4 {
            let data = load(
                lanes[16 * pair..16 * pair + 16]
                    .try_into()
                    .expect("16 bytes"),
            );
            let (k_even, k_odd) = (key(2 * pair), key(2 * pair + 1));
            // Selector bit 0 picks the data qword, bit 4 the key qword.
            lo = _mm_xor_si128(lo, _mm_clmulepi64_si128::<0x00>(data, k_even));
            mid = _mm_xor_si128(mid, _mm_clmulepi64_si128::<0x10>(data, k_even));
            lo = _mm_xor_si128(lo, _mm_clmulepi64_si128::<0x01>(data, k_odd));
            mid = _mm_xor_si128(mid, _mm_clmulepi64_si128::<0x11>(data, k_odd));
        }
        let meta = _mm_cvtsi32_si128(meta as i32);
        let k_meta = key(8);
        lo = _mm_xor_si128(lo, _mm_clmulepi64_si128::<0x00>(meta, k_meta));
        mid = _mm_xor_si128(mid, _mm_clmulepi64_si128::<0x10>(meta, k_meta));
        let (lo, mid) = (
            u128::from_le_bytes(store(lo)),
            u128::from_le_bytes(store(mid)),
        );
        let high = (mid >> 64) as u64;
        let fold = _mm_clmulepi64_si128::<0x00>(
            load(&(high as u128).to_le_bytes()),
            load(&0x87u128.to_le_bytes()),
        );
        lo ^ (mid << 64) ^ u128::from_le_bytes(store(fold))
    }
}
