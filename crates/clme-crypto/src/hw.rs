//! x86-64 AES-NI, PCLMULQDQ and AVX-512F back ends for the three
//! primitives that run on every block or metadata word: the AES
//! encryption behind counter-mode pads and XTS, the GF(2¹²⁸) dot product
//! of the counter-mode MAC, and the Keccak-f\[1600\] permutation behind
//! the SHA-3 metadata MACs, eight states at a time.
//!
//! This module holds all of the crate's `unsafe` and
//! `#[target_feature]` code. Callers probe the CPU ([`aes_detected`],
//! [`clmul_detected`], [`avx512_detected`]; the standard library caches
//! each CPUID answer), and call the `unsafe` functions only when the
//! probe returned `true`. The portable code in [`crate::aes`],
//! [`crate::gf`] and [`crate::sha3`] stays the reference: both paths
//! produce the same bytes, which the known-answer and differential
//! tests check on every host. On other architectures the probes return
//! `false` and the portable code is the only path.

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

/// Whether the CPU has AVX-512F, whose 64-bit rotate (`vprolq`) and
/// ternary logic (`vpternlogq`) the eight-way Keccak kernel needs.
pub(crate) fn avx512_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{aes_encrypt, clmul_dot, keccak_f1600_x8};

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

#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn keccak_f1600_x8(_lanes: &mut [[u64; 8]; 25], _round_constants: &[u64; 24]) {
    unreachable!("avx512_detected() is false off x86-64")
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm512_loadu_si512, _mm512_rol_epi64, _mm512_set1_epi64, _mm512_storeu_si512,
        _mm512_ternarylogic_epi64, _mm512_xor_si512, _mm_aesenc_si128, _mm_aesenclast_si128,
        _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_loadu_si128, _mm_setzero_si128,
        _mm_storeu_si128, _mm_xor_si128,
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

    /// `vpternlogq` truth tables, indexed by `(a << 2) | (b << 1) | c`.
    const XOR3: i32 = 0x96; // a ^ b ^ c
    const CHI: i32 = 0xD2; // a ^ (!b & c)

    /// Applies Keccak-f\[1600\] to eight independent states at once:
    /// `lanes[i][s]` is lane `i` (index `x + 5y`, as in
    /// [`crate::sha3::keccak_f1600`]) of state `s`, so each of the 25
    /// vectors holds one lane of all eight states. Theta's column sums
    /// and chi are one `vpternlogq` each; rho is one `vprolq` per lane,
    /// with pi folded into where its result lands.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, i.e. [`super::avx512_detected`]
    /// returned `true`.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn keccak_f1600_x8(lanes: &mut [[u64; 8]; 25], round_constants: &[u64; 24]) {
        let mut a = [_mm512_set1_epi64(0); 25];
        for (v, lane) in a.iter_mut().zip(lanes.iter()) {
            // SAFETY: `lane` is 64 readable bytes; `loadu` has no
            // alignment requirement.
            *v = unsafe { _mm512_loadu_si512(lane.as_ptr().cast()) };
        }
        for &rc in round_constants {
            // Theta: each lane absorbs the parity of its two
            // neighbouring columns.
            let mut c = [_mm512_set1_epi64(0); 5];
            for (x, cx) in c.iter_mut().enumerate() {
                let t = _mm512_ternarylogic_epi64::<XOR3>(a[x], a[x + 5], a[x + 10]);
                *cx = _mm512_ternarylogic_epi64::<XOR3>(t, a[x + 15], a[x + 20]);
            }
            let mut d = [_mm512_set1_epi64(0); 5];
            for (x, dx) in d.iter_mut().enumerate() {
                *dx = _mm512_xor_si512(c[(x + 4) % 5], _mm512_rol_epi64::<1>(c[(x + 1) % 5]));
            }
            // Rho and pi: `b[dst] = rotl(a[src] ^ d[src % 5], RHO[src])`
            // for each `(dst, src, RHO[src])`, pi's
            // `dst = y + 5((2x + 3y) mod 5)` for `src = x + 5y`.
            let mut b = [_mm512_set1_epi64(0); 25];
            macro_rules! rho_pi {
                ($(($dst:literal, $src:literal, $rot:literal)),* $(,)?) => {
                    $(b[$dst] = _mm512_rol_epi64::<$rot>(_mm512_xor_si512(a[$src], d[$src % 5]));)*
                };
            }
            rho_pi!(
                (0, 0, 0),
                (1, 6, 44),
                (2, 12, 43),
                (3, 18, 21),
                (4, 24, 14),
                (5, 3, 28),
                (6, 9, 20),
                (7, 10, 3),
                (8, 16, 45),
                (9, 22, 61),
                (10, 1, 1),
                (11, 7, 6),
                (12, 13, 25),
                (13, 19, 8),
                (14, 20, 18),
                (15, 4, 27),
                (16, 5, 36),
                (17, 11, 10),
                (18, 17, 15),
                (19, 23, 56),
                (20, 2, 62),
                (21, 8, 55),
                (22, 14, 39),
                (23, 15, 41),
                (24, 21, 2),
            );
            // Chi, row by row.
            for y in (0..25).step_by(5) {
                for x in 0..5 {
                    a[y + x] = _mm512_ternarylogic_epi64::<CHI>(
                        b[y + x],
                        b[y + (x + 1) % 5],
                        b[y + (x + 2) % 5],
                    );
                }
            }
            // Iota.
            a[0] = _mm512_xor_si512(a[0], _mm512_set1_epi64(rc as i64));
        }
        for (lane, v) in lanes.iter_mut().zip(a) {
            // SAFETY: `lane` is 64 writable bytes; `storeu` has no
            // alignment requirement.
            unsafe { _mm512_storeu_si512(lane.as_mut_ptr().cast(), v) };
        }
    }
}
