//! Galois-field arithmetic used across the crypto stack.
//!
//! Three fields/rings appear in the paper's constructions:
//!
//! * **GF(2⁸)** with the AES polynomial `x⁸+x⁴+x³+x+1` (0x11B) — AES
//!   S-box inversion and MixColumns.
//! * **GF(2¹²⁸)** with the XTS/GCM polynomial `x¹²⁸+x⁷+x²+x+1` — the XTS
//!   αʲ tweak ladder and the GCM-style dot-product MAC.
//! * **Carry-less multiplication** over plain polynomials (no reduction) —
//!   the linear combiner RMCC uses for OTP generation (paper Fig. 15a),
//!   whose linearity is exactly the weakness Counter-light's nonlinear
//!   combiner fixes.

/// Multiplies two elements of GF(2⁸) modulo the AES polynomial 0x11B.
///
/// # Examples
///
/// ```
/// use clme_crypto::gf::gf8_mul;
///
/// assert_eq!(gf8_mul(0x57, 0x83), 0xC1); // FIPS 197 §4.2 example
/// assert_eq!(gf8_mul(2, 0x80), 0x1B);    // xtime wraps through 0x11B
/// ```
#[inline]
pub fn gf8_mul(a: u8, b: u8) -> u8 {
    let mut a = a as u16;
    let mut b = b;
    let mut acc: u16 = 0;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= 0x11B;
        }
        b >>= 1;
    }
    acc as u8
}

/// Multiplies by `x` in GF(2⁸) (the AES `xtime` operation).
#[inline]
pub fn xtime(a: u8) -> u8 {
    let shifted = (a as u16) << 1;
    (if shifted & 0x100 != 0 {
        shifted ^ 0x11B
    } else {
        shifted
    }) as u8
}

/// Multiplicative inverse in GF(2⁸); `gf8_inv(0) == 0` by the AES
/// convention.
///
/// Computed as `a^254` via square-and-multiply, so it is correct by
/// construction rather than by table transcription.
pub fn gf8_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 = a^(2+4+8+16+32+64+128)
    let mut result = 1u8;
    let mut power = a;
    let mut exp = 254u8;
    while exp != 0 {
        if exp & 1 != 0 {
            result = gf8_mul(result, power);
        }
        power = gf8_mul(power, power);
        exp >>= 1;
    }
    result
}

/// Carry-less multiplication of two 64-bit polynomials, yielding the full
/// 127-bit product. This is the *linear* operation at the heart of RMCC's
/// combiner (paper Fig. 15a).
///
/// # Examples
///
/// ```
/// use clme_crypto::gf::clmul64;
///
/// assert_eq!(clmul64(0b11, 0b11), 0b101); // (x+1)² = x²+1 over GF(2)
/// ```
#[inline]
pub fn clmul64(a: u64, b: u64) -> u128 {
    let mut acc: u128 = 0;
    let a = a as u128;
    for i in 0..64 {
        if (b >> i) & 1 != 0 {
            acc ^= a << i;
        }
    }
    acc
}

/// An element of GF(2¹²⁸) with the XTS/GCM polynomial
/// `x¹²⁸ + x⁷ + x² + x + 1`, stored as a little-endian 128-bit integer
/// (bit 0 of byte 0 is the constant term, the convention IEEE 1619 uses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Gf128(pub u128);

impl Gf128 {
    /// The additive identity.
    pub const ZERO: Gf128 = Gf128(0);
    /// The multiplicative identity.
    pub const ONE: Gf128 = Gf128(1);

    /// Interprets 16 little-endian bytes as a field element.
    pub fn from_bytes(bytes: [u8; 16]) -> Gf128 {
        Gf128(u128::from_le_bytes(bytes))
    }

    /// Serialises to 16 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Field addition (XOR).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, other: Gf128) -> Gf128 {
        Gf128(self.0 ^ other.0)
    }

    /// Multiplication by α = x, i.e. the XTS tweak-doubling step: shift
    /// left one bit and reduce with 0x87 on overflow (IEEE 1619 §5.2).
    #[inline]
    pub fn mul_alpha(self) -> Gf128 {
        let carry = self.0 >> 127;
        let shifted = self.0 << 1;
        Gf128(if carry != 0 { shifted ^ 0x87 } else { shifted })
    }

    /// Full field multiplication, bit-serial: 128 shift-and-reduce steps.
    /// This is the reference. The counter-mode MAC multiplies on the
    /// CPU's carry-less multiplier where CPUID reports PCLMULQDQ, and
    /// falls back to this function elsewhere.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Gf128) -> Gf128 {
        let mut acc: u128 = 0;
        let mut a = self.0;
        let mut b = other.0;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let carry = a >> 127;
            a <<= 1;
            if carry != 0 {
                a ^= 0x87;
            }
            b >>= 1;
        }
        Gf128(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf8_known_products() {
        // FIPS 197 worked example.
        assert_eq!(gf8_mul(0x57, 0x13), 0xFE);
        assert_eq!(gf8_mul(0x57, 0x83), 0xC1);
        // Identity and zero.
        for a in 0..=255u8 {
            assert_eq!(gf8_mul(a, 1), a);
            assert_eq!(gf8_mul(a, 0), 0);
        }
    }

    #[test]
    fn gf8_mul_is_commutative_and_distributive() {
        for &a in &[0x03u8, 0x57, 0xAA, 0xFF] {
            for &b in &[0x02u8, 0x13, 0x80, 0xC3] {
                assert_eq!(gf8_mul(a, b), gf8_mul(b, a));
                for &c in &[0x01u8, 0x1B, 0x9D] {
                    assert_eq!(gf8_mul(a, b ^ c), gf8_mul(a, b) ^ gf8_mul(a, c));
                }
            }
        }
    }

    #[test]
    fn xtime_matches_mul_by_two() {
        for a in 0..=255u8 {
            assert_eq!(xtime(a), gf8_mul(a, 2));
        }
    }

    #[test]
    fn gf8_inverse_is_inverse() {
        assert_eq!(gf8_inv(0), 0);
        for a in 1..=255u8 {
            assert_eq!(gf8_mul(a, gf8_inv(a)), 1, "a={a:#x}");
        }
    }

    #[test]
    fn clmul_linearity() {
        // clmul is linear in each argument: (a^b)*c == a*c ^ b*c.
        let (a, b, c) = (
            0xDEAD_BEEF_u64,
            0x1234_5678_9ABC_DEF0,
            0xFFFF_0000_FFFF_0001,
        );
        assert_eq!(clmul64(a ^ b, c), clmul64(a, c) ^ clmul64(b, c));
        assert_eq!(clmul64(a, 1), a as u128);
        assert_eq!(clmul64(a, 2), (a as u128) << 1);
    }

    #[test]
    fn gf128_alpha_doubling() {
        // Doubling 1 sixteen times is x^16.
        let mut v = Gf128::ONE;
        for _ in 0..16 {
            v = v.mul_alpha();
        }
        assert_eq!(v.0, 1u128 << 16);
        // Overflow reduces by 0x87.
        let top = Gf128(1u128 << 127);
        assert_eq!(top.mul_alpha().0, 0x87);
    }

    #[test]
    fn gf128_mul_agrees_with_alpha() {
        let x = Gf128(0xCAFE_F00D_DEAD_BEEF_0011_2233_4455_6677);
        assert_eq!(x.mul(Gf128(2)), x.mul_alpha());
        assert_eq!(x.mul(Gf128::ONE), x);
        assert_eq!(x.mul(Gf128::ZERO), Gf128::ZERO);
    }

    #[test]
    fn gf128_mul_commutative_distributive() {
        let a = Gf128(0x1111_2222_3333_4444_5555_6666_7777_8888);
        let b = Gf128(0x9999_AAAA_BBBB_CCCC_DDDD_EEEE_FFFF_0001);
        let c = Gf128(0x0F0F_F0F0_0F0F_F0F0_0F0F_F0F0_0F0F_F0F0);
        assert_eq!(a.mul(b), b.mul(a));
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }

    #[test]
    fn gf128_byte_round_trip() {
        let bytes = *b"0123456789abcdef";
        assert_eq!(Gf128::from_bytes(bytes).to_bytes(), bytes);
    }
}
