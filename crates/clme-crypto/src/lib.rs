//! Cryptographic primitives for the Counter-light Memory Encryption
//! reproduction — all implemented from scratch.
//!
//! The memory-encryption designs in the paper are built from a small set of
//! primitives, each of which lives in its own module:
//!
//! * [`aes`] — AES-128 and AES-256 block ciphers (FIPS 197). The S-box is
//!   *derived* from the GF(2⁸) inversion + affine map rather than
//!   transcribed, and the implementation is validated against the FIPS 197
//!   known-answer vectors.
//! * [`gf`] — GF(2⁸) and GF(2¹²⁸) arithmetic: the xtime ladder used by
//!   MixColumns, the XTS α-multiplication, and the carry-less
//!   multiplication used by the GCM-style dot-product MAC and by the RMCC
//!   linear combiner.
//! * [`xts`] — AES-XTS, the *counterless* encryption mode used by Intel
//!   TME/MKTME/SGX2 and AMD SME/SEV (paper Fig. 2a): per-16B-word tweaks
//!   `Tweak(Address)·αʲ`.
//! * [`otp`] — AES-CTR one-time pads, the *counter mode* encryption used
//!   by SGX1 (paper Fig. 2b): one AES per 16B word over (address, counter).
//! * [`sha3`] — Keccak-f\[1600\] and SHA3-256; the counterless MAC hash
//!   (Intel MKTME uses SHA-3 for its per-block MAC), and the batched
//!   64-bit tags behind `clme-mem`'s metadata MACs.
//! * [`mac`] — the two 64-bit MAC constructions of Section II: the
//!   SHA-3-based counterless MAC and the OTP ⊕ GF-dot-product counter-mode
//!   MAC, both extended with the EncryptionMetadata input of Section IV-C.
//! * [`combine`] — OTP combiners for memoized counter mode: RMCC's linear
//!   carry-less-multiply combiner and Counter-light's barrel-shift +
//!   S-box combiner (paper Fig. 15).
//! * [`keys`] — key material derivation: the single global counter-mode
//!   key and per-VM counterless keys (Section IV-D).
//!
//! AES encryption and the counter-mode MAC's GF(2¹²⁸) dot product run on
//! the CPU's AES-NI and PCLMULQDQ units where CPUID reports them, chosen
//! once when a cipher or MAC is built; batched SHA-3 tags
//! ([`sha3::sha3_tag64_batch`]) run eight Keccak states per permutation
//! on AVX-512F. The portable code stays the reference and the only path
//! elsewhere; both produce identical bytes.
//! All of the crate's `unsafe` code is in one private module, `hw`.
//!
//! # Examples
//!
//! ```
//! use clme_crypto::aes::Aes;
//!
//! let aes = Aes::new_128([0u8; 16]);
//! let ct = aes.encrypt_block([0u8; 16]);
//! assert_eq!(aes.decrypt_block(ct), [0u8; 16]);
//! ```

pub mod aes;
pub mod combine;
pub mod gf;
mod hw;
pub mod keys;
pub mod mac;
pub mod otp;
pub mod sha3;
pub mod xts;

pub use aes::Aes;
pub use keys::KeyMaterial;
pub use otp::OtpCipher;
pub use xts::Xts;
