//! Key material for the memory-encryption engines.
//!
//! Section IV-D's key architecture: counter mode uses a **single global
//! key** for all VMs (safe because the per-write counter makes every
//! ciphertext unique), while counterless blocks need **per-VM keys** to
//! block the ciphertext side-channel attack. All keys are derived from
//! one master secret via SHA-3 with domain separation, mirroring how
//! hardware derives keys from fuses at boot, and are "maintained in
//! hardware and completely hidden from software".

use crate::mac::CounterModeMac;
use crate::otp::OtpCipher;
use crate::sha3::sha3_256;
use crate::xts::Xts;
use clme_types::config::AesStrength;

/// Identifier of a virtual machine for per-VM counterless keys.
pub type VmId = u16;

/// All key material a memory controller holds, derived from a master
/// secret.
///
/// # Examples
///
/// ```
/// use clme_crypto::keys::KeyMaterial;
///
/// let keys = KeyMaterial::from_master([0xAB; 32]);
/// let pad = keys.otp().pad_block64(0x100, 7);
/// assert_eq!(pad, keys.otp().pad_block64(0x100, 7));
/// ```
#[derive(Clone)]
pub struct KeyMaterial {
    master: [u8; 32],
    strength: AesStrength,
    otp: OtpCipher,
    global_xts: Xts,
    mac: CounterModeMac,
    counterless_mac_key: [u8; 32],
}

impl std::fmt::Debug for KeyMaterial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("KeyMaterial")
            .field("strength", &self.strength)
            .finish_non_exhaustive()
    }
}

impl KeyMaterial {
    /// Derives AES-128 key material from a 32-byte master secret.
    pub fn from_master(master: [u8; 32]) -> KeyMaterial {
        KeyMaterial::with_strength(master, AesStrength::Aes128)
    }

    /// Derives key material with an explicit AES strength.
    pub fn with_strength(master: [u8; 32], strength: AesStrength) -> KeyMaterial {
        let otp = match strength {
            AesStrength::Aes128 => OtpCipher::new_128(derive16(&master, b"ctr-key")),
            AesStrength::Aes256 => OtpCipher::new_256(derive32(&master, b"ctr-key")),
        };
        let global_xts = Self::derive_xts(&master, strength, b"xts-global");
        let mac = CounterModeMac::from_seed(&derive32(&master, b"mac-dot"));
        let counterless_mac_key = derive32(&master, b"mac-cxl");
        KeyMaterial {
            master,
            strength,
            otp,
            global_xts,
            mac,
            counterless_mac_key,
        }
    }

    /// The AES strength these keys were derived for.
    pub fn strength(&self) -> AesStrength {
        self.strength
    }

    /// The single global counter-mode (CTR/OTP) cipher.
    pub fn otp(&self) -> &OtpCipher {
        &self.otp
    }

    /// The system-wide counterless (XTS) cipher, used when the platform
    /// runs total-memory encryption rather than per-VM encryption.
    pub fn xts(&self) -> &Xts {
        &self.global_xts
    }

    /// Derives the per-VM counterless (XTS) cipher for `vm` — distinct
    /// per-VM keys prevent the ciphertext side-channel of Section IV-D.
    pub fn xts_for_vm(&self, vm: VmId) -> Xts {
        let label = [b"xts-vm:".as_slice(), &vm.to_le_bytes()].concat();
        Self::derive_xts(&self.master, self.strength, &label)
    }

    /// The counter-mode Carter–Wegman MAC.
    pub fn counter_mode_mac(&self) -> &CounterModeMac {
        &self.mac
    }

    /// The counterless (SHA-3) MAC key.
    pub fn counterless_mac_key(&self) -> &[u8; 32] {
        &self.counterless_mac_key
    }

    fn derive_xts(master: &[u8; 32], strength: AesStrength, label: &[u8]) -> Xts {
        let data_label = [label, b":data"].concat();
        let tweak_label = [label, b":tweak"].concat();
        match strength {
            AesStrength::Aes128 => Xts::new_128(
                derive16(master, &data_label),
                derive16(master, &tweak_label),
            ),
            AesStrength::Aes256 => Xts::new_256(
                derive32(master, &data_label),
                derive32(master, &tweak_label),
            ),
        }
    }
}

fn derive32(master: &[u8; 32], label: &[u8]) -> [u8; 32] {
    sha3_256(&[b"clme:kdf:v1:".as_slice(), label, b":", master].concat())
}

fn derive16(master: &[u8; 32], label: &[u8]) -> [u8; 16] {
    derive32(master, label)[..16]
        .try_into()
        .expect("32-byte digest")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        let a = KeyMaterial::from_master([3; 32]);
        let b = KeyMaterial::from_master([3; 32]);
        assert_eq!(a.otp().pad_block64(1, 2), b.otp().pad_block64(1, 2));
        let pt = [9u8; 64];
        assert_eq!(
            a.xts().encrypt_block64(5, &pt),
            b.xts().encrypt_block64(5, &pt)
        );
    }

    #[test]
    fn different_masters_differ() {
        let a = KeyMaterial::from_master([1; 32]);
        let b = KeyMaterial::from_master([2; 32]);
        assert_ne!(a.otp().pad_block64(1, 2), b.otp().pad_block64(1, 2));
        assert_ne!(a.counterless_mac_key(), b.counterless_mac_key());
    }

    #[test]
    fn per_vm_keys_are_distinct() {
        let keys = KeyMaterial::from_master([7; 32]);
        let pt = [0x42u8; 64];
        let vm0 = keys.xts_for_vm(0).encrypt_block64(10, &pt);
        let vm1 = keys.xts_for_vm(1).encrypt_block64(10, &pt);
        let global = keys.xts().encrypt_block64(10, &pt);
        assert_ne!(vm0, vm1);
        assert_ne!(vm0, global);
        // Same VM rederives the same key.
        assert_eq!(vm0, keys.xts_for_vm(0).encrypt_block64(10, &pt));
    }

    #[test]
    fn aes256_strength_is_plumbed_through() {
        let keys = KeyMaterial::with_strength([7; 32], AesStrength::Aes256);
        assert_eq!(keys.strength(), AesStrength::Aes256);
        let pt = [1u8; 64];
        // 256-bit derivation differs from 128-bit derivation.
        let keys128 = KeyMaterial::from_master([7; 32]);
        assert_ne!(
            keys.xts().encrypt_block64(0, &pt),
            keys128.xts().encrypt_block64(0, &pt)
        );
    }

    #[test]
    fn debug_hides_master() {
        let keys = KeyMaterial::from_master([0x55; 32]);
        let repr = format!("{keys:?}");
        assert!(!repr.contains("85"), "master bytes leaked: {repr}");
        assert!(repr.contains("KeyMaterial"));
    }
}
