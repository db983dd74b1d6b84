//! Per-HOP secret keys and key epochs for receipt binding.
//!
//! A [`HopKey`] is 32 bytes of secret material. It authenticates a
//! receipt at two layers:
//!
//! * the full 32 bytes key the HMAC-SHA-256 trailer over the encoded
//!   wire frame ([`HopKey::mac`]) — the real binding;
//! * the first 8 bytes, read little-endian, double as the legacy
//!   `lookup3` tag key ([`HopKey::tag_key`]) that signs the
//!   in-batch `auth_tag` field — kept so every historical tag value
//!   (and the pinned golden frames) survives the upgrade unchanged.
//!
//! [`KeyEpoch`] names which rotation generation of a HOP's key signed
//! a given frame. The transport stores every epoch it has seen, so
//! receipts published before a rotation keep verifying; a frame
//! claiming an epoch the transport never registered is rejected.

use crate::sha256::{hmac_sha256, mac_eq, sha256, SHA256_DIGEST_BYTES};

/// A HOP's 32-byte secret MAC key.
///
/// Deliberately opaque: `Debug` redacts the material so keys cannot
/// leak through logs or assertion messages, and `==` runs in constant
/// time (see [`mac_eq`]) so a comparison cannot leak how many leading
/// bytes two keys share.
#[derive(Clone, Copy, Eq)]
pub struct HopKey {
    material: [u8; SHA256_DIGEST_BYTES],
}

impl PartialEq for HopKey {
    fn eq(&self, other: &Self) -> bool {
        mac_eq(&self.material, &other.material)
    }
}

impl core::hash::Hash for HopKey {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.material.hash(state);
    }
}

impl core::fmt::Debug for HopKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "HopKey(tag_key={:#x}, ..)", self.tag_key())
    }
}

impl HopKey {
    /// Wrap explicit 32-byte key material.
    pub fn from_bytes(material: [u8; SHA256_DIGEST_BYTES]) -> Self {
        HopKey { material }
    }

    /// Derive a key from a 64-bit seed, for the simulator and tests.
    ///
    /// The seed becomes the first 8 bytes verbatim — so
    /// `HopKey::from_seed(s).tag_key() == s`, and every pre-existing
    /// `compute_tag(s)` call site keeps producing the same in-batch
    /// tag — and the remaining 24 bytes are SHA-256 expansion of the
    /// seed under a domain-separation label.
    pub fn from_seed(seed: u64) -> Self {
        let mut input = [0u8; 21];
        input[..13].copy_from_slice(b"VPM-HOPKEY-V1");
        input[13..].copy_from_slice(&seed.to_le_bytes());
        let expanded = sha256(&input);
        let mut material = [0u8; SHA256_DIGEST_BYTES];
        material[..8].copy_from_slice(&seed.to_le_bytes());
        material[8..].copy_from_slice(&expanded[..24]);
        HopKey { material }
    }

    /// The raw key material (e.g. to persist a registration).
    pub fn as_bytes(&self) -> &[u8; SHA256_DIGEST_BYTES] {
        &self.material
    }

    /// The legacy 64-bit `lookup3` tag key: the first 8 key bytes,
    /// little-endian. Signs `ReceiptBatch::auth_tag`.
    pub fn tag_key(&self) -> u64 {
        u64::from_le_bytes(self.material[..8].try_into().expect("8-byte prefix"))
    }

    /// HMAC-SHA-256 over `msg` under this key.
    pub fn mac(&self, msg: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
        hmac_sha256(&self.material, msg)
    }
}

/// Which rotation generation of a HOP's key signed a frame.
///
/// Epoch 0 is the first registration; each explicit rotation on the
/// transport bumps it by one. Ordered so "newest epoch" is
/// `max`-comparable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct KeyEpoch(pub u32);

impl core::fmt::Display for KeyEpoch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_preserves_the_legacy_tag_key() {
        for seed in [0u64, 1, 0xabc, 0x5650_4d00 ^ 4, u64::MAX] {
            assert_eq!(HopKey::from_seed(seed).tag_key(), seed);
        }
    }

    #[test]
    fn seed_derivation_is_deterministic_and_seed_sensitive() {
        let a = HopKey::from_seed(7);
        assert_eq!(a, HopKey::from_seed(7));
        let b = HopKey::from_seed(8);
        assert_ne!(a.as_bytes(), b.as_bytes());
        // The expanded tail differs even between adjacent seeds.
        assert_ne!(a.as_bytes()[8..], b.as_bytes()[8..]);
    }

    #[test]
    fn mac_depends_on_full_material_not_just_the_tag_prefix() {
        // Two keys sharing the first 8 bytes (same legacy tag key)
        // must still produce different MACs.
        let mut m1 = [0u8; 32];
        let mut m2 = [0u8; 32];
        m1[..8].copy_from_slice(&0xabcu64.to_le_bytes());
        m2[..8].copy_from_slice(&0xabcu64.to_le_bytes());
        m2[31] = 1;
        let k1 = HopKey::from_bytes(m1);
        let k2 = HopKey::from_bytes(m2);
        assert_eq!(k1.tag_key(), k2.tag_key());
        assert_ne!(k1.mac(b"frame"), k2.mac(b"frame"));
        // And the MAC is message-sensitive.
        assert_ne!(k1.mac(b"frame"), k1.mac(b"fram3"));
    }

    #[test]
    fn equality_sees_every_byte() {
        let base = HopKey::from_seed(0x5eed);
        assert_eq!(base, HopKey::from_bytes(*base.as_bytes()));
        for i in [0, 31] {
            let mut m = *base.as_bytes();
            m[i] ^= 1;
            assert_ne!(base, HopKey::from_bytes(m), "byte {i}");
        }
    }

    #[test]
    fn debug_redacts_key_material() {
        let k = HopKey::from_seed(0xdead);
        let s = format!("{k:?}");
        assert!(s.contains("tag_key"));
        assert!(s.ends_with("..)"));
        // The expanded secret tail never appears in Debug output.
        let tail_hex: String = k.as_bytes()[8..]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert!(!s.contains(&tail_hex[..8]));
    }
}
