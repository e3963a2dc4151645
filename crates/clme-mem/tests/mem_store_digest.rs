//! Store-image pin: the SHA3-256 digest of every stored word (and the
//! root) after a seeded write/read/rekey stream on a vec-backed layer.
//!
//! Pads, data MACs, XTS ciphertexts, counter-block and tree-node MACs
//! all land in the store, so a primitive whose output moves by one bit
//! moves this digest. It pins the stored format across crypto back
//! ends: a store written on one host attaches and verifies on another.
//! A saturation threshold low enough for hot blocks to overflow keeps
//! both counter-mode and counterless blocks in the image.

use clme_crypto::sha3::sha3_256;
use clme_mem::{
    Block, EncryptionLayer, LayerOptions, MemoryAdt, StoreBackend, VecBackend, PAGE_BLOCKS,
};
use clme_types::rng::SplitMix64;

const MASTER: [u8; 32] = [0x5D; 32];
const BLOCKS: u64 = 4 * PAGE_BLOCKS + 20;

fn options() -> LayerOptions {
    LayerOptions {
        counter_saturation: 5,
        ..LayerOptions::default()
    }
}

fn random_block(rng: &mut SplitMix64) -> Block {
    let mut block = [0u8; 64];
    for chunk in block.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    block
}

fn store_digest(layer: &EncryptionLayer<VecBackend>) -> String {
    let backend = layer.backend();
    let mut image = Vec::new();
    image.extend_from_slice(&layer.root().to_le_bytes());
    for w in 0..backend.words() {
        image.extend_from_slice(&backend.read_word(w).expect("in-bounds"));
    }
    sha3_256(&image)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[test]
fn seeded_stream_store_image_is_pinned() {
    let layer =
        EncryptionLayer::with_options(VecBackend::for_blocks(BLOCKS), BLOCKS, MASTER, options())
            .expect("geometry fits");
    let mut rng = SplitMix64::new(0x5708_E1A6);
    let mut master = MASTER;
    for round in 0..40u64 {
        match rng.below(8) {
            0..=4 => {
                let len = 1 + rng.below(48) as usize;
                let hot = rng.below(BLOCKS);
                let batch: Vec<(u64, Block)> = (0..len)
                    .map(|_| {
                        let addr = if rng.below(3) == 0 {
                            hot
                        } else {
                            rng.below(BLOCKS)
                        };
                        (addr, random_block(&mut rng))
                    })
                    .collect();
                layer.batch_write(&batch).expect("in-bounds write");
            }
            5 | 6 => {
                let addrs: Vec<u64> = (0..1 + rng.below(48)).map(|_| rng.below(BLOCKS)).collect();
                layer.batch_read(&addrs).expect("in-bounds read");
            }
            _ => {
                master[..8].copy_from_slice(&round.to_le_bytes());
                layer.rekey(master).expect("rekey succeeds");
            }
        }
    }
    assert_eq!(
        store_digest(&layer),
        "ad3fec21b68e0a05b6fe28e5cf4a11ecc5478bc3486a9aad9b21c8e943430800"
    );
    // The pinned image must also attach and verify end to end.
    let root = layer.root();
    let view =
        EncryptionLayer::attach_with_options(layer.into_backend(), BLOCKS, master, root, options())
            .expect("attach");
    let all: Vec<u64> = (0..BLOCKS).collect();
    view.batch_read(&all).expect("every block verifies");
}
