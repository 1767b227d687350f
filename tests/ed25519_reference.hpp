// Reference ed25519 for differential tests: the original TweetNaCl-layout
// implementation (radix-2^16 field, constant-time conditional-swap ladder,
// 4-bit-window verification) that src/crypto/ed25519.cpp replaced. It is
// linked only into test binaries, so libdauct keeps one implementation.
//
// Same API as crypto/ed25519.hpp, plus the scalar helpers tests need to
// craft signatures by hand. Its point decoder is the permissive one the
// optimized code tightened: it accepts y >= p and x = 0 with the sign bit
// set, which tests use to pin the strict decoder's rejections.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/ed25519.hpp"

namespace dauct::crypto::ed25519::reference {

KeyPair keypair_from_seed(const Seed& seed);
Signature sign(const KeyPair& kp, BytesView message);
bool verify(const PublicKey& pk, BytesView message, const Signature& sig);
bool verify_batch(std::span<const BatchItem> items, Rng& rng);

/// Reduce a 64-byte little-endian value mod L into its first 32 bytes.
void scalar_reduce64(std::uint8_t* h);

/// out = a·b mod L for 32-byte little-endian scalars.
void scalar_mul(std::uint8_t* out, const std::uint8_t* a, const std::uint8_t* b);

}  // namespace dauct::crypto::ed25519::reference
