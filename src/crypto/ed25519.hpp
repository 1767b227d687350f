// Ed25519 signatures (RFC 8032), implemented from scratch.
//
// Vendored next to sha256/hmac so the signing layer has no external
// dependency. The design follows Bernstein et al., "High-speed
// high-security signatures" (CHES 2011):
//
//  * Field: GF(2^255 - 19) in five 51-bit limbs, products accumulated in
//    unsigned __int128, with a dedicated squaring and fixed addition chains
//    for inversion and the square-root exponent (p-5)/8.
//  * Group: extended twisted-Edwards coordinates with the complete a = -1
//    addition law, plus the projective, completed, cached and affine forms
//    that drop multiplications from doubling and addition.
//  * Key generation and signing (secret scalars): signed radix-16 windows
//    over a fixed-base table of j·256^i·B (32 rows of 8 affine points, ~30 KB,
//    built once on first use, thread-safe). Every lookup scans the whole row
//    with constant-time moves and negates in constant time, so neither
//    branches nor memory addresses depend on the secret.
//  * Verification (public data only): variable-time width-5 NAF with
//    Straus's interleaving; verify() is the two-term s·B - h·A case.
//
// verify_batch() implements small-exponent batch verification: for random
// 128-bit coefficients z_i it checks
//
//     (sum z_i s_i) B  ==  sum z_i R_i + sum (z_i h_i) A_i
//
// as one multi-scalar multiplication over all 2n+1 points that shares a
// single chain of doublings (the R_i terms use half-length scalars) — the
// round-batch amortization the auth layer benches (BM_auth_verify_batch).
// A failing batch says only "at least one bad signature": callers fall back
// to individual verify() to attribute blame.
//
// Signatures are deterministic (RFC 8032 nonce derivation), which the
// golden-fingerprint equivalence tests rely on. Non-canonical signatures
// (s >= L) are rejected, and point decoding is strict (RFC 8032 §5.1.3):
// an encoded y >= p, or x = 0 with the sign bit set, is not a point. Side
// channels beyond the constant-time secret-scalar path (cache-line
// scrubbing, table masking, zeroizing secrets) are out of scope for the
// research simulator; see docs/AUTH.md.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.hpp"
#include "crypto/rng.hpp"

namespace dauct::crypto::ed25519 {

using Seed = std::array<std::uint8_t, 32>;       ///< secret key material
using PublicKey = std::array<std::uint8_t, 32>;  ///< compressed point A
using Signature = std::array<std::uint8_t, 64>;  ///< R (32) || s (32)

struct KeyPair {
  Seed seed;
  PublicKey public_key;
};

/// Derive the keypair for a 32-byte seed (RFC 8032 §5.1.5).
KeyPair keypair_from_seed(const Seed& seed);

/// Sign `message` (detached, deterministic).
Signature sign(const KeyPair& kp, BytesView message);

/// Verify a detached signature. False on bad or non-canonical point
/// encodings, non-canonical s, or signature mismatch — never throws.
bool verify(const PublicKey& pk, BytesView message, const Signature& sig);

/// One signature of a batch. Pointers are borrowed for the call.
struct BatchItem {
  const PublicKey* public_key = nullptr;
  BytesView message;
  const Signature* signature = nullptr;
};

/// Small-exponent batch verification. True iff every signature in `items`
/// is valid (empty batch: true). `rng` supplies the random coefficients —
/// any stream works; the caller chooses determinism (a fixed-seed Rng) or
/// not. On false, at least one item is invalid; verify() each to attribute.
bool verify_batch(std::span<const BatchItem> items, Rng& rng);

}  // namespace dauct::crypto::ed25519
