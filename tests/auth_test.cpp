// Tests for the signing layer: the vendored SHA-512/ed25519 primitives
// (known-answer vectors from FIPS 180-4 and RFC 8032) and, above them, the
// sign-on-send / verify-on-deliver message-auth boundary.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/adapters.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/rng.hpp"
#include "ed25519_reference.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "net/auth.hpp"
#include "net/message.hpp"
#include "runtime/sim_runtime.hpp"
#include "serde/auction_codec.hpp"
#include "test_util.hpp"

namespace dauct {
namespace {

using crypto::ed25519::BatchItem;
using crypto::ed25519::KeyPair;
using crypto::ed25519::PublicKey;
using crypto::ed25519::Seed;
using crypto::ed25519::Signature;

std::string hex(const std::uint8_t* data, std::size_t n) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(kDigits[data[i] >> 4]);
    out.push_back(kDigits[data[i] & 0xf]);
  }
  return out;
}

template <std::size_t N>
std::array<std::uint8_t, N> from_hex(std::string_view h) {
  std::array<std::uint8_t, N> out{};
  EXPECT_EQ(h.size(), 2 * N);
  auto nib = [](char c) -> std::uint8_t {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = static_cast<std::uint8_t>((nib(h[2 * i]) << 4) | nib(h[2 * i + 1]));
  }
  return out;
}

BytesView view(const std::string& s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

TEST(Sha512, AbcVector) {
  const auto d = crypto::sha512(view("abc"));
  EXPECT_EQ(hex(d.data(), d.size()),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, MillionAStreaming) {
  // FIPS 180-4 long vector; also exercises the buffered multi-block path by
  // feeding chunk sizes that straddle the 128-byte block boundary.
  crypto::Sha512 h;
  const std::string chunk(257, 'a');
  std::size_t fed = 0;
  while (fed + chunk.size() <= 1000000) {
    h.update(view(chunk));
    fed += chunk.size();
  }
  h.update(view(std::string(1000000 - fed, 'a')));
  const auto d = h.finish();
  EXPECT_EQ(hex(d.data(), d.size()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512, OneShotMatchesChunked) {
  const std::string msg(517, 'x');
  crypto::Sha512 h;
  for (std::size_t i = 0; i < msg.size(); i += 13) {
    h.update(view(msg.substr(i, 13)));
  }
  EXPECT_EQ(h.finish(), crypto::sha512(view(msg)));
}

struct Rfc8032Vector {
  const char* seed;
  const char* public_key;
  const char* message;  ///< hex
  const char* signature;
};

std::string unhex(std::string_view h) {
  std::string out;
  for (std::size_t i = 0; i + 1 < h.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(std::string(h.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

// RFC 8032 §7.1: TEST 1, TEST 2, TEST 3, TEST 1024 and TEST SHA(abc).
const Rfc8032Vector kRfcVectors[] = {
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
     "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
     "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
    {"f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5",
     "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e",
     "08b8b2b733424243760fe426a4b54908632110a66c2f6591eabd3345e3e4eb98"
     "fa6e264bf09efe12ee50f8f54e9f77b1e355f6c50544e23fb1433ddf73be84d8"
     "79de7c0046dc4996d9e773f4bc9efe5738829adb26c81b37c93a1b270b20329d"
     "658675fc6ea534e0810a4432826bf58c941efb65d57a338bbd2e26640f89ffbc"
     "1a858efcb8550ee3a5e1998bd177e93a7363c344fe6b199ee5d02e82d522c4fe"
     "ba15452f80288a821a579116ec6dad2b3b310da903401aa62100ab5d1a36553e"
     "06203b33890cc9b832f79ef80560ccb9a39ce767967ed628c6ad573cb116dbef"
     "efd75499da96bd68a8a97b928a8bbc103b6621fcde2beca1231d206be6cd9ec7"
     "aff6f6c94fcd7204ed3455c68c83f4a41da4af2b74ef5c53f1d8ac70bdcb7ed1"
     "85ce81bd84359d44254d95629e9855a94a7c1958d1f8ada5d0532ed8a5aa3fb2"
     "d17ba70eb6248e594e1a2297acbbb39d502f1a8c6eb6f1ce22b3de1a1f40cc24"
     "554119a831a9aad6079cad88425de6bde1a9187ebb6092cf67bf2b13fd65f270"
     "88d78b7e883c8759d2c4f5c65adb7553878ad575f9fad878e80a0c9ba63bcbcc"
     "2732e69485bbc9c90bfbd62481d9089beccf80cfe2df16a2cf65bd92dd597b07"
     "07e0917af48bbb75fed413d238f5555a7a569d80c3414a8d0859dc65a46128ba"
     "b27af87a71314f318c782b23ebfe808b82b0ce26401d2e22f04d83d1255dc51a"
     "ddd3b75a2b1ae0784504df543af8969be3ea7082ff7fc9888c144da2af58429e"
     "c96031dbcad3dad9af0dcbaaaf268cb8fcffead94f3c7ca495e056a9b47acdb7"
     "51fb73e666c6c655ade8297297d07ad1ba5e43f1bca32301651339e22904cc8c"
     "42f58c30c04aafdb038dda0847dd988dcda6f3bfd15c4b4c4525004aa06eeff8"
     "ca61783aacec57fb3d1f92b0fe2fd1a85f6724517b65e614ad6808d6f6ee34df"
     "f7310fdc82aebfd904b01e1dc54b2927094b2db68d6f903b68401adebf5a7e08"
     "d78ff4ef5d63653a65040cf9bfd4aca7984a74d37145986780fc0b16ac451649"
     "de6188a7dbdf191f64b5fc5e2ab47b57f7f7276cd419c17a3ca8e1b939ae49e4"
     "88acba6b965610b5480109c8b17b80e1b7b750dfc7598d5d5011fd2dcc5600a3"
     "2ef5b52a1ecc820e308aa342721aac0943bf6686b64b2579376504ccc493d97e"
     "6aed3fb0f9cd71a43dd497f01f17c0e2cb3797aa2a2f256656168e6c496afc5f"
     "b93246f6b1116398a346f1a641f3b041e989f7914f90cc2c7fff357876e506b5"
     "0d334ba77c225bc307ba537152f3f1610e4eafe595f6d9d90d11faa933a15ef1"
     "369546868a7f3a45a96768d40fd9d03412c091c6315cf4fde7cb68606937380d"
     "b2eaaa707b4c4185c32eddcdd306705e4dc1ffc872eeee475a64dfac86aba41c"
     "0618983f8741c5ef68d3a101e8a3b8cac60c905c15fc910840b94c00a0b9d0",
     "0aab4c900501b3e24d7cdf4663326a3a87df5e4843b2cbdb67cbf6e460fec350"
     "aa5371b1508f9f4528ecea23c436d94b5e8fcd4f681e30a6ac00a9704a188a03"},
    {"833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
     "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
     "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
     "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
     "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589"
     "09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"},
};

TEST(Ed25519, Rfc8032KeyDerivation) {
  for (const auto& v : kRfcVectors) {
    const KeyPair kp = crypto::ed25519::keypair_from_seed(from_hex<32>(v.seed));
    EXPECT_EQ(hex(kp.public_key.data(), 32), v.public_key);
  }
}

TEST(Ed25519, Rfc8032SignVectors) {
  for (const auto& v : kRfcVectors) {
    const KeyPair kp = crypto::ed25519::keypair_from_seed(from_hex<32>(v.seed));
    const Signature sig = crypto::ed25519::sign(kp, view(unhex(v.message)));
    EXPECT_EQ(hex(sig.data(), 64), v.signature);
  }
}

TEST(Ed25519, Rfc8032VerifyVectors) {
  for (const auto& v : kRfcVectors) {
    const auto pk = from_hex<32>(v.public_key);
    const auto sig = from_hex<64>(v.signature);
    EXPECT_TRUE(crypto::ed25519::verify(pk, view(unhex(v.message)), sig));
  }
}

TEST(Ed25519, RejectsTamperedMessageAndSignature) {
  const KeyPair kp =
      crypto::ed25519::keypair_from_seed(from_hex<32>(kRfcVectors[0].seed));
  const std::string msg = "round 3: bid vector";
  const Signature sig = crypto::ed25519::sign(kp, view(msg));
  ASSERT_TRUE(crypto::ed25519::verify(kp.public_key, view(msg), sig));

  EXPECT_FALSE(crypto::ed25519::verify(kp.public_key, view(msg + "!"), sig));
  for (std::size_t i : {std::size_t{0}, std::size_t{31}, std::size_t{63}}) {
    Signature bad = sig;
    bad[i] ^= 0x01;
    EXPECT_FALSE(crypto::ed25519::verify(kp.public_key, view(msg), bad));
  }
  PublicKey wrong = kp.public_key;
  wrong[5] ^= 0x40;
  EXPECT_FALSE(crypto::ed25519::verify(wrong, view(msg), sig));
}

TEST(Ed25519, RejectsNonCanonicalScalar) {
  const KeyPair kp =
      crypto::ed25519::keypair_from_seed(from_hex<32>(kRfcVectors[0].seed));
  const std::string msg = "m";
  Signature sig = crypto::ed25519::sign(kp, view(msg));
  // s += L: same value mod L but non-canonical encoding; must be rejected,
  // not accepted as a second valid signature (malleability).
  const std::uint8_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                               0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                               0,    0,    0,    0,    0,    0,    0,    0,
                               0,    0,    0,    0,    0,    0,    0,    0x10};
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    const unsigned sum = sig[32 + i] + kL[i] + carry;
    sig[32 + i] = static_cast<std::uint8_t>(sum & 0xff);
    carry = sum >> 8;
  }
  EXPECT_FALSE(crypto::ed25519::verify(kp.public_key, view(msg), sig));
}

TEST(Ed25519, BatchVerifyAcceptsValidBatch) {
  crypto::Rng rng(0x5eedULL);
  std::vector<KeyPair> keys;
  std::vector<std::string> msgs;
  std::vector<Signature> sigs;
  for (int i = 0; i < 8; ++i) {
    Seed seed{};
    seed[0] = static_cast<std::uint8_t>(i + 1);
    seed[17] = 0xc3;
    keys.push_back(crypto::ed25519::keypair_from_seed(seed));
    msgs.push_back("payload #" + std::to_string(i));
  }
  for (int i = 0; i < 8; ++i) sigs.push_back(crypto::ed25519::sign(keys[i], view(msgs[i])));

  std::vector<BatchItem> items;
  for (int i = 0; i < 8; ++i) {
    items.push_back({&keys[i].public_key, view(msgs[i]), &sigs[i]});
  }
  EXPECT_TRUE(crypto::ed25519::verify_batch(items, rng));
  EXPECT_TRUE(crypto::ed25519::verify_batch({}, rng));
}

TEST(Ed25519, BatchVerifyRejectsOneBadSignature) {
  crypto::Rng rng(0xbadULL);
  std::vector<KeyPair> keys;
  std::vector<std::string> msgs;
  std::vector<Signature> sigs;
  for (int i = 0; i < 5; ++i) {
    Seed seed{};
    seed[3] = static_cast<std::uint8_t>(0x80 + i);
    keys.push_back(crypto::ed25519::keypair_from_seed(seed));
    msgs.push_back("vote " + std::to_string(i));
    sigs.push_back(crypto::ed25519::sign(keys.back(), view(msgs.back())));
  }
  sigs[3][7] ^= 0x20;  // corrupt R of one signature

  std::vector<BatchItem> items;
  for (int i = 0; i < 5; ++i) {
    items.push_back({&keys[i].public_key, view(msgs[i]), &sigs[i]});
  }
  // Run several times: the random coefficients must not mask the bad item.
  for (int trial = 0; trial < 4; ++trial) {
    EXPECT_FALSE(crypto::ed25519::verify_batch(items, rng));
  }
}

TEST(Ed25519, BatchVerifyRejectsSwappedMessages) {
  crypto::Rng rng(0x77ULL);
  Seed s1{}, s2{};
  s1[0] = 1;
  s2[0] = 2;
  const KeyPair k1 = crypto::ed25519::keypair_from_seed(s1);
  const KeyPair k2 = crypto::ed25519::keypair_from_seed(s2);
  const std::string m1 = "alpha", m2 = "beta";
  const Signature g1 = crypto::ed25519::sign(k1, view(m1));
  const Signature g2 = crypto::ed25519::sign(k2, view(m2));
  // Each signature is individually valid — but attributed to the wrong
  // message. The batch must notice the cross-wiring.
  std::vector<BatchItem> items = {{&k1.public_key, view(m2), &g1},
                                  {&k2.public_key, view(m1), &g2}};
  EXPECT_FALSE(crypto::ed25519::verify_batch(items, rng));
}

TEST(Ed25519, SignIsDeterministic) {
  Seed seed{};
  seed[31] = 0x5a;
  const KeyPair kp = crypto::ed25519::keypair_from_seed(seed);
  const std::string msg = "determinism keeps golden fingerprints stable";
  EXPECT_EQ(crypto::ed25519::sign(kp, view(msg)),
            crypto::ed25519::sign(kp, view(msg)));
}

// ---------------------------------------------------------------------------
// Strict point decoding (RFC 8032 §5.1.3): y >= p and x = 0 with the sign
// bit set are rejected. The permissive reference decoder maps both to a
// valid point, which let a key holder get a batch to accept a signature
// that single verification rejects.
// ---------------------------------------------------------------------------

using Encoding = std::array<std::uint8_t, 32>;

// The identity (0, 1), canonically and in the two encodings a strict
// decoder rejects: y = p + 1, and y = 1 with the sign bit set.
const Encoding kIdentity = from_hex<32>(
    "0100000000000000000000000000000000000000000000000000000000000000");
const Encoding kIdentityYPlusP = from_hex<32>(
    "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
const Encoding kIdentityNegZero = from_hex<32>(
    "0100000000000000000000000000000000000000000000000000000000000080");

/// A signature by `kp` with R = `r` and s = H(R,A,M)·a mod L, so that
/// s·B - H(R,A,M)·A is the identity: it passes for any decoder that reads
/// `r` as the identity.
Signature identity_r_signature(const KeyPair& kp, BytesView message,
                               const Encoding& r) {
  crypto::Digest64 a = crypto::sha512(BytesView(kp.seed.data(), kp.seed.size()));
  a[0] &= 248;
  a[31] &= 127;
  a[31] |= 64;
  crypto::Sha512 h;
  h.update(BytesView(r.data(), r.size()));
  h.update(BytesView(kp.public_key.data(), kp.public_key.size()));
  h.update(message);
  crypto::Digest64 k = h.finish();
  crypto::ed25519::reference::scalar_reduce64(k.data());
  Signature sig{};
  std::copy(r.begin(), r.end(), sig.begin());
  crypto::ed25519::reference::scalar_mul(sig.data() + 32, k.data(), a.data());
  return sig;
}

TEST(Ed25519, StrictDecodingRejectsNonCanonicalR) {
  const KeyPair kp =
      crypto::ed25519::keypair_from_seed(from_hex<32>(kRfcVectors[0].seed));
  const std::string msg = "round 7: output vector";
  // Control: with the canonical identity encoding this is a valid signature.
  const Signature canonical = identity_r_signature(kp, view(msg), kIdentity);
  EXPECT_TRUE(crypto::ed25519::verify(kp.public_key, view(msg), canonical));

  for (const Encoding& r : {kIdentityYPlusP, kIdentityNegZero}) {
    SCOPED_TRACE(hex(r.data(), r.size()));
    const Signature sig = identity_r_signature(kp, view(msg), r);
    const BatchItem item{&kp.public_key, view(msg), &sig};
    crypto::Rng rng(0x51ULL), ref_rng(0x51ULL);
    EXPECT_FALSE(crypto::ed25519::verify(kp.public_key, view(msg), sig));
    EXPECT_FALSE(crypto::ed25519::verify_batch({&item, 1}, rng));
    // The hole being closed: the permissive decoder's batch accepts what
    // its own single verify rejects.
    EXPECT_FALSE(crypto::ed25519::reference::verify(kp.public_key, view(msg), sig));
    EXPECT_TRUE(crypto::ed25519::reference::verify_batch({&item, 1}, ref_rng));
  }
}

TEST(Ed25519, StrictDecodingRejectsNonCanonicalPublicKey) {
  // Under A = identity, (R, s) = (B, 1) verifies for every message, since
  // s·B - H·A = B. Only the canonical encoding of that A may be accepted.
  Signature sig{};
  const Encoding base = from_hex<32>(
      "5866666666666666666666666666666666666666666666666666666666666666");
  std::copy(base.begin(), base.end(), sig.begin());
  sig[32] = 1;
  const std::string msg = "any message at all";
  EXPECT_TRUE(crypto::ed25519::verify(kIdentity, view(msg), sig));

  for (const Encoding& a : {kIdentityYPlusP, kIdentityNegZero}) {
    SCOPED_TRACE(hex(a.data(), a.size()));
    const BatchItem item{&a, view(msg), &sig};
    crypto::Rng rng(0x52ULL);
    EXPECT_FALSE(crypto::ed25519::verify(a, view(msg), sig));
    EXPECT_FALSE(crypto::ed25519::verify_batch({&item, 1}, rng));
    EXPECT_TRUE(crypto::ed25519::reference::verify(a, view(msg), sig));
  }
}

// ---------------------------------------------------------------------------
// The message-auth boundary: SignerEndpoint framing, MessageValidator
// verdicts, transferable equivocation proofs, and the auditor sweep.
// ---------------------------------------------------------------------------

/// A validly signed frame exactly as SignerEndpoint would put it on the wire.
SharedBytes make_frame(const net::KeyDirectory& keys, NodeId sender,
                       const std::string& topic, Bytes payload) {
  const crypto::Digest t =
      net::auth_transcript(sender, topic, BytesView(payload));
  const Signature sig = crypto::ed25519::sign(keys.pair(sender), BytesView(t));
  Bytes frame;
  frame.reserve(net::kAuthHeaderBytes + payload.size());
  frame.push_back(net::kAuthMagic);
  append(frame, BytesView(sig));
  append(frame, BytesView(payload));
  return SharedBytes(std::move(frame));
}

net::AuthConfig eager_auth() {
  net::AuthConfig cfg;
  cfg.enable = true;
  return cfg;
}

TEST(AuthLayer, ValidFrameIsVerifiedAndStripped) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthStats stats;
  net::MessageValidator v(0, keys, eager_auth(), 7, &stats);

  const Bytes payload = {1, 2, 3, 4};
  net::Message msg{1, 0, "t/round", make_frame(*keys, 1, "t/round", payload)};
  ASSERT_EQ(v.on_deliver(msg), net::MessageValidator::Action::kDeliver);
  EXPECT_EQ(msg.payload, payload) << "signature header must be stripped";
  EXPECT_EQ(stats.verified_eager, 1u);
  ASSERT_EQ(v.records().size(), 1u);
  EXPECT_EQ(v.records()[0].sender, 1u);
}

TEST(AuthLayer, ClientAndLinkControlTrafficIsExempt) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthStats stats;
  net::MessageValidator v(0, keys, eager_auth(), 7, &stats);

  // Client traffic (from >= m): unsigned, passes untouched.
  net::Message client{3, 0, "bids", SharedBytes(Bytes{9, 9})};
  EXPECT_EQ(v.on_deliver(client), net::MessageValidator::Action::kDeliver);
  EXPECT_EQ(client.payload, (Bytes{9, 9}));
  // Reliability-layer control frames originate below the signer: exempt.
  net::Message ack{1, 0, net::kAckTopicName, SharedBytes(Bytes{8})};
  EXPECT_EQ(v.on_deliver(ack), net::MessageValidator::Action::kDeliver);
  EXPECT_EQ(stats.verified_eager, 0u);
  EXPECT_EQ(stats.rejected_malformed, 0u);
}

TEST(AuthLayer, ForgedFrameIsRejectedWithoutAbort) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthStats stats;
  net::MessageValidator v(0, keys, eager_auth(), 7, &stats);

  // A frame whose payload was tampered after signing: signature invalid.
  Bytes forged = make_frame(*keys, 1, "t/round", Bytes{1, 2, 3}).to_bytes();
  forged[net::kAuthHeaderBytes] ^= 0x5a;
  net::Message bad{1, 0, "t/round", SharedBytes(std::move(forged))};
  EXPECT_EQ(v.on_deliver(bad), net::MessageValidator::Action::kDrop);
  EXPECT_EQ(stats.rejected_bad_sig, 1u);
  EXPECT_FALSE(v.proof().has_value());

  // The honest frame still goes through — rejection is not an abort.
  net::Message good{1, 0, "t/round", make_frame(*keys, 1, "t/round", {1, 2, 3})};
  EXPECT_EQ(v.on_deliver(good), net::MessageValidator::Action::kDeliver);

  // Anti-framing: a forged *conflicting* frame against an occupied slot is
  // dropped, not treated as equivocation — an attacker without the key must
  // not be able to frame an honest sender.
  Bytes conflict = make_frame(*keys, 1, "t/round", Bytes{7, 7, 7}).to_bytes();
  conflict[net::kAuthHeaderBytes] ^= 0x11;
  net::Message framed{1, 0, "t/round", SharedBytes(std::move(conflict))};
  EXPECT_EQ(v.on_deliver(framed), net::MessageValidator::Action::kDrop);
  EXPECT_EQ(stats.rejected_bad_sig, 2u);
  EXPECT_FALSE(v.proof().has_value());
  EXPECT_EQ(stats.equivocations, 0u);
}

TEST(AuthLayer, TruncatedAndGarbageHeadersAreRejected) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthStats stats;
  net::MessageValidator v(0, keys, eager_auth(), 7, &stats);

  const auto drop = net::MessageValidator::Action::kDrop;
  net::Message empty{1, 0, "t/round", SharedBytes(Bytes{})};
  EXPECT_EQ(v.on_deliver(empty), drop);
  net::Message truncated{1, 0, "t/round",
                         SharedBytes(Bytes(net::kAuthHeaderBytes - 1,
                                           net::kAuthMagic))};
  EXPECT_EQ(v.on_deliver(truncated), drop);
  net::Message unsigned_frame{1, 0, "t/round", SharedBytes(Bytes(80, 0x42))};
  EXPECT_EQ(v.on_deliver(unsigned_frame), drop);
  EXPECT_EQ(stats.rejected_malformed, 3u);

  // None of it poisoned the slot: the honest frame still delivers.
  net::Message good{1, 0, "t/round", make_frame(*keys, 1, "t/round", {5})};
  EXPECT_EQ(v.on_deliver(good), net::MessageValidator::Action::kDeliver);
}

TEST(AuthLayer, ReplayedFrameIsSwallowed) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthStats stats;
  net::MessageValidator v(0, keys, eager_auth(), 7, &stats);

  const SharedBytes frame = make_frame(*keys, 1, "t/round", {1, 2, 3});
  net::Message first{1, 0, "t/round", frame};
  EXPECT_EQ(v.on_deliver(first), net::MessageValidator::Action::kDeliver);
  net::Message replayed{1, 0, "t/round", frame};
  EXPECT_EQ(v.on_deliver(replayed), net::MessageValidator::Action::kDrop);
  EXPECT_EQ(stats.replays_dropped, 1u);
  EXPECT_FALSE(v.proof().has_value()) << "a replay is not equivocation";
}

TEST(AuthLayer, EquivocationYieldsATransferableProof) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthStats stats;
  net::MessageValidator v(0, keys, eager_auth(), 7, &stats);

  net::Message a{1, 0, "t/round", make_frame(*keys, 1, "t/round", {1, 1})};
  ASSERT_EQ(v.on_deliver(a), net::MessageValidator::Action::kDeliver);
  net::Message b{1, 0, "t/round", make_frame(*keys, 1, "t/round", {2, 2})};
  EXPECT_EQ(v.on_deliver(b), net::MessageValidator::Action::kAbort);
  EXPECT_EQ(stats.equivocations, 1u);
  EXPECT_NE(v.abort_detail().find("provider 1"), std::string::npos);

  // The proof is transferable: an independent verifier holding nothing but
  // the accused signer's public key accepts it...
  ASSERT_TRUE(v.proof().has_value());
  const net::EquivocationProof& proof = *v.proof();
  EXPECT_EQ(proof.signer, 1u);
  EXPECT_TRUE(net::verify_equivocation_proof(proof, keys->public_key(1)));
  // ...and it does not incriminate anyone else,
  EXPECT_FALSE(net::verify_equivocation_proof(proof, keys->public_key(2)));
  // nor survive tampering,
  net::EquivocationProof tampered = proof;
  Bytes twisted = tampered.payload2.to_bytes();
  twisted[0] ^= 0xff;
  tampered.payload2 = SharedBytes(std::move(twisted));
  EXPECT_FALSE(net::verify_equivocation_proof(tampered, keys->public_key(1)));
  // nor hold with identical payloads (no conflict, no proof).
  net::EquivocationProof same = proof;
  same.payload2 = same.payload1;
  same.sig2 = same.sig1;
  EXPECT_FALSE(net::verify_equivocation_proof(same, keys->public_key(1)));
}

TEST(AuthLayer, SplitEquivocationIsCaughtByTheAuditorSweep) {
  // The equivocator sends conflicting payloads to *different* receivers: no
  // single validator sees a conflict, but the post-run sweep does.
  const auto keys = std::make_shared<net::KeyDirectory>(4, 42);
  net::MessageValidator v0(0, keys, eager_auth(), 7, nullptr);
  net::MessageValidator v2(2, keys, eager_auth(), 9, nullptr);

  net::Message to0{1, 0, "t/round", make_frame(*keys, 1, "t/round", {1, 1})};
  ASSERT_EQ(v0.on_deliver(to0), net::MessageValidator::Action::kDeliver);
  net::Message to2{1, 2, "t/round", make_frame(*keys, 1, "t/round", {2, 2})};
  ASSERT_EQ(v2.on_deliver(to2), net::MessageValidator::Action::kDeliver);
  EXPECT_FALSE(v0.proof() || v2.proof()) << "locally everything looked fine";

  const auto proof = net::audit_equivocation({&v0, &v2}, *keys);
  ASSERT_TRUE(proof.has_value());
  EXPECT_EQ(proof->signer, 1u);
  EXPECT_EQ(proof->topic, "t/round");
  EXPECT_TRUE(net::verify_equivocation_proof(*proof, keys->public_key(1)));

  // Consistent broadcasts must NOT trigger the auditor.
  net::MessageValidator w0(0, keys, eager_auth(), 7, nullptr);
  net::MessageValidator w2(2, keys, eager_auth(), 9, nullptr);
  net::Message c0{3, 0, "t/next", make_frame(*keys, 3, "t/next", {6})};
  net::Message c2{3, 2, "t/next", make_frame(*keys, 3, "t/next", {6})};
  ASSERT_EQ(w0.on_deliver(c0), net::MessageValidator::Action::kDeliver);
  ASSERT_EQ(w2.on_deliver(c2), net::MessageValidator::Action::kDeliver);
  EXPECT_FALSE(net::audit_equivocation({&w0, &w2}, *keys).has_value());
}

TEST(AuthLayer, BatchModeVerifiesARoundTogether) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthConfig cfg;
  cfg.enable = true;
  cfg.batch_verify = true;
  net::AuthStats stats;
  net::MessageValidator v(0, keys, cfg, 7, &stats);

  // A full round: one frame per sender on one topic. All delivered
  // optimistically; the m-th completes the round and triggers one batch.
  for (NodeId s = 0; s < 3; ++s) {
    net::Message msg{s, 0, "t/round",
                     make_frame(*keys, s, "t/round", {static_cast<std::uint8_t>(s)})};
    EXPECT_EQ(v.on_deliver(msg), net::MessageValidator::Action::kDeliver);
  }
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.verified_batched, 3u);
  EXPECT_EQ(stats.verified_eager, 0u);
  EXPECT_EQ(v.finalize(), net::MessageValidator::Action::kDeliver);
}

TEST(AuthLayer, BatchModeAttributesABadSignatureAtFinalize) {
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthConfig cfg;
  cfg.enable = true;
  cfg.batch_verify = true;
  net::AuthStats stats;
  net::MessageValidator v(0, keys, cfg, 7, &stats);

  // An incomplete round with one forged frame: delivered optimistically
  // (that is the batch-mode trade-off), caught and attributed at finalize.
  net::Message good{0, 0, "t/round", make_frame(*keys, 0, "t/round", {0})};
  EXPECT_EQ(v.on_deliver(good), net::MessageValidator::Action::kDeliver);
  Bytes forged = make_frame(*keys, 1, "t/round", Bytes{1}).to_bytes();
  forged[net::kAuthHeaderBytes] ^= 0x5a;
  net::Message bad{1, 0, "t/round", SharedBytes(std::move(forged))};
  EXPECT_EQ(v.on_deliver(bad), net::MessageValidator::Action::kDeliver)
      << "batch mode delivers optimistically";

  EXPECT_EQ(v.finalize(), net::MessageValidator::Action::kAbort);
  EXPECT_NE(v.abort_detail().find("provider 1"), std::string::npos)
      << "the abort must attribute the forgery: " << v.abort_detail();
  EXPECT_EQ(stats.rejected_bad_sig, 1u);
}

TEST(AuthLayer, BatchModeAttributesANonCanonicalRSignature) {
  // A key holder signs with R = the identity encoded as y = p + 1. A
  // permissive batch decoder accepted the round and marked the frame
  // verified, so a later conflicting frame would have swapped it out instead
  // of yielding an equivocation proof. Strict decoding fails the batch and
  // single-verify attribution names the signer.
  const auto keys = std::make_shared<net::KeyDirectory>(3, 42);
  net::AuthConfig cfg;
  cfg.enable = true;
  cfg.batch_verify = true;
  net::AuthStats stats;
  net::MessageValidator v(0, keys, cfg, 7, &stats);

  const Bytes payload = {4, 2};
  const crypto::Digest t = net::auth_transcript(1, "t/round", BytesView(payload));
  const Signature sig =
      identity_r_signature(keys->pair(1), BytesView(t), kIdentityYPlusP);
  Bytes crafted = {net::kAuthMagic};
  append(crafted, BytesView(sig));
  append(crafted, BytesView(payload));

  net::Message m0{0, 0, "t/round", make_frame(*keys, 0, "t/round", {0})};
  EXPECT_EQ(v.on_deliver(m0), net::MessageValidator::Action::kDeliver);
  net::Message m1{1, 0, "t/round", SharedBytes(std::move(crafted))};
  EXPECT_EQ(v.on_deliver(m1), net::MessageValidator::Action::kDeliver)
      << "batch mode delivers optimistically";
  net::Message m2{2, 0, "t/round", make_frame(*keys, 2, "t/round", {2})};
  EXPECT_EQ(v.on_deliver(m2), net::MessageValidator::Action::kAbort)
      << "the completed round's batch must fail";
  EXPECT_NE(v.abort_detail().find("invalid signature"), std::string::npos)
      << v.abort_detail();
  EXPECT_NE(v.abort_detail().find("provider 1"), std::string::npos)
      << v.abort_detail();
  EXPECT_EQ(stats.rejected_bad_sig, 1u);
  EXPECT_EQ(stats.verified_batched, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end equivalence: the PR-5-style contract, now for auth.
// ---------------------------------------------------------------------------

runtime::SimRunResult run_golden_auth(const testutil::GoldenRun& g,
                                      net::AuthConfig auth) {
  core::AuctioneerSpec spec;
  spec.m = g.m;
  spec.k = g.k;
  spec.num_bidders = g.n;
  std::shared_ptr<core::AuctionAdapter> adapter;
  if (g.standard) {
    auction::StandardAuctionParams p;
    p.epsilon = 0.25;
    adapter = std::make_shared<core::StandardAuctionAdapter>(p);
  } else {
    adapter = std::make_shared<core::DoubleAuctionAdapter>();
  }
  const core::DistributedAuctioneer auctioneer(spec, adapter);
  const auto inst = testutil::make_instance(g.n, g.m, g.seed, g.standard);
  runtime::SimRunConfig cfg;
  cfg.seed = g.seed;
  cfg.auth = auth;
  return runtime::SimRuntime(cfg).run_distributed(auctioneer, inst);
}

std::string digest_of(const runtime::SimRunResult& run) {
  const Bytes enc = serde::encode_result(run.global_outcome.value());
  return crypto::digest_hex(crypto::sha256(BytesView(enc)));
}

TEST(AuthEquivalence, DisabledConfigIsByteIdenticalOverAllGoldens) {
  // Auth off constructs nothing: the full golden fingerprint — result bytes,
  // virtual makespan, traffic counters — must be reproduced exactly.
  for (const testutil::GoldenRun& g : testutil::kGoldenRuns) {
    SCOPED_TRACE("n=" + std::to_string(g.n) + " m=" + std::to_string(g.m) +
                 " seed=" + std::to_string(g.seed));
    const auto run = run_golden_auth(g, net::AuthConfig{});
    ASSERT_TRUE(run.global_outcome.ok());
    EXPECT_EQ(digest_of(run), g.result_sha256);
    EXPECT_EQ(run.makespan, static_cast<sim::SimTime>(g.makespan));
    EXPECT_EQ(run.traffic.messages, g.messages);
    EXPECT_EQ(run.traffic.bytes, g.bytes);
    EXPECT_FALSE(run.auth_stats.tracked);
    EXPECT_FALSE(run.equivocation_proof.has_value());
  }
}

TEST(AuthEquivalence, EnabledOverFaultFreeLinkPinsEveryGoldenDigest) {
  // Auth on, fault-free: signature headers change traffic bytes, curve work
  // is free in virtual time (CostMode::kZero), and the decided (x, p⃗) must
  // equal the golden result digest exactly — in eager AND batch mode.
  for (const bool batch : {false, true}) {
    net::AuthConfig cfg;
    cfg.enable = true;
    cfg.batch_verify = batch;
    for (const testutil::GoldenRun& g : testutil::kGoldenRuns) {
      SCOPED_TRACE("n=" + std::to_string(g.n) + " m=" + std::to_string(g.m) +
                   " seed=" + std::to_string(g.seed) +
                   (batch ? " batch" : " eager"));
      const auto run = run_golden_auth(g, cfg);
      ASSERT_TRUE(run.global_outcome.ok());
      EXPECT_EQ(digest_of(run), g.result_sha256);
      EXPECT_TRUE(run.auth_stats.tracked);
      EXPECT_GT(run.auth_stats.signed_sends, 0u);
      EXPECT_GT(batch ? run.auth_stats.verified_batched
                      : run.auth_stats.verified_eager, 0u);
      EXPECT_EQ(run.auth_stats.rejected_bad_sig, 0u);
      EXPECT_EQ(run.auth_stats.rejected_malformed, 0u);
      EXPECT_EQ(run.auth_stats.equivocations, 0u);
      EXPECT_FALSE(run.equivocation_proof.has_value());
      EXPECT_GT(run.auth_stats.signed_reuses, 0u)
          << "broadcast fan-out must reuse the one-slot frame cache";
      EXPECT_GT(run.traffic.bytes, g.bytes) << "65-byte headers add traffic";
    }
  }
}

}  // namespace
}  // namespace dauct
