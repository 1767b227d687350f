// Differential tests: the optimized ed25519 in src/crypto against the
// original implementation kept test-only in ed25519_reference.*. Over 500
// seeded (seed, message) pairs, key derivation and signing must be
// byte-identical, and verify / verify_batch must return the same verdicts on
// valid signatures, on each class of tampering, and on small-order points.
// The one intended divergence, strict point decoding, is pinned separately
// in auth_test.cpp (Ed25519.StrictDecoding*).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "crypto/ed25519.hpp"
#include "crypto/rng.hpp"
#include "ed25519_reference.hpp"

namespace dauct {
namespace {

namespace ed = crypto::ed25519;
namespace ref = crypto::ed25519::reference;

constexpr int kPairs = 500;

struct Case {
  ed::KeyPair kp;
  Bytes msg;
  ed::Signature sig;
};

template <std::size_t N>
std::array<std::uint8_t, N> random_bytes(crypto::Rng& rng) {
  std::array<std::uint8_t, N> out;
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

Case make_case(crypto::Rng& rng) {
  Case c;
  c.kp = ed::keypair_from_seed(random_bytes<32>(rng));
  c.msg.resize(rng.next_u64() % 97);
  for (auto& b : c.msg) b = static_cast<std::uint8_t>(rng.next_u64());
  c.sig = ed::sign(c.kp, BytesView(c.msg));
  return c;
}

/// s += L: same value mod L, non-canonical encoding.
void add_order(ed::Signature& sig) {
  static const std::uint8_t kL[32] = {
      0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
      0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
      0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    const unsigned sum = sig[32 + i] + kL[i] + carry;
    sig[32 + i] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
  }
}

/// One of five tamperings, chosen by `kind`: flip a message bit, flip a
/// signature bit, s += L, replace R by random bytes, replace A by random
/// bytes.
void mutate(Case& c, int kind, crypto::Rng& rng) {
  switch (kind % 5) {
    case 0:
      if (c.msg.empty()) {
        c.msg.push_back(0);
      } else {
        c.msg[rng.next_u64() % c.msg.size()] ^=
            static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
      }
      break;
    case 1: {
      const std::size_t bit = rng.next_u64() % 512;
      c.sig[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      break;
    }
    case 2:
      add_order(c.sig);
      break;
    case 3: {
      const auto r = random_bytes<32>(rng);
      std::copy(r.begin(), r.end(), c.sig.begin());
      break;
    }
    default:
      c.kp.public_key = random_bytes<32>(rng);
      break;
  }
}

TEST(Ed25519Equivalence, ConcurrentFirstUseSignsIdentically) {
  // The thread and TCP runtimes sign from several threads, and the
  // fixed-base table is built on first use: four threads race to that first
  // use (each ctest case is its own process) and must all sign exactly as
  // the reference does.
  constexpr int kThreads = 4, kPerThread = 8;
  std::vector<ed::Seed> seeds;
  std::vector<ed::Signature> expected;
  const Bytes msg = {'r', 'a', 'c', 'e'};
  crypto::Rng rng(0x7ead5ULL);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    seeds.push_back(random_bytes<32>(rng));
    expected.push_back(ref::sign(ref::keypair_from_seed(seeds.back()), BytesView(msg)));
  }
  std::vector<ed::Signature> got(seeds.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t * kPerThread; i < (t + 1) * kPerThread; ++i) {
        got[i] = ed::sign(ed::keypair_from_seed(seeds[i]), BytesView(msg));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(got, expected);
}

TEST(Ed25519Equivalence, KeysAndSignaturesAreByteIdentical) {
  crypto::Rng rng(0xed25519ULL);
  for (int i = 0; i < kPairs; ++i) {
    const ed::Seed seed = random_bytes<32>(rng);
    Bytes msg(rng.next_u64() % 97);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());

    const ed::KeyPair kp = ed::keypair_from_seed(seed);
    const ed::KeyPair kp_ref = ref::keypair_from_seed(seed);
    ASSERT_EQ(kp.public_key, kp_ref.public_key) << "pair " << i;
    ASSERT_EQ(ed::sign(kp, BytesView(msg)), ref::sign(kp_ref, BytesView(msg)))
        << "pair " << i;
  }
}

TEST(Ed25519Equivalence, VerifyAgreesOnValidAndTamperedSignatures) {
  crypto::Rng rng(0xfeedULL);
  int accepted = 0;
  for (int i = 0; i < kPairs; ++i) {
    Case c = make_case(rng);
    ASSERT_TRUE(ed::verify(c.kp.public_key, BytesView(c.msg), c.sig));
    ASSERT_TRUE(ref::verify(c.kp.public_key, BytesView(c.msg), c.sig));
    mutate(c, i, rng);
    const bool got = ed::verify(c.kp.public_key, BytesView(c.msg), c.sig);
    ASSERT_EQ(got, ref::verify(c.kp.public_key, BytesView(c.msg), c.sig))
        << "pair " << i << ", tampering " << i % 5;
    accepted += got;
  }
  EXPECT_EQ(accepted, 0) << "no tampering should survive verification";
}

TEST(Ed25519Equivalence, BatchVerifyAgreesWithSameRngStream) {
  // Batches of 1..16 items. Half are all-valid; the other half carry one
  // tampered item. Both implementations get the same Rng seed, must return
  // the same verdict, and must leave their Rng in the same state.
  crypto::Rng rng(0xba7c4ULL);
  int items_seen = 0, accepted = 0;
  for (int b = 0; items_seen < kPairs; ++b) {
    const int size = 1 + b % 16;
    std::vector<Case> cases;
    for (int i = 0; i < size; ++i) cases.push_back(make_case(rng));
    const bool tamper = b % 2 == 1;
    if (tamper) mutate(cases[rng.next_u64() % size], b / 2, rng);

    std::vector<ed::BatchItem> items;
    for (const Case& c : cases) {
      items.push_back({&c.kp.public_key, BytesView(c.msg), &c.sig});
    }
    crypto::Rng coeffs(1000 + b), ref_coeffs(1000 + b);
    const bool got = ed::verify_batch(items, coeffs);
    ASSERT_EQ(got, ref::verify_batch(items, ref_coeffs)) << "batch " << b;
    ASSERT_EQ(coeffs.next_u64(), ref_coeffs.next_u64()) << "batch " << b;
    EXPECT_EQ(got, !tamper) << "batch " << b;
    items_seen += size;
    accepted += got;
  }
  EXPECT_GT(accepted, 0);
}

// The eight points of order dividing 8, all canonically encoded.
const char* const kSmallOrder[] = {
    "0100000000000000000000000000000000000000000000000000000000000000",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000080",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
};

std::array<std::uint8_t, 32> from_hex32(std::string_view h) {
  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(std::stoi(std::string(h.substr(2 * i, 2)), nullptr, 16));
  }
  return out;
}

TEST(Ed25519Equivalence, SmallOrderPointsAgree) {
  // Every (A, R) pair of small-order points, with s = 0 and a random
  // canonical s, single and mixed into a batch with a valid signature.
  crypto::Rng rng(0x5a11ULL);
  const Case valid = make_case(rng);
  const Bytes msg = {'m'};
  int accepted = 0;
  for (const char* a_hex : kSmallOrder) {
    const ed::PublicKey a = from_hex32(a_hex);
    for (const char* r_hex : kSmallOrder) {
      for (const bool zero_s : {true, false}) {
        ed::Signature sig{};
        const auto r = from_hex32(r_hex);
        std::copy(r.begin(), r.end(), sig.begin());
        if (!zero_s) {
          for (int i = 32; i < 63; ++i) sig[i] = static_cast<std::uint8_t>(rng.next_u64());
          sig[63] = static_cast<std::uint8_t>(rng.next_u64() & 0x0f);  // < L
        }
        const bool got = ed::verify(a, BytesView(msg), sig);
        ASSERT_EQ(got, ref::verify(a, BytesView(msg), sig)) << a_hex << " " << r_hex;
        accepted += got;

        const ed::BatchItem items[] = {
            {&a, BytesView(msg), &sig},
            {&valid.kp.public_key, BytesView(valid.msg), &valid.sig}};
        for (const std::size_t n : {std::size_t{1}, std::size_t{2}}) {
          crypto::Rng coeffs(n), ref_coeffs(n);
          ASSERT_EQ(ed::verify_batch({items, n}, coeffs),
                    ref::verify_batch({items, n}, ref_coeffs))
              << a_hex << " " << r_hex << " batch of " << n;
        }
      }
    }
  }
  EXPECT_GT(accepted, 0) << "A = R = identity, s = 0 is a valid signature";
}

}  // namespace
}  // namespace dauct
