// Equivalence: the optimized welfare solvers must return *byte-identical*
// Assignments to the retained reference implementations (the seed-tree code
// in welfare_reference.hpp) on every instance, active mask, and seed. This
// is what makes the perf suite's solver speedups like-for-like, and what
// keeps optimized and unoptimized providers cross-validating successfully in
// a mixed deployment.
#include <gtest/gtest.h>

#include <algorithm>

#include "auction/knap_row.hpp"
#include "auction/welfare.hpp"
#include "auction/workload.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "serde/auction_codec.hpp"
#include "welfare_reference.hpp"

namespace dauct::auction {
namespace {

AuctionInstance random_instance(std::size_t users, std::size_t providers,
                                std::uint64_t seed) {
  crypto::Rng rng(seed);
  return generate(standard_auction_workload(users, providers), rng);
}

std::vector<bool> random_mask(std::size_t n, crypto::Rng& rng) {
  std::vector<bool> mask(n, true);
  // Knock out ~1/4 of the bidders — the shape of Clarke-pivot re-solves.
  for (std::size_t i = 0; i < n; ++i) mask[i] = rng.next_below(4) != 0;
  return mask;
}

TEST(ExactEquivalence, FullSolveAcrossSeeds) {
  const ExactSolver opt;
  const reference::ReferenceExactSolver ref;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const AuctionInstance inst = random_instance(14 + seed % 5, 2 + seed % 4, seed);
    const Assignment a = opt.solve_all(inst, seed);
    const Assignment b = ref.solve_all(inst, seed);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(ExactEquivalence, AcceptanceSizeInstance) {
  // The perf-suite acceptance configuration: 24 bids, 4 providers.
  const AuctionInstance inst = random_instance(24, 4, 7);
  EXPECT_EQ(ExactSolver().solve_all(inst, 0),
            reference::ReferenceExactSolver().solve_all(inst, 0));
}

TEST(ExactEquivalence, ActiveMasks) {
  const ExactSolver opt;
  const reference::ReferenceExactSolver ref;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const AuctionInstance inst = random_instance(12, 3, seed);
    crypto::Rng mask_rng(seed * 31);
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<bool> mask = random_mask(inst.bids.size(), mask_rng);
      EXPECT_EQ(opt.solve(inst, mask, seed), ref.solve(inst, mask, seed))
          << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(ExactEquivalence, EqualCapacityProviders) {
  // Identical providers exercise the symmetry-breaking path; results must
  // still match the exhaustive reference exactly.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    AuctionInstance inst = random_instance(12, 4, seed);
    for (auto& a : inst.asks) a.capacity = Money::from_double(1.5);
    EXPECT_EQ(ExactSolver().solve_all(inst, seed),
              reference::ReferenceExactSolver().solve_all(inst, seed))
        << "seed " << seed;
  }
}

TEST(ScaledDpEquivalence, FullSolveAcrossSeedsAndEpsilons) {
  for (const double eps : {0.5, 0.2, 0.1}) {
    const ScaledDpSolver opt(eps);
    const reference::ReferenceScaledDpSolver ref(eps);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const AuctionInstance inst = random_instance(20 + seed, 3 + seed % 4, seed);
      EXPECT_EQ(opt.solve_all(inst, seed * 7), ref.solve_all(inst, seed * 7))
          << "eps " << eps << " seed " << seed;
    }
  }
}

TEST(ScaledDpEquivalence, ActiveMasks) {
  const ScaledDpSolver opt(0.1);
  const reference::ReferenceScaledDpSolver ref(0.1);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const AuctionInstance inst = random_instance(24, 4, seed);
    crypto::Rng mask_rng(seed * 17);
    const std::vector<bool> mask = random_mask(inst.bids.size(), mask_rng);
    EXPECT_EQ(opt.solve(inst, mask, seed), ref.solve(inst, mask, seed))
        << "seed " << seed;
  }
}

TEST(ScaledDpEquivalence, ParallelTrialsMatchSerial) {
  // Thread count must be invisible in the result (and in the serde bytes the
  // providers cross-validate).
  const ScaledDpSolver serial(0.1, 1);
  const ScaledDpSolver parallel(0.1, 4);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const AuctionInstance inst = random_instance(30, 5, seed);
    const Assignment a = serial.solve_all(inst, seed);
    const Assignment b = parallel.solve_all(inst, seed);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_EQ(serde::encode_assignment(a), serde::encode_assignment(b));
  }
}

TEST(ScaledDpEquivalence, FewProvidersManyTrials) {
  // Small m means many duplicate provider permutations — the memoized path.
  const ScaledDpSolver opt(0.05);  // 20 trials over 3! = 6 permutations
  const reference::ReferenceScaledDpSolver ref(0.05);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const AuctionInstance inst = random_instance(16, 3, seed);
    EXPECT_EQ(opt.solve_all(inst, seed), ref.solve_all(inst, seed)) << "seed " << seed;
  }
}

TEST(ScaledDpEquivalence, StreamShapeAllocationAndClarkeMasks) {
  // The standard_stream shape (n = 48, m = 4, ε = 0.25): the allocation solve
  // plus every bidder's Clarke re-solve, seeded as standard_payment seeds
  // them, so each solve a provider runs per auction is pinned.
  const ScaledDpSolver opt(0.25);
  const reference::ReferenceScaledDpSolver ref(0.25);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const AuctionInstance inst = random_instance(48, 4, seed);
    const std::uint64_t coin = seed * 0x2545f4914f6cdd1dULL;
    ASSERT_EQ(opt.solve_all(inst, coin), ref.solve_all(inst, coin)) << "seed " << seed;
    for (std::size_t i = 0; i < inst.bids.size(); ++i) {
      std::vector<bool> active(inst.bids.size(), true);
      active[i] = false;
      const std::uint64_t s = coin ^ (0x9e3779b97f4a7c15ULL * (i + 1));
      ASSERT_EQ(opt.solve(inst, active, s), ref.solve(inst, active, s))
          << "seed " << seed << " without bidder " << i;
    }
  }
}

// knap_row: the vectorised kernel must write the same dp cells and take bytes
// as the scalar one, and the scalar one the same as the original branchy
// loop over a zeroed take row, for every weight, grid size and tie pattern.

void branchy_knap_row(std::int64_t* dp, char* row, std::size_t grid, std::size_t wt,
                      std::int64_t v) {
  std::fill(row, row + grid + 1, 0);
  for (std::size_t w = grid; w >= wt; --w) {
    const std::int64_t cand = dp[w - wt] + v;
    if (cand > dp[w]) {
      dp[w] = cand;
      row[w] = 1;
    }
    if (w == wt) break;
  }
}

using KnapRowFn = void (*)(std::int64_t*, char*, std::size_t, std::size_t, std::int64_t);

/// Runs `a` and `b` on the same random rows and expects identical dp and take
/// bytes. Grids cover every residue of grid + 1 mod 4 and the chunk-overlap
/// weights 1…5 as well as wt = grid; a small value range forces ties.
void expect_same_rows(KnapRowFn a, KnapRowFn b) {
  crypto::Rng rng(11);
  for (std::size_t grid : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 18, 63, 191, 192, 193}) {
    std::vector<std::size_t> weights = {1, 2, 3, 4, 5, grid - 1, grid,
                                        1 + rng.next_below(grid)};
    for (std::size_t wt : weights) {
      if (wt < 1 || wt > grid) continue;
      for (const std::int64_t range : {std::int64_t{4}, std::int64_t{1} << 40}) {
        for (int rep = 0; rep < 4; ++rep) {
          std::vector<std::int64_t> dp_a(grid + 1);
          for (auto& c : dp_a) c = static_cast<std::int64_t>(rng.next_below(range));
          std::vector<std::int64_t> dp_b = dp_a;
          const auto v = static_cast<std::int64_t>(rng.next_below(range));
          // Stale bytes: the kernels must overwrite every take cell.
          std::vector<char> row_a(grid + 1, 0x5a);
          std::vector<char> row_b(grid + 1, 0x33);
          a(dp_a.data(), row_a.data(), grid, wt, v);
          b(dp_b.data(), row_b.data(), grid, wt, v);
          ASSERT_EQ(dp_a, dp_b) << "grid " << grid << " wt " << wt << " v " << v;
          ASSERT_EQ(row_a, row_b) << "grid " << grid << " wt " << wt << " v " << v;
        }
      }
    }
  }
}

TEST(KnapRowEquivalence, ScalarMatchesBranchyLoop) {
  expect_same_rows(&detail::knap_row_scalar, &branchy_knap_row);
}

TEST(KnapRowEquivalence, Avx2MatchesScalar) {
  if (!detail::knap_row_avx2_supported()) GTEST_SKIP() << "CPU lacks AVX2";
  expect_same_rows(&detail::knap_row_avx2, &detail::knap_row_scalar);
}

TEST(DigestEquivalence, HardwareAndPortableSha256Agree) {
  // The CPU-dispatched hasher and the scalar reference must agree on every
  // length straddling block/padding boundaries (providers on heterogeneous
  // hosts cross-validate by digest equality).
  crypto::Rng rng(5);
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{55},
                          std::size_t{56}, std::size_t{63}, std::size_t{64},
                          std::size_t{65}, std::size_t{127}, std::size_t{128},
                          std::size_t{1000}, std::size_t{4096}}) {
    Bytes data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(crypto::sha256(BytesView(data)), crypto::sha256_portable(BytesView(data)))
        << "len " << len;
  }
}

TEST(DigestEquivalence, SolveDigestsStable) {
  // End-to-end outcome digest: serialize both solvers' assignments and hash —
  // what output agreement actually compares across providers.
  const AuctionInstance inst = random_instance(24, 4, 3);
  const Bytes opt_bytes = serde::encode_assignment(ExactSolver().solve_all(inst, 0));
  const Bytes ref_bytes =
      serde::encode_assignment(reference::ReferenceExactSolver().solve_all(inst, 0));
  EXPECT_EQ(crypto::sha256(BytesView(opt_bytes)), crypto::sha256(BytesView(ref_bytes)));
}

}  // namespace
}  // namespace dauct::auction
