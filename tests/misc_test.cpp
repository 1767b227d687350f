// Cross-cutting coverage: threaded standard auction (task transfers under
// real concurrency), outcome combination edge cases, allocation bookkeeping,
// bid limits, and the log sink.
#include <gtest/gtest.h>

#include "common/log.hpp"
#include "core/adapters.hpp"
#include "runtime/thread_runtime.hpp"
#include "test_util.hpp"

namespace dauct {
namespace {

TEST(ThreadRuntimeStandard, ParallelPaymentGroupsUnderRealThreads) {
  // The standard auction exercises data transfers between provider groups;
  // run it on real threads to shake out concurrency bugs in the engine path.
  const auto instance = testutil::make_instance(10, 5, 31, /*standard=*/true);
  core::AuctioneerSpec spec;
  spec.m = 5;
  spec.k = 1;
  spec.num_bidders = 10;
  auction::StandardAuctionParams params;
  params.use_exact = true;
  core::DistributedAuctioneer auctioneer(
      spec, std::make_shared<core::StandardAuctionAdapter>(params));

  runtime::ThreadRunConfig cfg;
  const auto run = runtime::ThreadRuntime(cfg).run_distributed(auctioneer, instance);
  ASSERT_FALSE(run.timed_out);
  ASSERT_TRUE(run.global_outcome.ok())
      << abort_reason_name(run.global_outcome.bottom().reason);
  EXPECT_EQ(run.global_outcome.value(),
            auctioneer.adapter().run_centralized(instance, 0));
}

TEST(CombineOutcomes, EmptyIsBottom) {
  EXPECT_TRUE(core::combine_outcomes({}).is_bottom());
}

TEST(CombineOutcomes, AnyBottomWins) {
  auction::AuctionResult r;
  r.payments.user_payments = {Money::from_units(1)};
  std::vector<auction::AuctionOutcome> outs = {
      auction::AuctionOutcome(r),
      auction::AuctionOutcome(Bottom{AbortReason::kTransferMismatch, "x"}),
      auction::AuctionOutcome(r),
  };
  const auto combined = core::combine_outcomes(std::span(outs));
  ASSERT_TRUE(combined.is_bottom());
  EXPECT_EQ(combined.bottom().reason, AbortReason::kTransferMismatch);
}

TEST(CombineOutcomes, BottomReportsTheFirstFirstHandAbort) {
  // Provider 0 only heard the abort (cascaded); provider 2 detected the
  // fault first-hand. The global reason is the root cause, in provider
  // order, whichever provider heard first.
  auction::AuctionResult r;
  std::vector<auction::AuctionOutcome> outs = {
      auction::AuctionOutcome(Bottom{AbortReason::kCascaded, "heard"}),
      auction::AuctionOutcome(r),
      auction::AuctionOutcome(Bottom{AbortReason::kDeliveryFailed, "p3 unreachable"}),
      auction::AuctionOutcome(Bottom{AbortReason::kProtocolViolation, "later"}),
  };
  auto combined = core::combine_outcomes(std::span(outs));
  ASSERT_TRUE(combined.is_bottom());
  EXPECT_EQ(combined.bottom().reason, AbortReason::kDeliveryFailed);
  EXPECT_EQ(combined.bottom().detail, "p3 unreachable");

  // Every ⊥ cascaded: fall back to the first one.
  outs = {auction::AuctionOutcome(r),
          auction::AuctionOutcome(Bottom{AbortReason::kCascaded, "first"}),
          auction::AuctionOutcome(Bottom{AbortReason::kCascaded, "second"})};
  combined = core::combine_outcomes(std::span(outs));
  ASSERT_TRUE(combined.is_bottom());
  EXPECT_EQ(combined.bottom().reason, AbortReason::kCascaded);
  EXPECT_EQ(combined.bottom().detail, "first");
}

TEST(CombineOutcomes, DivergentResultsAreBottom) {
  auction::AuctionResult a, b;
  a.payments.user_payments = {Money::from_units(1)};
  b.payments.user_payments = {Money::from_units(2)};
  std::vector<auction::AuctionOutcome> outs = {auction::AuctionOutcome(a),
                                               auction::AuctionOutcome(b)};
  const auto combined = core::combine_outcomes(std::span(outs));
  ASSERT_TRUE(combined.is_bottom());
  EXPECT_EQ(combined.bottom().reason, AbortReason::kOutputMismatch);
}

TEST(CombineOutcomes, UnanimousValuePasses) {
  auction::AuctionResult r;
  r.allocation.add(0, 1, Money::from_units(2));
  std::vector<auction::AuctionOutcome> outs(3, auction::AuctionOutcome(r));
  const auto combined = core::combine_outcomes(std::span(outs));
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(combined.value(), r);
}

TEST(Allocation, MergesAndCancels) {
  auction::Allocation x;
  x.add(1, 2, Money::from_units(3));
  x.add(1, 2, Money::from_units(4));
  EXPECT_EQ(x.amount(1, 2), Money::from_units(7));
  x.add(1, 2, Money::from_units(-7));
  EXPECT_TRUE(x.amount(1, 2).is_zero());
  EXPECT_TRUE(x.empty());  // zeroed entries are removed
}

TEST(Allocation, ZeroAddIsNoop) {
  auction::Allocation x;
  x.add(0, 0, kZeroMoney);
  EXPECT_TRUE(x.empty());
  EXPECT_TRUE(x.is_canonical());
}

TEST(Allocation, TotalsAcrossAxes) {
  auction::Allocation x;
  x.add(0, 0, Money::from_units(1));
  x.add(0, 1, Money::from_units(2));
  x.add(1, 1, Money::from_units(4));
  EXPECT_EQ(x.allocated_to(0), Money::from_units(3));
  EXPECT_EQ(x.allocated_at(1), Money::from_units(6));
  EXPECT_EQ(x.total(), Money::from_units(7));
}

TEST(BidLimits, ValidityRules) {
  auction::BidLimits limits;
  limits.max_unit_value = Money::from_units(10);
  limits.max_demand = Money::from_units(5);
  EXPECT_TRUE(limits.valid({0, Money::from_units(10), Money::from_units(5)}));
  EXPECT_TRUE(limits.valid(auction::neutral_bid(3)));  // neutral is valid
  EXPECT_FALSE(limits.valid({0, Money::from_units(11), Money::from_units(1)}));
  EXPECT_FALSE(limits.valid({0, Money::from_units(1), Money::from_units(6)}));
  EXPECT_FALSE(limits.valid({0, Money::from_micros(-1), Money::from_units(1)}));
  EXPECT_FALSE(limits.valid({0, Money::from_units(1), Money::from_micros(-1)}));
}

TEST(Log, SinkCapturesAboveLevel) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&](LogLevel level, const std::string& line) {
    captured.emplace_back(level, line);
  });
  const LogLevel before = log_level();
  set_log_level(LogLevel::kInfo);

  DAUCT_DEBUG("hidden " << 1);
  DAUCT_INFO("shown " << 2);
  DAUCT_ERROR("also " << 3);

  set_log_level(before);
  set_log_sink(nullptr);

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::kInfo);
  EXPECT_EQ(captured[0].second, "shown 2");
  EXPECT_EQ(captured[1].second, "also 3");
}

TEST(Utilities, BottomOutcomeYieldsZeroUtility) {
  const auto instance = testutil::make_instance(4, 2, 1);
  const auction::AuctionOutcome bottom(Bottom{AbortReason::kCascaded, ""});
  for (BidderId i = 0; i < 4; ++i) {
    EXPECT_EQ(auction::user_utility(instance, bottom, i), kZeroMoney);
  }
  for (NodeId j = 0; j < 2; ++j) {
    EXPECT_EQ(auction::provider_utility(instance, bottom, j), kZeroMoney);
  }
}

TEST(Feasibility, CatchesViolations) {
  const auto instance = testutil::make_instance(3, 2, 9);
  auction::Allocation over_demand;
  over_demand.add(0, 0, instance.bids[0].demand + Money::from_micros(1));
  EXPECT_FALSE(auction::is_feasible(instance, over_demand));

  auction::Allocation over_capacity;
  over_capacity.add(0, 0, instance.asks[0].capacity + Money::from_units(1));
  EXPECT_FALSE(auction::is_feasible(instance, over_capacity));

  auction::Allocation bad_ids;
  bad_ids.add(99, 0, Money::from_micros(1));
  EXPECT_FALSE(auction::is_feasible(instance, bad_ids));

  EXPECT_TRUE(auction::is_feasible(instance, auction::Allocation{}));
}

}  // namespace
}  // namespace dauct
