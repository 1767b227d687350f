// Public API of the distributed auctioneer framework.
//
// A DistributedAuctioneer bundles the framework configuration (m, k, bid
// limits, agreement mode) with an auction adapter, creates the per-provider
// protocol engines, and derives the *global* outcome from the per-provider
// outputs (§3.2: "the outcome is (x, p⃗) if all providers output this pair,
// otherwise the outcome is ⊥").
//
// Engines are transport-agnostic; runtimes (runtime/sim_runtime.hpp — the
// deterministic virtual-time simulator; runtime/thread_runtime.hpp — real
// threads; runtime/tcp_runtime.hpp — real sockets) wire them to a network.
//
// Quick start:
//
//   auto adapter = std::make_shared<core::DoubleAuctionAdapter>();
//   core::DistributedAuctioneer auctioneer(
//       core::AuctioneerSpec{.m = 5, .k = 2, .num_bidders = 10}, adapter);
//   runtime::SimRuntime runtime(runtime::SimRunConfig{});
//   auto run = runtime.run_distributed(auctioneer, instance);
//   if (run.global_outcome.ok()) { ... run.global_outcome.value() ... }
#pragma once

#include <memory>
#include <span>

#include "core/adapters.hpp"
#include "core/provider_engine.hpp"

namespace dauct::core {

/// Top-level configuration of a distributed auction.
struct AuctioneerSpec {
  std::size_t m = 8;            ///< number of providers; must be > 2k
  std::size_t k = 1;            ///< resilience bound (coalition size)
  std::size_t num_bidders = 0;  ///< bidder slots
  auction::BidLimits limits;
  blocks::AgreementMode agreement_mode = blocks::AgreementMode::kValueBatched;
};

class DistributedAuctioneer {
 public:
  /// Throws std::invalid_argument if the spec is inconsistent (m ≤ 2k, no
  /// bidders, null adapter) or the adapter produces an invalid task graph.
  DistributedAuctioneer(AuctioneerSpec spec,
                        std::shared_ptr<const AuctionAdapter> adapter);

  const AuctioneerSpec& spec() const { return spec_; }
  const AuctionAdapter& adapter() const { return *adapter_; }
  std::shared_ptr<const AuctionAdapter> adapter_ptr() const { return adapter_; }

  /// The engine configuration derived from the spec.
  EngineConfig engine_config() const;

  /// Create the protocol engine of provider `my_ask.provider` over
  /// `endpoint`.
  std::unique_ptr<ProviderEngine> make_engine(blocks::Endpoint& endpoint,
                                              auction::Ask my_ask) const;

  /// Maximum parallelism p = ⌊m/(k+1)⌋ for this spec.
  std::size_t parallelism() const;

 private:
  AuctioneerSpec spec_;
  std::shared_ptr<const AuctionAdapter> adapter_;
};

/// Derive the global outcome from per-provider outputs: (x, p⃗) iff every
/// provider produced that same pair; ⊥ otherwise (§3.2). A ⊥ reports its
/// root cause: the first non-cascaded provider ⊥ in provider order, or the
/// first ⊥ when all of them are cascaded.
auction::AuctionOutcome combine_outcomes(
    std::span<const auction::AuctionOutcome> per_provider);

}  // namespace dauct::core
