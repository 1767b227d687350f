#include "core/distributed_auctioneer.hpp"

#include <stdexcept>

namespace dauct::core {

DistributedAuctioneer::DistributedAuctioneer(
    AuctioneerSpec spec, std::shared_ptr<const AuctionAdapter> adapter)
    : spec_(spec), adapter_(std::move(adapter)) {
  if (!adapter_) throw std::invalid_argument("DistributedAuctioneer: null adapter");
  if (spec_.m <= 2 * spec_.k) {
    throw std::invalid_argument("DistributedAuctioneer: requires m > 2k");
  }
  if (spec_.num_bidders == 0) {
    throw std::invalid_argument("DistributedAuctioneer: no bidders configured");
  }
  // Validate the task graph eagerly so misconfigurations fail at setup, not
  // mid-protocol.
  TaskGraph graph = adapter_->build(spec_.num_bidders, spec_.m, spec_.k);
  if (auto err = graph.validate(spec_.m, spec_.k)) {
    throw std::invalid_argument("DistributedAuctioneer: invalid task graph: " + *err);
  }
}

EngineConfig DistributedAuctioneer::engine_config() const {
  EngineConfig cfg;
  cfg.m = spec_.m;
  cfg.k = spec_.k;
  cfg.num_bidders = spec_.num_bidders;
  cfg.limits = spec_.limits;
  cfg.agreement_mode = spec_.agreement_mode;
  return cfg;
}

std::unique_ptr<ProviderEngine> DistributedAuctioneer::make_engine(
    blocks::Endpoint& endpoint, auction::Ask my_ask) const {
  return std::make_unique<ProviderEngine>(endpoint, engine_config(), *adapter_,
                                          my_ask);
}

std::size_t DistributedAuctioneer::parallelism() const {
  return max_parallelism(spec_.m, spec_.k);
}

namespace {

/// The ⊥ that explains the run: the first first-hand abort in provider
/// order. A kCascaded ⊥ only says its provider heard somebody else's abort,
/// and which provider hears first is a timing accident; the fallback, when
/// every ⊥ is cascaded, is the first ⊥.
Bottom root_cause(std::span<const auction::AuctionOutcome> per_provider) {
  const Bottom* first = nullptr;
  for (const auto& o : per_provider) {
    if (!o.is_bottom()) continue;
    if (o.bottom().reason != AbortReason::kCascaded) return o.bottom();
    if (!first) first = &o.bottom();
  }
  return *first;
}

}  // namespace

auction::AuctionOutcome combine_outcomes(
    std::span<const auction::AuctionOutcome> per_provider) {
  if (per_provider.empty()) {
    return Bottom{AbortReason::kProtocolViolation, "no provider outputs"};
  }
  const auto& first = per_provider.front();
  if (first.is_bottom()) return root_cause(per_provider);
  for (const auto& o : per_provider) {
    if (o.is_bottom()) return root_cause(per_provider);
    if (!(o.value() == first.value())) {
      return Bottom{AbortReason::kOutputMismatch,
                    "providers emitted different results"};
    }
  }
  return first;
}

}  // namespace dauct::core
