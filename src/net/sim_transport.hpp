// Endpoint implementation over the virtual-time scheduler.
#pragma once

#include "blocks/block.hpp"
#include "sim/scheduler.hpp"

namespace dauct::net {

/// Wires a protocol engine to the simulated network: send() stamps messages
/// from this node's virtual clock and routes them through the scheduler.
class SimEndpoint final : public blocks::Endpoint {
 public:
  SimEndpoint(sim::Scheduler& scheduler, NodeId self, std::size_t num_providers,
              std::uint64_t rng_seed)
      : scheduler_(scheduler), self_(self), num_providers_(num_providers),
        rng_(rng_seed) {}

  NodeId self() const override { return self_; }
  std::size_t num_providers() const override { return num_providers_; }

  void send(NodeId to, const net::Topic& topic, SharedBytes payload) override {
    scheduler_.send(Message{self_, to, topic, std::move(payload)});
  }

  /// Counts from the end of the running handler when armed from one
  /// (sim::Scheduler::schedule_after).
  bool schedule_after(std::int64_t delay_ns, std::function<void()> fn) override {
    scheduler_.schedule_after(self_, delay_ns, std::move(fn));
    return true;
  }

  std::int64_t local_time() const override { return scheduler_.local_time(self_); }

  crypto::Rng& rng() override { return rng_; }

 private:
  sim::Scheduler& scheduler_;
  NodeId self_;
  std::size_t num_providers_;
  crypto::Rng rng_;
};

}  // namespace dauct::net
