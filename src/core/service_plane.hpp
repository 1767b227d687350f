// Instance multiplexing for the multi-auction service plane.
//
// The paper's protocol clears one double auction; the service plane runs a
// *stream* of them over one set of provider nodes and one transport stack.
// This header holds the two primitives every layer above agrees on:
//
//  * seed derivation — instance i of a service run with base seed S behaves
//    exactly like a standalone run with seed derive_instance_seed(S, i).
//    Instance 0 keeps the base seed unchanged, which is what makes a
//    one-instance service run *byte-identical* to the classic single-auction
//    runtime (pinned against the golden fingerprints in service_test).
//
//  * topic scoping — each live instance owns a topic namespace "i<slot>g<gen>/"
//    prepended to every protocol topic. The slot is the instance's pipeline
//    lane (instance % depth), reused as instances retire so the global
//    append-only topic registry stays O(depth · topics), not O(instances ·
//    topics); the generation disambiguates successive tenants of one slot so
//    a straggler frame from a settled instance can never be demultiplexed
//    into its successor. ScopedEndpoint applies the mapping transparently
//    under the engine: protocol blocks keep speaking base topics, the shared
//    transport (signer, reliability link, WAL, wire) sees scoped ones — so
//    dedup keys, signature transcripts, and log records are instance-tagged
//    for free. Full lifecycle: docs/SERVICE.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "blocks/block.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/rng.hpp"
#include "net/topic.hpp"

namespace dauct::core {

/// Position of an auction instance in the service stream (0-based).
using InstanceId = std::uint64_t;

/// The run seed a standalone single-auction run would use to reproduce
/// instance `i` of a service run seeded with `base_seed`. Instance 0 is the
/// identity (byte-compatibility with the classic runtime); later instances
/// get an sha256-mixed seed so their workloads and coin streams are
/// independent draws, yet each is replayable on its own.
std::uint64_t derive_instance_seed(std::uint64_t base_seed, InstanceId i);

/// The topic-namespace prefix of pipeline slot `slot`, generation `gen`
/// ("i2g0/"). Generations cycle as slots are re-tenanted; the service
/// runtime picks the cycle length (docs/SERVICE.md).
std::string instance_topic_prefix(std::size_t slot, std::uint64_t gen);

/// Endpoint wrapper giving one auction instance its own topic namespace and
/// its own RNG stream over a *shared* per-node transport chain.
///
/// Outbound, every topic is rewritten base → scoped through the instance's
/// sub-registry; the reliability layer's re-request frames ("rl/rreq", whose
/// payload *names* a round topic as bytes) keep their control topic but have
/// the payload rewritten, so a peer's shared link finds the scoped entry in
/// its sent cache. rng() serves the instance's private stream — seeded like
/// the standalone run's per-node endpoint RNG, which is what makes each
/// instance's coin flips (the only protocol consumer of endpoint RNG) equal
/// to its single-run twin's. With a null registry the wrapper is a pure
/// pass-through (single-instance byte-identity).
class ScopedEndpoint final : public blocks::Endpoint {
 public:
  ScopedEndpoint(blocks::Endpoint& inner,
                 std::shared_ptr<net::ScopedTopicRegistry> topics,
                 std::uint64_t rng_seed)
      : inner_(inner), topics_(std::move(topics)), rng_(rng_seed) {}

  NodeId self() const override { return inner_.self(); }
  std::size_t num_providers() const override { return inner_.num_providers(); }
  crypto::Rng& rng() override { return rng_; }
  bool schedule_after(std::int64_t delay_ns,
                      std::function<void()> fn) override {
    return inner_.schedule_after(delay_ns, std::move(fn));
  }
  std::int64_t round_timeout() const override { return inner_.round_timeout(); }
  std::int64_t local_time() const override { return inner_.local_time(); }

  void send(NodeId to, const net::Topic& topic, SharedBytes payload) override;

 private:
  blocks::Endpoint& inner_;
  std::shared_ptr<net::ScopedTopicRegistry> topics_;  ///< null = identity
  crypto::Rng rng_;
};

}  // namespace dauct::core
