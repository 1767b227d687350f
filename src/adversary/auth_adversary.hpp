// Network-level adversaries against the signing layer.
//
// The deviation strategies (provider_deviation.hpp) model a *compromised
// provider* — it tampers above the signer, so its output is validly signed
// with its own key (the stolen-key equivocator). This file models the other
// threat: an adversary *on the wire* who cannot sign as anyone, only inject
// — forged frames carrying signatures that cannot verify, or byte-identical
// replays of frames already sent. The auth scenarios pin that the validator
// rejects both without aborting an honest run.
//
// AuthTamperEndpoint sits between the SignerEndpoint and the link/transport:
// it sees correctly signed frames going down and injects its extra traffic
// alongside them, exactly what a man-on-the-wire adjacent to this node could.
#pragma once

#include <cstdint>

#include "blocks/block.hpp"
#include "common/ids.hpp"

namespace dauct::adversary {

enum class AuthTamperMode : std::uint8_t {
  kNone,
  /// For every signed frame sent, also inject a copy with a flipped payload
  /// byte — the signature no longer matches, so verification must fail.
  kForge,
  /// For every signed frame sent, also re-inject the *previous* frame sent to
  /// the same peer (byte-identical replay of an older round).
  kReplay,
};

struct AuthAdversaryConfig {
  NodeId node = kNoNode;  ///< which provider's outgoing edge is attacked
  AuthTamperMode mode = AuthTamperMode::kNone;
};

/// Injects forged or replayed frames alongside this node's real sends.
/// Only provider-bound signed frames (to < m, auth magic present) are
/// attacked; client traffic and control frames pass through untouched.
class AuthTamperEndpoint final : public blocks::Endpoint {
 public:
  AuthTamperEndpoint(blocks::Endpoint& inner, AuthTamperMode mode)
      : inner_(inner), mode_(mode) {}

  NodeId self() const override { return inner_.self(); }
  std::size_t num_providers() const override { return inner_.num_providers(); }
  crypto::Rng& rng() override { return inner_.rng(); }
  bool schedule_after(std::int64_t delay_ns,
                      std::function<void()> fn) override {
    return inner_.schedule_after(delay_ns, std::move(fn));
  }
  std::int64_t round_timeout() const override { return inner_.round_timeout(); }
  std::int64_t local_time() const override { return inner_.local_time(); }

  void send(NodeId to, const net::Topic& topic, SharedBytes payload) override;

 private:
  blocks::Endpoint& inner_;
  AuthTamperMode mode_;

  struct Remembered {
    net::Topic topic{};
    SharedBytes payload;
  };
  std::vector<Remembered> last_sent_;  ///< per peer, for kReplay
};

}  // namespace dauct::adversary
