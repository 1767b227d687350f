#include "net/reliable.hpp"

#include <algorithm>
#include <cstring>

#include "serde/codec.hpp"

namespace dauct::net {

namespace {

std::uint64_t cache_key(NodeId to, std::uint32_t topic) {
  return (static_cast<std::uint64_t>(to) << 32) | topic;
}

/// First byte of the link's wire header when piggybacked acks are on:
///   0xAB ‖ varint count ‖ count × (str topic ‖ 32-byte digest) ‖ payload.
/// Present on *every* provider-bound data frame (count may be 0), so the
/// receiver never has to sniff — both ends share one ReliabilityConfig.
constexpr std::uint8_t kLinkHeaderMagic = 0xAB;

/// Defensive bound on carried ack entries (frames arrive from peers).
constexpr std::uint64_t kMaxCarriedAcks = 4096;

}  // namespace

std::size_t ReliableLink::MsgKeyHash::operator()(const MsgKey& k) const {
  // The sha256 prefix is already uniform; fold in the peer and topic so two
  // peers' copies of one broadcast payload land in different buckets.
  std::uint64_t h;
  std::memcpy(&h, k.digest.data(), sizeof h);
  h ^= static_cast<std::uint64_t>(k.node) * 0x9e3779b97f4a7c15ull;
  h ^= static_cast<std::uint64_t>(k.topic) << 32;
  return static_cast<std::size_t>(h);
}

ReliableLink::ReliableLink(blocks::Endpoint& base, ReliabilityConfig config)
    : base_(base),
      config_(config),
      m_(base.num_providers()),
      ack_topic_(kAckTopicName),
      rreq_topic_(kRetransmitRequestTopicName),
      rtt_(m_) {}

void ReliableLink::send(NodeId to, const net::Topic& topic, SharedBytes payload) {
  if (topic == rreq_topic_) {
    // Round-watchdog re-requests are themselves fire-and-forget: the
    // watchdog re-arms, so a lost re-request costs one timeout, not a stall.
    ++stats_.rerequests_sent;
    base_.send(to, topic, std::move(payload));
    return;
  }
  if (to >= m_) {  // outside the provider reliability domain
    base_.send(to, topic, std::move(payload));
    return;
  }
  // Every call reaching this point is an application-level logical message
  // (retransmits and re-request answers re-enter at wire_send below): record
  // its key and flag reuse, the one pattern receiver dedup would misread.
  if (!bounded_insert(sent_keys_, sent_keys_order_,
                      MsgKey{to, topic.id(), payload_digest(payload)})) {
    ++stats_.sender_key_reuses;
  }
  sent_cache_[cache_key(to, topic.id())] = CachedSend{topic, payload};
  if (timers_available_) {
    const MsgKey key{to, topic.id(), payload_digest(payload)};
    const auto [it, inserted] =
        unacked_.emplace(key, Pending{to, topic, payload, 0, base_.local_time()});
    if (inserted) {
      if (schedule_retransmit(key, to, 0)) {
        ++stats_.tracked;
      } else {
        // The wrapped endpoint has no timer facility (thread/TCP runtimes):
        // retransmission is impossible, so don't accumulate pending entries
        // that nothing will ever retire. Acks-out and receiver-side dedup
        // keep working; delivery guarantees degrade to the transport's own.
        timers_available_ = false;
        unacked_.erase(it);
      }
    }
  }
  wire_send(to, topic, payload);
}

void ReliableLink::wire_send(NodeId to, const net::Topic& topic,
                             const SharedBytes& payload) {
  if (!config_.piggyback_acks) {
    base_.send(to, topic, payload);
    return;
  }
  // Wrapping is config-driven only — never runtime state like the timer
  // facility, which the receiving link cannot observe on the sender. On
  // timerless endpoints acks go out standalone (queue_or_send_ack), so the
  // header just carries an empty vector.
  // The link header is the frame's last wrapper before the wire: signatures
  // (and everything else above) cover the unwrapped payload, and the
  // receiving link strips the header before the validator looks at it.
  std::vector<PendingAck> acks;
  if (const auto it = pending_acks_.find(to); it != pending_acks_.end()) {
    acks = std::move(it->second);
    pending_acks_.erase(it);
  }
  serde::Writer w(1 + serde::varint_len(acks.size()) + payload.size() +
                  acks.size() * 48);
  w.u8(kLinkHeaderMagic);
  w.varint(acks.size());
  for (const auto& a : acks) {
    w.str(a.topic);
    w.raw(BytesView(a.digest.data(), a.digest.size()));
  }
  stats_.acks_piggybacked += acks.size();
  w.raw(payload.view());
  base_.send(to, topic, SharedBytes(w.take()));
}

sim::SimTime ReliableLink::rto(NodeId peer) const {
  if (peer >= rtt_.size() || !rtt_[peer].sampled) return config_.retransmit_delay;
  const RttEstimator& e = rtt_[peer];
  return std::max(config_.retransmit_delay, e.srtt + 4 * e.rttvar);
}

bool ReliableLink::schedule_retransmit(const MsgKey& key, NodeId to,
                                       std::size_t attempt) {
  // Exponential backoff in virtual time: RTO · 2^attempt (capped well below
  // overflow; max_retries bounds the chain anyway). The wrapped endpoint
  // counts the delay from the end of the running handler — when the frame
  // this timer guards actually departs.
  const sim::SimTime delay = rto(to) << std::min<std::size_t>(attempt, 16);
  return base_.schedule_after(delay, [this, weak = std::weak_ptr<int>(alive_), key] {
    if (weak.expired()) return;
    const auto it = unacked_.find(key);
    if (it == unacked_.end()) return;  // acked meanwhile
    Pending& p = it->second;
    if (p.attempt >= config_.max_retries) {
      ++stats_.give_ups;
      const NodeId to = p.to;
      const net::Topic topic = p.topic;
      const std::size_t attempts = p.attempt + 1;  // original + retransmits
      unacked_.erase(it);
      if (on_give_up_) on_give_up_(to, topic, attempts);
      return;
    }
    ++p.attempt;
    ++stats_.retransmits;
    p.sent_at = kNoClock;  // Karn: the ack may now answer either copy
    wire_send(p.to, p.topic, p.payload);
    schedule_retransmit(key, p.to, p.attempt);
  });
}

void ReliableLink::on_ack(const MsgKey& key) {
  ++stats_.acks_received;
  const auto it = unacked_.find(key);
  if (it == unacked_.end()) return;  // redundant re-acks miss and are fine
  const Pending& p = it->second;
  const std::int64_t now = base_.local_time();
  if (p.sent_at != kNoClock && now != kNoClock && now >= p.sent_at) {
    // RFC 6298 §2 with α = 1/8, β = 1/4, in integer ns: RTTVAR from the old
    // SRTT first, then SRTT.
    const sim::SimTime r = now - p.sent_at;
    RttEstimator& e = rtt_[p.to];
    if (!e.sampled) {
      e.srtt = r;
      e.rttvar = r / 2;
      e.sampled = true;
    } else {
      const sim::SimTime err = e.srtt > r ? e.srtt - r : r - e.srtt;
      e.rttvar = (3 * e.rttvar + err) / 4;
      e.srtt = (7 * e.srtt + r) / 8;
    }
  }
  unacked_.erase(it);
}

void ReliableLink::answer_from_cache(NodeId to, const CachedSend& cached) {
  if (const auto it = unacked_.find(
          MsgKey{to, cached.topic.id(), payload_digest(cached.payload)});
      it != unacked_.end()) {
    it->second.sent_at = kNoClock;  // Karn: the ack may answer this copy
  }
  wire_send(to, cached.topic, cached.payload);
}

void ReliableLink::send_ack_frame(NodeId to, const std::string& topic,
                                  const crypto::Digest& digest) {
  // Standalone ack frame (docs/RELIABILITY.md): topic string ++ raw 32-byte
  // payload digest. The fixed-size tail makes the split unambiguous without
  // framing.
  Bytes ack;
  ack.reserve(topic.size() + digest.size());
  ack.insert(ack.end(), topic.begin(), topic.end());
  ack.insert(ack.end(), digest.begin(), digest.end());
  ++stats_.acks_sent;
  base_.send(to, ack_topic_, SharedBytes(std::move(ack)));
}

void ReliableLink::queue_or_send_ack(const net::Message& msg) {
  const std::string& topic = msg.topic.str();
  const crypto::Digest digest = payload_digest(msg.payload);
  if (!config_.piggyback_acks || !timers_available_) {
    send_ack_frame(msg.from, topic, digest);
    return;
  }
  // Queue the ack and arm the end-of-instant flush: any data frame to this
  // peer sent from the current handler carries it for free (wire_send), and
  // the flush timer — due at the handler's end, exactly when an immediate
  // ack would have departed — sends the leftovers standalone. Same ack
  // timing either way; fewer messages.
  pending_acks_[msg.from].push_back(PendingAck{topic, digest});
  if (!ack_flush_scheduled_) {
    ack_flush_scheduled_ = true;
    if (!base_.schedule_after(0, [this, weak = std::weak_ptr<int>(alive_)] {
          if (weak.expired()) return;
          flush_pending_acks();
        })) {
      // No timer facility after all: degrade to immediate standalone acks,
      // starting with what was just queued.
      timers_available_ = false;
      ack_flush_scheduled_ = false;
      flush_pending_acks();
    }
  }
}

void ReliableLink::flush_pending_acks() {
  ack_flush_scheduled_ = false;
  // Drain into a local list first (send_ack_frame goes through base_.send,
  // and nothing below this layer may observe a half-drained queue), then
  // send in peer order — not unordered_map order, which is a hash-table
  // artifact the deterministic event stream must not depend on.
  std::unordered_map<NodeId, std::vector<PendingAck>> pending;
  pending.swap(pending_acks_);
  std::vector<NodeId> peers;
  peers.reserve(pending.size());
  for (const auto& [to, acks] : pending) peers.push_back(to);
  std::sort(peers.begin(), peers.end());
  for (NodeId to : peers) {
    for (const auto& a : pending[to]) send_ack_frame(to, a.topic, a.digest);
  }
}

bool ReliableLink::on_deliver(net::Message& msg) {
  // Control frames name topics as strings chosen by the peer: resolve them
  // with a find-only registry query (Topic::lookup) — a name no local block
  // ever interned cannot match any pending entry or cached payload, so it
  // is dropped instead of interned (the append-only registry must stay
  // bounded by protocol structure, not by hostile traffic).
  if (msg.topic == ack_topic_) {
    const BytesView v = msg.payload.view();
    if (v.size() < 32) return false;  // malformed ack: drop
    const auto topic = net::Topic::lookup(std::string_view(
        reinterpret_cast<const char*>(v.data()), v.size() - 32));
    if (!topic) return false;  // ack for a topic nobody here ever sent
    MsgKey key{msg.from, topic->id(), {}};
    std::memcpy(key.digest.data(), v.data() + (v.size() - 32), 32);
    on_ack(key);
    return false;
  }
  if (msg.topic == rreq_topic_) {
    const BytesView v = msg.payload.view();
    if (v.empty()) return false;  // malformed re-request: drop
    if (v.size() == 1 && v[0] == '*') {
      // Rejoin sweep (request_rejoin): the peer lost its memory and asks for
      // everything this link ever sent it. Answer the whole sent cache for
      // that peer, in topic-id order — never hash-table order, which the
      // deterministic event stream must not depend on. The recovered peer's
      // restored dedup set swallows what its WAL already had.
      std::vector<const CachedSend*> entries;
      for (const auto& [key, cached] : sent_cache_) {
        if (static_cast<NodeId>(key >> 32) == msg.from) entries.push_back(&cached);
      }
      std::sort(entries.begin(), entries.end(),
                [](const CachedSend* a, const CachedSend* b) {
                  return a->topic.id() < b->topic.id();
                });
      for (const CachedSend* cached : entries) {
        ++stats_.rejoin_answers;
        answer_from_cache(msg.from, *cached);
      }
      return false;
    }
    const auto topic = net::Topic::lookup(
        std::string_view(reinterpret_cast<const char*>(v.data()), v.size()));
    if (!topic) return false;  // unknown round topic: nothing cached anyway
    // Resend untracked: the original's ack/retransmit entry (if still
    // pending) keeps running, and the receiver dedups either way.
    if (const auto it = sent_cache_.find(cache_key(msg.from, topic->id()));
        it != sent_cache_.end()) {
      ++stats_.rerequests_answered;
      answer_from_cache(msg.from, it->second);
    }
    return false;
  }
  if (msg.from >= m_) return true;  // client traffic: no acks, no dedup
  if (config_.piggyback_acks) {
    // Provider data frames arrive wrapped in the link header (wire_send):
    // process the carried ack vector, then strip the header in place — an
    // aliasing suffix view, no byte copy — so everything above this layer
    // (validator, engine, dedup key) sees the logical payload.
    serde::Reader r(msg.payload.view());
    if (r.u8() != kLinkHeaderMagic) return false;  // malformed frame: drop
    const std::uint64_t count = r.varint();
    if (!r.ok() || count > kMaxCarriedAcks) return false;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::string_view topic_name = r.str_view();
      const BytesView digest = r.raw_view(32);
      if (!r.ok()) return false;
      const auto topic = net::Topic::lookup(topic_name);
      if (!topic) continue;  // ack for a topic nobody here ever sent
      MsgKey key{msg.from, topic->id(), {}};
      std::memcpy(key.digest.data(), digest.data(), 32);
      on_ack(key);
    }
    msg.set_payload(
        msg.payload.suffix(msg.payload.size() - r.remaining()));
  }
  queue_or_send_ack(msg);  // (re-)ack every copy — a lost ack is recovered by the re-ack
  if (!bounded_insert(seen_, seen_order_,
                      MsgKey{msg.from, msg.topic.id(), payload_digest(msg.payload)})) {
    ++stats_.duplicates_suppressed;
    return false;
  }
  return true;
}

void ReliableLink::restore_delivered(const net::Message& msg) {
  // Same key the live path inserts after header-stripping: the WAL logs the
  // engine-facing payload, so the digests line up. Client traffic is outside
  // the dedup domain live, and stays outside here.
  if (msg.from >= m_) return;
  if (bounded_insert(seen_, seen_order_,
                     MsgKey{msg.from, msg.topic.id(), payload_digest(msg.payload)})) {
    ++stats_.restored_delivered;
  }
}

void ReliableLink::request_rejoin() {
  // Not routed through send(): the sweep is its own fire-and-forget protocol
  // step with its own counter, and must not perturb rerequests_sent (pinned
  // by scenario fingerprints on non-recovery runs).
  const SharedBytes star{Bytes{std::uint8_t{'*'}}};
  for (NodeId p = 0; p < static_cast<NodeId>(m_); ++p) {
    if (p == base_.self()) continue;
    ++stats_.rejoin_requests_sent;
    base_.send(p, rreq_topic_, star);
  }
}

bool ReliableLink::bounded_insert(std::unordered_set<MsgKey, MsgKeyHash>& set,
                                  std::deque<MsgKey>& order, const MsgKey& key) {
  if (!set.insert(key).second) return false;
  order.push_back(key);
  const std::size_t window = std::max<std::size_t>(config_.dedup_window, 1);
  while (order.size() > window) {
    set.erase(order.front());
    order.pop_front();
    ++stats_.dedup_evictions;
  }
  return true;
}

}  // namespace dauct::net
