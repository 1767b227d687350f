#include "runtime/service_runtime.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/log.hpp"
#include "crypto/sha256.hpp"
#include "net/sim_transport.hpp"
#include "runtime/submission_codec.hpp"
#include "serde/auction_codec.hpp"
#include "serde/codec.hpp"

namespace dauct::runtime {

namespace {

constexpr const char* kBidsTopic = "client/bids";
constexpr const char* kResultTopic = "client/result";
/// Epoch-0 launch batch: when pipeline_depth ≥ 2 the first wave of instances
/// departs the client as ONE frame per provider carrying every instance's
/// submissions, instead of depth separate frames. Unscoped (it belongs to no
/// single instance); demultiplexed provider-side into per-instance starts.
constexpr const char* kBatchBidsTopic = "svc/bids";

/// Generation cycle length for slot prefixes when signing is off. A slot's
/// g-th and (g+4)-th tenants share a prefix — unambiguous as long as no
/// straggler frame outlives 3 full slot occupancies (~75ms of virtual time
/// against fault delays bounded in the tens of ms). Under auth the cycle is
/// not used: the validator's equivocation slots are keyed by (sender, topic)
/// for the whole run, so prefixes must be instance-unique or an honest
/// reused topic would read as equivocation.
constexpr std::uint64_t kGenerationCycle = 4;

}  // namespace

double ServiceRunResult::auctions_per_vsec() const {
  if (settled_ok == 0 || makespan <= 0) return 0.0;
  return static_cast<double>(settled_ok) / sim::to_seconds(makespan);
}

ServiceRunResult ServiceRuntime::run(
    const core::DistributedAuctioneer& auctioneer,
    std::span<const auction::AuctionInstance> workloads) {
  const SimRunConfig& base = config_.base;
  const std::size_t m = auctioneer.spec().m;
  const std::size_t n = auctioneer.spec().num_bidders;
  const NodeId client = static_cast<NodeId>(m);

  const std::size_t N = std::min(config_.instances, workloads.size());
  if (N == 0) return ServiceRunResult{};
  if (N < config_.instances) {
    DAUCT_WARN("service runtime: " << config_.instances
                                   << " instances configured but only "
                                   << workloads.size() << " workloads given");
  }
  const std::size_t D = std::clamp<std::size_t>(config_.pipeline_depth, 1, N);
  // Single-instance identity path: no prefixes, no batch frames — the run is
  // byte-identical to SimRuntime::run_distributed (golden-pinned).
  const bool identity = (N == 1);
  const auto gen_of = [&](core::InstanceId t) {
    const std::uint64_t g = t / D;
    return base.auth.enable ? g : g % kGenerationCycle;
  };

  // Instance-filtered deviations, base (all-instance) ones folded in.
  std::vector<ServiceDeviation> deviations = config_.deviations;
  for (const auto& [node, strategy] : base.deviations) {
    deviations.push_back(ServiceDeviation{sim::kAnyInstance, node, strategy});
  }

  sim::Scheduler scheduler(m + 1, base.latency, base.seed, base.cost_mode);
  scheduler.set_cpu_scale(base.cpu_scale);
  if (base.faults) {
    // Compile declarative per-instance link rules into topic-prefix filters.
    // An instance-confined rule can only ever touch scoped traffic: the
    // link's rl/* control frames and the epoch-0 svc/bids batch are outside
    // every instance namespace by construction.
    sim::FaultPlan plan = *base.faults;
    const auto compile_scope = [&](std::uint64_t instance, std::string& scope) {
      if (instance == sim::kAnyInstance) return;
      if (identity || instance >= N) {
        scope = "\x01";  // matches no topic: rule is inert
      } else {
        scope = core::instance_topic_prefix(instance % D, gen_of(instance));
      }
    };
    for (auto& r : plan.links) compile_scope(r.instance, r.topic_scope);
    for (auto& c : plan.cuts) compile_scope(c.instance, c.topic_scope);
    for (auto& p : plan.partitions) compile_scope(p.instance, p.topic_scope);
    scheduler.install_fault_plan(plan);
  }

  // Shared per-node transport: ONE wire endpoint, reliable link, signer, and
  // validator per provider, serving every instance. Scoped topics make the
  // link's dedup keys, the retransmit caches, the signature transcripts, and
  // the WAL records instance-tagged without any of those layers knowing
  // instances exist.
  crypto::Rng seeder(base.seed ^ 0xd15742u);
  std::shared_ptr<const net::KeyDirectory> key_dir;
  net::AuthStats auth_stats;
  if (base.auth.enable) {
    key_dir = std::make_shared<net::KeyDirectory>(m, base.seed);
  }
  struct SharedChain {
    std::unique_ptr<net::SimEndpoint> endpoint;
    std::unique_ptr<net::ReliableLink> link;
    std::unique_ptr<adversary::AuthTamperEndpoint> tamperer;
    std::unique_ptr<net::SignerEndpoint> signer;
    std::unique_ptr<net::MessageValidator> validator;
    blocks::Endpoint* top = nullptr;  ///< what instance endpoints stack on
  };
  std::vector<SharedChain> shared(m);
  // Same seeder stream as the single runtime: one draw per provider. The
  // SimEndpoint's own RNG is shadowed by each instance's ScopedEndpoint
  // stream (seeded identically for instance 0), so instance 0's coin flips
  // equal the classic runtime's.
  std::vector<std::uint64_t> endpoint_seeds(m);
  for (NodeId j = 0; j < m; ++j) endpoint_seeds[j] = seeder.next_u64();

  // Per-instance protocol state. Engine bundles live until the run ends —
  // a settled instance's engines are quiescent, not destroyed, so a late
  // timer or straggler frame can never dangle.
  struct InstanceNode {
    std::unique_ptr<core::ScopedEndpoint> scoped;
    std::unique_ptr<adversary::DeviantEndpoint> deviant;
    std::unique_ptr<core::ProviderEngine> engine;
    bool started = false;
    bool reported = false;
    sim::SimTime ba_done = 0;
    sim::SimTime eng_done = 0;
    std::optional<Bottom> override_abort;  ///< late batch-auth attribution
  };
  struct Instance {
    InstanceRunResult res;
    std::shared_ptr<net::ScopedTopicRegistry> topics;  ///< null = identity
    net::Topic scoped_result;
    std::vector<InstanceNode> nodes;
    std::vector<bool> result_seen;
    std::size_t results_at_client = 0;
  };
  std::vector<std::unique_ptr<Instance>> insts(N);
  // Current tenant of each namespace prefix. Overwritten as generations
  // cycle; a frame for a *settled* tenant is dropped at demux, which is what
  // keeps slot reuse safe against stragglers.
  std::unordered_map<std::string, core::InstanceId> prefix_owner;

  const net::Topic bids_topic(kBidsTopic);
  const net::Topic result_topic(kResultTopic);
  const net::Topic batch_topic(kBatchBidsTopic);

  // Durability: one WAL per node, shared by all instances. Message records
  // carry scoped topic strings (instance-tagged); decision records append in
  // commit order across instances. Service mode is write-only — amnesia
  // replay is a single-auction feature (scenario validation rejects it here).
  const bool wal_on = base.wal.enable;
  std::vector<std::shared_ptr<store::MemStorage>> storages(wal_on ? m : 0);
  std::vector<std::unique_ptr<store::Wal>> wals(wal_on ? m : 0);
  std::vector<std::uint64_t> wal_delivered(m, 0);

  const auto journal_decision = [&](NodeId j, store::DecisionKind kind, bool ok,
                                    const crypto::Digest& digest) {
    if (!wal_on) return;
    store::Decision d;
    d.kind = kind;
    d.ok = ok;
    d.digest = digest;
    if (key_dir) {
      Bytes msg;
      msg.reserve(1 + digest.size());
      msg.push_back(static_cast<std::uint8_t>(kind));
      msg.insert(msg.end(), digest.begin(), digest.end());
      const auto sig = crypto::ed25519::sign(key_dir->pair(j), BytesView(msg));
      d.signature.assign(sig.begin(), sig.end());
    }
    const Bytes enc = store::encode_decision(d);
    wals[j]->append(store::RecordType::kDecision, BytesView(enc));
    wals[j]->commit();
  };

  const auto journal_message = [&](NodeId j, const net::Message& msg) {
    if (!wal_on) return;
    wals[j]->append_message_record(msg.from, msg.topic.str(),
                                   BytesView(msg.payload));
    wals[j]->commit();
    ++wal_delivered[j];
  };

  const auto maybe_snapshot = [&](NodeId j) {
    if (!wal_on || base.wal.snapshot_every == 0) return;
    if (wal_delivered[j] % base.wal.snapshot_every != 0) return;
    // The single-auction snapshot flags (started/agreed/done) are per-engine;
    // with many engines per node we checkpoint the delivery count only.
    store::Snapshot s;
    s.messages_delivered = wal_delivered[j];
    const Bytes enc = store::encode_snapshot(s);
    wals[j]->append(store::RecordType::kSnapshot, BytesView(enc));
    wals[j]->commit();
  };

  /// Scoped topic → (owning instance, base topic). Nullopt: not instance
  /// traffic, an unclaimed prefix, or a base topic no engine ever interned.
  const auto demux = [&](const net::Topic& topic)
      -> std::optional<std::pair<core::InstanceId, net::Topic>> {
    if (identity) return std::make_pair(core::InstanceId{0}, topic);
    const std::string& s = topic.str();
    if (s.empty() || s[0] != 'i') return std::nullopt;
    const auto slash = s.find('/');
    if (slash == std::string::npos) return std::nullopt;
    const auto it = prefix_owner.find(s.substr(0, slash + 1));
    if (it == prefix_owner.end()) return std::nullopt;
    const auto b = net::Topic::lookup(std::string_view(s).substr(slash + 1));
    if (!b) return std::nullopt;
    return std::make_pair(it->second, *b);
  };

  const auto note_progress = [&](core::InstanceId t, NodeId j) {
    Instance& inst = *insts[t];
    InstanceNode& nd = inst.nodes[j];
    core::ProviderEngine& engine = *nd.engine;
    if (nd.ba_done == 0 && engine.agreed_bids().has_value()) {
      nd.ba_done = scheduler.now();
      if (wal_on) {
        serde::Writer w;
        const auto& bids = *engine.agreed_bids();
        w.varint(bids.size());
        for (const auto& b : bids) serde::write_bid(w, b);
        const Bytes enc = w.take();
        journal_decision(j, store::DecisionKind::kBidsAgreed, true,
                         crypto::sha256(BytesView(enc)));
      }
    }
    if (nd.eng_done == 0 && engine.done()) {
      nd.eng_done = scheduler.now();
    }
    if (engine.done() && !nd.reported) {
      nd.reported = true;
      const auto& out = *engine.outcome();
      serde::Writer w;
      w.boolean(out.ok());
      if (out.ok()) {
        w.bytes(serde::encode_result(out.value()));
      } else {
        w.u8(static_cast<std::uint8_t>(out.bottom().reason));
      }
      Bytes payload = w.take();
      if (wal_on) {
        journal_decision(j, store::DecisionKind::kOutcome, out.ok(),
                         crypto::sha256(BytesView(payload)));
      }
      scheduler.send(
          net::Message{j, client, inst.scoped_result, std::move(payload)});
    }
  };

  /// Engine-facing dispatch; `msg.topic` is the BASE topic.
  const auto dispatch_app = [&](core::InstanceId t, NodeId j,
                                const net::Message& msg) {
    InstanceNode& nd = insts[t]->nodes[j];
    if (msg.topic == bids_topic) {
      auto subs = detail::decode_submissions(BytesView(msg.payload));
      if (subs && !nd.started) {
        nd.started = true;
        journal_decision(j, store::DecisionKind::kStarted, true,
                         net::payload_digest(msg.payload));
        nd.engine->start(
            detail::sanitize_submissions(*subs, auctioneer.spec().limits));
      }
    } else {
      nd.engine->on_message(msg);
    }
    note_progress(t, j);
  };

  /// Validator + engine dispatch. `in.topic` is the scoped wire topic (the
  /// signature transcript covers it); `base_topic` is its engine-facing form.
  /// An abort lands on the OWNING instance's engine — node j's other
  /// instances keep running.
  const auto dispatch_verified = [&](core::InstanceId t, NodeId j,
                                     const net::Message& in,
                                     const net::Topic& base_topic) {
    net::Message verified;
    const net::Message* delivered = &in;
    if (net::MessageValidator* v = shared[j].validator.get()) {
      verified = in;
      switch (v->on_deliver(verified)) {
        case net::MessageValidator::Action::kDrop:
          return;
        case net::MessageValidator::Action::kAbort:
          insts[t]->nodes[j].engine->abort(
              Bottom{v->proof() ? AbortReason::kEquivocationDetected
                                : AbortReason::kProtocolViolation,
                     v->abort_detail()});
          note_progress(t, j);
          return;
        case net::MessageValidator::Action::kDeliver:
          break;
      }
      delivered = &verified;
    }
    if (delivered->topic == base_topic) {
      dispatch_app(t, j, *delivered);
    } else {
      net::Message app = *delivered;  // payload is refcounted, not copied
      app.topic = base_topic;
      dispatch_app(t, j, app);
    }
  };

  const auto honest = adversary::honest_bidder();
  /// Instance t's client-side submissions toward every provider, drawn from
  /// the instance's private bidder stream in the single-run twin's order
  /// (provider-outer, bidder-inner, one continuous stream).
  const auto make_submissions = [&](core::InstanceId t) {
    std::vector<Bytes> per_provider(m);
    crypto::Rng bidder_rng(insts[t]->res.derived_seed ^ 0xb1dde5u);
    const auction::AuctionInstance& w = workloads[t];
    for (NodeId j = 0; j < m; ++j) {
      std::vector<std::optional<auction::Bid>> subs(n);
      for (std::size_t i = 0; i < n && i < w.bids.size(); ++i) {
        const adversary::BidderBehaviour* behaviour = honest.get();
        if (auto it = base.bidder_script.find(static_cast<BidderId>(i));
            it != base.bidder_script.end()) {
          behaviour = it->second.get();
        }
        subs[i] = behaviour->bid_for(w.bids[i], j, bidder_rng);
      }
      per_provider[j] = detail::encode_submissions(subs);
    }
    return per_provider;
  };

  /// Stand up instance t: claim its namespace, stack a ScopedEndpoint (and
  /// any matching deviation) per node on the shared chain tops, build the
  /// engines. Does not send — launching is the caller's move.
  const auto create_instance = [&](core::InstanceId t) {
    auto up = std::make_unique<Instance>();
    Instance& inst = *up;
    inst.res.id = t;
    inst.res.derived_seed = core::derive_instance_seed(base.seed, t);
    if (!identity) {
      inst.res.topic_prefix = core::instance_topic_prefix(t % D, gen_of(t));
      inst.topics =
          std::make_shared<net::ScopedTopicRegistry>(inst.res.topic_prefix);
      prefix_owner[inst.res.topic_prefix] = t;
      inst.scoped_result = inst.topics->scope(result_topic);
    } else {
      inst.scoped_result = result_topic;
    }
    inst.result_seen.assign(m, false);
    inst.nodes.resize(m);
    crypto::Rng endpoint_seeder(inst.res.derived_seed ^ 0xd15742u);
    for (NodeId j = 0; j < m; ++j) {
      InstanceNode& nd = inst.nodes[j];
      nd.scoped = std::make_unique<core::ScopedEndpoint>(
          *shared[j].top, inst.topics, endpoint_seeder.next_u64());
      blocks::Endpoint* ep = nd.scoped.get();
      for (const auto& dv : deviations) {
        if (dv.node == j && dv.strategy &&
            (dv.instance == sim::kAnyInstance || dv.instance == t)) {
          nd.deviant =
              std::make_unique<adversary::DeviantEndpoint>(*ep, dv.strategy);
          ep = nd.deviant.get();
          break;
        }
      }
      const auction::Ask ask = j < workloads[t].asks.size()
                                   ? workloads[t].asks[j]
                                   : auction::Ask{j, {}, {}};
      nd.engine = auctioneer.make_engine(*ep, ask);
    }
    inst.res.launched = true;
    inst.res.launched_at = scheduler.now();
    insts[t] = std::move(up);
  };

  /// Submit instance t's bids, one frame per provider. `at_start` injects at
  /// t = 0 (initial wave); otherwise the send happens inside the client's
  /// settlement handler and departs with it.
  const auto send_bids = [&](core::InstanceId t, bool at_start) {
    Instance& inst = *insts[t];
    auto per_provider = make_submissions(t);
    const net::Topic topic =
        inst.topics ? inst.topics->scope(bids_topic) : bids_topic;
    // Frame tricks (adversary/bidder_adversary.hpp): submissions above were
    // drawn in canonical order, so only the injection order/count changes.
    for (NodeId idx = 0; idx < m; ++idx) {
      const NodeId j =
          base.bid_frames.reorder ? static_cast<NodeId>(m - 1 - idx) : idx;
      const int copies = base.bid_frames.replay ? 2 : 1;
      for (int rep = 0; rep < copies; ++rep) {
        net::Message msg{client, j, topic, SharedBytes(per_provider[j])};
        if (at_start) {
          scheduler.inject(sim::kSimStart, std::move(msg));
        } else {
          scheduler.send(std::move(msg));
        }
      }
    }
  };

  // Build the shared chains (the give-up hook is wired below, after the
  // demux lambdas it needs exist).
  for (NodeId j = 0; j < m; ++j) {
    SharedChain& c = shared[j];
    c.endpoint =
        std::make_unique<net::SimEndpoint>(scheduler, j, m, endpoint_seeds[j]);
    blocks::Endpoint* ep = c.endpoint.get();
    if (base.reliability.enable) {
      c.link = std::make_unique<net::ReliableLink>(*ep, base.reliability);
      ep = c.link.get();
    }
    if (base.auth.enable) {
      if (base.auth_adversary.node == j &&
          base.auth_adversary.mode != adversary::AuthTamperMode::kNone) {
        c.tamperer = std::make_unique<adversary::AuthTamperEndpoint>(
            *ep, base.auth_adversary.mode);
        ep = c.tamperer.get();
      }
      c.signer = std::make_unique<net::SignerEndpoint>(*ep, key_dir, &auth_stats);
      ep = c.signer.get();
      c.validator = std::make_unique<net::MessageValidator>(
          j, key_dir, base.auth, base.seed ^ (0xba7c4000u + j), &auth_stats);
    }
    c.top = ep;
    if (wal_on) {
      storages[j] = std::make_shared<store::MemStorage>();
      wals[j] = std::make_unique<store::Wal>(storages[j]);
      wals[j]->open();
      store::WalMeta meta;
      meta.run_seed = base.seed;
      meta.node = j;
      meta.providers = m;
      meta.users = n;
      meta.k = auctioneer.spec().k;
      meta.endpoint_seed = endpoint_seeds[j];
      const Bytes enc = store::encode_meta(meta);
      wals[j]->append(store::RecordType::kMeta, BytesView(enc));
      wals[j]->commit();
    }
  }

  // A retransmit give-up names a scoped topic: the failure belongs to that
  // topic's instance alone. (Identity path: same text as the single runtime.)
  for (NodeId j = 0; j < m; ++j) {
    if (!shared[j].link) continue;
    shared[j].link->set_on_give_up(
        [&, j](NodeId to, const net::Topic& topic, std::size_t attempts) {
          const auto d = demux(topic);
          if (!d || !insts[d->first] || insts[d->first]->res.settled) return;
          insts[d->first]->nodes[j].engine->abort(Bottom{
              AbortReason::kDeliveryFailed,
              "provider " + std::to_string(to) + " unreachable on '" +
                  topic.str() + "' after " + std::to_string(attempts) +
                  " attempts"});
          note_progress(d->first, j);
        });
  }

  for (NodeId j = 0; j < m; ++j) {
    scheduler.set_deliver(j, [&, j](const net::Message& raw) {
      // Shared link first: control traffic and wire duplicates die here,
      // headers are stripped in place (payloads are refcounted aliases).
      net::Message unwrapped;
      const net::Message* carried = &raw;
      if (net::ReliableLink* link = shared[j].link.get()) {
        unwrapped = raw;
        if (!link->on_deliver(unwrapped)) return;
        carried = &unwrapped;
      }
      journal_message(j, *carried);
      if (carried->topic == batch_topic) {
        // Epoch-0 batch from the client: split into per-instance starts.
        serde::Reader r(BytesView(carried->payload));
        const std::uint64_t count = r.varint();
        if (!r.ok() || count > N) return;
        for (std::uint64_t e = 0; e < count; ++e) {
          const std::uint64_t t = r.varint();
          Bytes body = r.bytes();
          if (!r.ok() || t >= N || !insts[t]) return;
          const net::Message sub{carried->from, j, bids_topic,
                                 SharedBytes(std::move(body))};
          dispatch_verified(t, j, sub, bids_topic);
        }
        maybe_snapshot(j);
        return;
      }
      const auto d = demux(carried->topic);
      if (!d) return;
      const core::InstanceId t = d->first;
      if (!insts[t] || insts[t]->res.settled) return;  // straggler: drop
      dispatch_verified(t, j, *carried, d->second);
      maybe_snapshot(j);
    });
  }

  // The client settles instances and drives the pipeline: the m-th result
  // report of instance t frees its slot, and instance t + depth launches in
  // the same handler (its bids depart as the handler's outbox flushes).
  sim::SimTime last_settle_at = 0;
  scheduler.set_deliver(client, [&](const net::Message& msg) {
    const auto d = demux(msg.topic);
    if (!d || d->second != result_topic || msg.from >= m) return;
    const core::InstanceId t = d->first;
    if (!insts[t]) return;
    Instance& inst = *insts[t];
    if (inst.res.settled || inst.result_seen[msg.from]) return;
    inst.result_seen[msg.from] = true;
    if (++inst.results_at_client < m) return;
    // Settlement — ⊥ reports settle too: a poisoned instance retires and
    // the pipeline stays live for the rest.
    inst.res.settled = true;
    inst.res.settled_at = scheduler.now();
    last_settle_at = scheduler.now();
    const core::InstanceId next = t + D;
    if (next < N) {
      create_instance(next);
      send_bids(next, /*at_start=*/false);
    }
  });

  // Launch the first wave: instances 0..D-1 at t = 0. Two or more at once
  // batch into one svc/bids frame per provider; a single launch uses the
  // plain per-instance form (identity path: byte-identical to the classic
  // client batch).
  const std::size_t initial = std::min(D, N);
  for (core::InstanceId t = 0; t < initial; ++t) create_instance(t);
  if (initial >= 2) {
    std::vector<std::vector<Bytes>> subs(initial);
    for (core::InstanceId t = 0; t < initial; ++t) subs[t] = make_submissions(t);
    for (NodeId idx = 0; idx < m; ++idx) {
      const NodeId j =
          base.bid_frames.reorder ? static_cast<NodeId>(m - 1 - idx) : idx;
      serde::Writer w;
      w.varint(initial);
      for (core::InstanceId t = 0; t < initial; ++t) {
        w.varint(t);
        w.bytes(BytesView(subs[t][j]));
      }
      const Bytes frame = w.take();
      const int copies = base.bid_frames.replay ? 2 : 1;
      for (int rep = 0; rep < copies; ++rep) {
        scheduler.inject(sim::kSimStart,
                         net::Message{client, j, batch_topic, frame});
      }
    }
  } else {
    send_bids(0, /*at_start=*/true);
  }

  const bool overflow = scheduler.run_some(base.max_events);
  if (overflow) {
    DAUCT_WARN("service runtime: event budget exhausted; treating run as stalled");
  }

  // Flush batch verification. A late abort is attributed by the proof's
  // scoped topic when there is one; a proofless batch failure cannot name
  // its instance, so it lands on every instance still in flight on that
  // node (never on one that settled before the forgery could matter).
  if (base.auth.enable) {
    for (NodeId j = 0; j < m; ++j) {
      net::MessageValidator* v = shared[j].validator.get();
      if (!v || v->finalize() != net::MessageValidator::Action::kAbort) continue;
      const Bottom b{v->proof() ? AbortReason::kEquivocationDetected
                                : AbortReason::kProtocolViolation,
                     v->abort_detail()};
      std::optional<core::InstanceId> who;
      if (identity) {
        who = core::InstanceId{0};
      } else if (v->proof()) {
        const std::string& s = v->proof()->topic;
        const auto slash = s.find('/');
        if (!s.empty() && s[0] == 'i' && slash != std::string::npos) {
          if (const auto it = prefix_owner.find(s.substr(0, slash + 1));
              it != prefix_owner.end()) {
            who = it->second;
          }
        }
      }
      if (who) {
        if (insts[*who]) insts[*who]->nodes[j].override_abort = b;
      } else {
        for (auto& up : insts) {
          if (up && up->res.launched && !up->res.settled) {
            up->nodes[j].override_abort = b;
          }
        }
      }
    }
  }

  ServiceRunResult result;
  result.event_budget_exhausted = overflow;
  result.events_dispatched = scheduler.events_dispatched();
  result.instances.reserve(N);
  bool all_settled = true;
  for (core::InstanceId t = 0; t < N; ++t) {
    if (!insts[t]) {
      // Its pipeline slot never freed: a predecessor stalled or the budget
      // ran out first. The instance never launched — ⊥ by construction.
      InstanceRunResult r;
      r.id = t;
      r.derived_seed = core::derive_instance_seed(base.seed, t);
      r.outcome = auction::AuctionOutcome(
          Bottom{overflow ? AbortReason::kEventBudgetExceeded
                          : AbortReason::kTimeout,
                 "instance " + std::to_string(t) +
                     " never launched (pipeline slot blocked)"});
      result.stalled = true;
      all_settled = false;
      result.instances.push_back(std::move(r));
      continue;
    }
    Instance& inst = *insts[t];
    inst.res.provider_outcomes.reserve(m);
    for (NodeId j = 0; j < m; ++j) {
      InstanceNode& nd = inst.nodes[j];
      if (nd.override_abort) {
        inst.res.provider_outcomes.emplace_back(*nd.override_abort);
      } else if (nd.engine->done()) {
        inst.res.provider_outcomes.push_back(*nd.engine->outcome());
      } else if (overflow) {
        result.stalled = true;
        inst.res.provider_outcomes.push_back(auction::AuctionOutcome(Bottom{
            AbortReason::kEventBudgetExceeded,
            "event budget (" + std::to_string(base.max_events) +
                ") exhausted before the provider finished"}));
      } else {
        result.stalled = true;
        inst.res.provider_outcomes.push_back(auction::AuctionOutcome(
            Bottom{AbortReason::kTimeout, "provider never finished"}));
      }
    }
    inst.res.outcome =
        core::combine_outcomes(std::span(inst.res.provider_outcomes));
    if (inst.res.outcome.ok()) ++result.settled_ok;
    if (!inst.res.settled) all_settled = false;
    result.instances.push_back(std::move(inst.res));
  }
  result.makespan = all_settled ? last_settle_at : scheduler.now();
  result.traffic = scheduler.traffic();
  if (const auto* fs = scheduler.fault_stats()) result.fault_stats = *fs;
  for (const auto& c : shared) {
    if (c.link) result.reliability_stats += c.link->stats();
  }
  if (wal_on) {
    for (const auto& w : wals) result.wal_stats += w->stats();
  }
  if (base.auth.enable) {
    result.auth_stats = auth_stats;
    for (NodeId j = 0; j < m && !result.equivocation_proof; ++j) {
      if (shared[j].validator && shared[j].validator->proof()) {
        result.equivocation_proof = shared[j].validator->proof();
      }
    }
    if (!result.equivocation_proof) {
      std::vector<const net::MessageValidator*> vs;
      for (NodeId j = 0; j < m; ++j) {
        if (shared[j].validator) vs.push_back(shared[j].validator.get());
      }
      result.equivocation_proof = net::audit_equivocation(vs, *key_dir);
    }
    if (result.equivocation_proof) {
      // Surface the transferable proof as the owning instance's reason, as
      // the single runtime does for its global outcome.
      std::optional<core::InstanceId> who;
      if (identity) {
        who = core::InstanceId{0};
      } else {
        const std::string& s = result.equivocation_proof->topic;
        const auto slash = s.find('/');
        if (!s.empty() && s[0] == 'i' && slash != std::string::npos) {
          if (const auto it = prefix_owner.find(s.substr(0, slash + 1));
              it != prefix_owner.end()) {
            who = it->second;
          }
        }
      }
      if (who && *who < result.instances.size() &&
          !result.instances[*who].outcome.ok()) {
        result.instances[*who].outcome = auction::AuctionOutcome(
            Bottom{AbortReason::kEquivocationDetected,
                   "transferable equivocation proof against provider p" +
                       std::to_string(result.equivocation_proof->signer) +
                       " on topic '" + result.equivocation_proof->topic + "'"});
      }
    }
  }
  return result;
}

}  // namespace dauct::runtime
