#include "stream.hpp"

#include <chrono>

#include "auction/workload.hpp"
#include "core/adapters.hpp"
#include "core/service_plane.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

// §6.2 Fig. 4 double auction and §6.3 Fig. 5 standard auction shapes.
constexpr Workload kWorkloads[] = {
    {.name = "double_stream", .kind = AuctionKind::kDouble, .users = 128,
     .providers = 8, .chunk = 32},
    {.name = "standard_stream", .kind = AuctionKind::kStandard, .users = 48,
     .providers = 4, .chunk = 16},
    {.name = "signed_stream", .kind = AuctionKind::kDouble, .users = 48,
     .providers = 4, .signed_frames = true, .chunk = 8,
     .profile = HostProfile::kField},
    {.name = "lossy_durable_stream", .kind = AuctionKind::kDouble, .users = 128,
     .providers = 8, .lossy_durable = true, .chunk = 16},
};

}  // namespace

std::span<const Workload> all_workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::size_t coalition_bound(const Workload& w) { return (w.providers + 1) / 2 - 1; }

std::unique_ptr<core::DistributedAuctioneer> make_auctioneer(const Workload& w) {
  std::shared_ptr<const core::AuctionAdapter> adapter;
  if (w.kind == AuctionKind::kStandard) {
    auction::StandardAuctionParams params;
    params.epsilon = kStandardEpsilon;
    adapter = std::make_shared<core::StandardAuctionAdapter>(params);
  } else {
    adapter = std::make_shared<core::DoubleAuctionAdapter>();
  }
  core::AuctioneerSpec spec;
  spec.m = w.providers;
  spec.k = coalition_bound(w);
  spec.num_bidders = w.users;
  return std::make_unique<core::DistributedAuctioneer>(spec, std::move(adapter));
}

std::uint64_t chunk_seed(std::uint64_t seed, std::size_t chunk) {
  return core::derive_instance_seed(seed, chunk);
}

std::vector<auction::AuctionInstance> generate_chunk(const Workload& w,
                                                     std::uint64_t base) {
  const auction::WorkloadParams params =
      w.kind == AuctionKind::kStandard
          ? auction::standard_auction_workload(w.users, w.providers)
          : auction::double_auction_workload(w.users, w.providers);
  std::vector<auction::AuctionInstance> out;
  out.reserve(w.chunk);
  for (std::size_t i = 0; i < w.chunk; ++i) {
    crypto::Rng rng(core::derive_instance_seed(base, i));
    out.push_back(auction::generate(params, rng));
  }
  return out;
}

runtime::SimRunConfig sim_config(const Workload& w, std::uint64_t seed) {
  runtime::SimRunConfig cfg;
  cfg.seed = seed;
  cfg.cost_mode = sim::CostMode::kMeasured;
  if (w.signed_frames) {
    cfg.auth.enable = true;
    cfg.auth.batch_verify = true;
  }
  if (w.lossy_durable) {
    cfg.reliability.enable = true;
    cfg.wal.enable = true;
    // Provider↔provider links only: client traffic is outside the
    // reliability domain, and one lost client/result report stalls its
    // pipeline slot (METRICS.md, "client-edge stall").
    sim::FaultPlan plan;
    plan.seed = seed;
    for (NodeId a = 0; a < w.providers; ++a) {
      for (NodeId b = a + 1; b < w.providers; ++b) {
        sim::LinkFault rule;
        rule.from = a;
        rule.to = b;
        rule.drop = 0.02;
        rule.active_from = sim::from_millis(4);  // let the client batches land
        plan.links.push_back(rule);
      }
    }
    cfg.faults = plan;
  }
  return cfg;
}

ChunkRun run_chunk(const Workload& w, const core::DistributedAuctioneer& a,
                   std::span<const auction::AuctionInstance> inputs,
                   std::uint64_t base, double cpu_scale) {
  runtime::ServiceRunConfig svc;
  svc.base = sim_config(w, base);
  svc.base.cpu_scale = cpu_scale;
  svc.instances = inputs.size();
  svc.pipeline_depth = kPipelineDepth;
  runtime::ServiceRuntime service(std::move(svc));
  ChunkRun out;
  const std::int64_t cpu0 = thread_cpu_ns();
  const auto t0 = std::chrono::steady_clock::now();
  out.result = service.run(a, inputs);
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                   .count();
  out.cpu_s = static_cast<double>(thread_cpu_ns() - cpu0) / 1e9;
  return out;
}

void Counters::add(const runtime::ServiceRunResult& r) {
  events += r.events_dispatched;
  msgs += r.traffic.messages;
  bytes += r.traffic.bytes;
  drops += r.fault_stats.total_dropped();
  const net::ReliabilityStats& rl = r.reliability_stats;
  rl_tracked += rl.tracked;
  rl_retransmits += rl.retransmits;
  rl_acks_standalone += rl.acks_sent;
  rl_acks_piggybacked += rl.acks_piggybacked;
  rl_dups_suppressed += rl.duplicates_suppressed;
  rl_rerequests += rl.rerequests_sent;
  rl_give_ups += rl.give_ups;
  const net::AuthStats& au = r.auth_stats;
  auth_signs += au.signed_sends;
  auth_sign_reuses += au.signed_reuses;
  auth_verified_eager += au.verified_eager;
  auth_verified_batched += au.verified_batched;
  auth_batches += au.batches;
  wal_records += r.wal_stats.records_appended;
  wal_bytes += r.wal_stats.bytes_appended;
  wal_commits += r.wal_stats.commits;
  settled_ok += r.settled_ok;
}

// Wraps the standard-auction adapter so every task records the common-coin
// seed it ran with: SimRunResult::shared_seed is only filled by centralized
// runs, and the reference needs the twin's coin value. Used on the reference
// twin only, never in a timed stream.
class SeedRecordingAdapter final : public core::AuctionAdapter {
 public:
  explicit SeedRecordingAdapter(std::shared_ptr<const core::AuctionAdapter> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  core::TaskGraph build(std::size_t num_bidders, std::size_t m,
                        std::size_t k) const override {
    const core::TaskGraph inner = inner_->build(num_bidders, m, k);
    core::TaskGraph out;
    for (core::TaskSpec task : inner.tasks()) {
      task.compute = [fn = std::move(task.compute), seed = seed_](
                         const std::vector<Bytes>& deps,
                         const core::TaskContext& ctx) {
        *seed = ctx.shared_seed;
        return fn(deps, ctx);
      };
      out.add_task(std::move(task));
    }
    return out;
  }

  auction::AuctionResult run_centralized(const auction::AuctionInstance& instance,
                                         std::uint64_t seed) const override {
    return inner_->run_centralized(instance, seed);
  }

  std::uint64_t last_seed() const { return *seed_; }

 private:
  std::shared_ptr<const core::AuctionAdapter> inner_;
  std::shared_ptr<std::uint64_t> seed_ = std::make_shared<std::uint64_t>(0);
};

Reference::Reference(const Workload& w)
    : workload_(w), centralized_(make_auctioneer(w)) {
  if (w.kind != AuctionKind::kStandard) return;
  auto recorder = std::make_shared<SeedRecordingAdapter>(centralized_->adapter_ptr());
  recorder_ = recorder;
  twin_ = std::make_unique<core::DistributedAuctioneer>(centralized_->spec(),
                                                        std::move(recorder));
}

Verdict Reference::check(const runtime::InstanceRunResult& inst,
                         const auction::AuctionInstance& input) const {
  if (!inst.launched) return Verdict::kUnlaunched;
  if (!inst.settled) return Verdict::kUnsettled;
  if (!inst.outcome.ok()) return Verdict::kBottom;
  const auction::AuctionResult& got = inst.outcome.value();
  if (!twin_) {
    return got == centralized_->adapter().run_centralized(input, 0)
               ? Verdict::kCorrect
               : Verdict::kWrong;
  }
  runtime::SimRunConfig cfg = sim_config(workload_, inst.derived_seed);
  cfg.cost_mode = sim::CostMode::kZero;  // results never depend on timing
  const runtime::SimRunResult twin =
      runtime::SimRuntime(cfg).run_distributed(*twin_, input);
  if (!twin.global_outcome.ok()) return Verdict::kWrong;
  const auction::AuctionResult& want = twin.global_outcome.value();
  const bool ok = want == centralized_->adapter().run_centralized(
                              input, recorder_->last_seed()) &&
                  got == want;
  return ok ? Verdict::kCorrect : Verdict::kWrong;
}

}  // namespace perfbench
