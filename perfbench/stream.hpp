// Workload table and closed-loop auction streams of the end-to-end benchmark.
//
// A workload is one paper-shaped auction stream (METRICS.md says why each
// exists and which layers it bypasses). A stream is cut into chunks: one
// chunk is one runtime::ServiceRuntime::run over `chunk` instances at
// pipeline depth 2, so two auctions are in flight and settling one launches
// the next. Chunk c runs at base seed derive_instance_seed(seed, c), and
// instance i of it draws its inputs from derive_instance_seed(base, i) — the
// seed its standalone SimRuntime twin runs at.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "auction/types.hpp"
#include "calibrate.hpp"
#include "core/distributed_auctioneer.hpp"
#include "runtime/service_runtime.hpp"

namespace perfbench {

using namespace dauct;

enum class AuctionKind { kDouble, kStandard };

struct Workload {
  std::string_view name;
  AuctionKind kind = AuctionKind::kDouble;
  std::size_t users = 0;      ///< n
  std::size_t providers = 0;  ///< m; the coalition bound is k = ⌈m/2⌉ − 1
  bool signed_frames = false; ///< ed25519 auth with batch verification
  bool lossy_durable = false; ///< ReliableLink + WAL + 2% provider-link loss
  std::size_t chunk = 16;     ///< instances per ServiceRuntime::run
  HostProfile profile = HostProfile::kMixed;  ///< host_speed() kernels
};

inline constexpr double kStandardEpsilon = 0.25;
inline constexpr std::size_t kPipelineDepth = 2;

std::span<const Workload> all_workloads();
const Workload* find_workload(std::string_view name);

std::size_t coalition_bound(const Workload& w);

/// The market a stream runs on: adapter, task graph and auctioneer. This is
/// the auctioneer half of set-up.
std::unique_ptr<core::DistributedAuctioneer> make_auctioneer(const Workload& w);

std::uint64_t chunk_seed(std::uint64_t seed, std::size_t chunk);

/// The inputs of one chunk: instance i from derive_instance_seed(base, i).
/// This is the workload-generation half of set-up.
std::vector<auction::AuctionInstance> generate_chunk(const Workload& w,
                                                     std::uint64_t base);

/// The per-node transport stack of the workload at run seed `seed`
/// (kMeasured, community latency; auth / reliability / WAL / loss per the
/// workload).
runtime::SimRunConfig sim_config(const Workload& w, std::uint64_t seed);

struct ChunkRun {
  runtime::ServiceRunResult result;
  double wall_s = 0;  ///< host time of ServiceRuntime::run alone
  double cpu_s = 0;   ///< its thread CPU time
};

/// `cpu_scale` multiplies the handler CPU time kMeasured charges to the node
/// clocks (SimRunConfig::cpu_scale).
ChunkRun run_chunk(const Workload& w, const core::DistributedAuctioneer& a,
                   std::span<const auction::AuctionInstance> inputs,
                   std::uint64_t base, double cpu_scale = 1.0);

/// Exact counts a chunk's result structs report, summed over chunks.
struct Counters {
  std::uint64_t events = 0, msgs = 0, bytes = 0, drops = 0;
  std::uint64_t rl_tracked = 0, rl_retransmits = 0, rl_acks_standalone = 0,
                rl_acks_piggybacked = 0, rl_dups_suppressed = 0,
                rl_rerequests = 0, rl_give_ups = 0;
  std::uint64_t auth_signs = 0, auth_sign_reuses = 0, auth_verified_eager = 0,
                auth_verified_batched = 0, auth_batches = 0;
  std::uint64_t wal_records = 0, wal_bytes = 0, wal_commits = 0;
  std::uint64_t settled_ok = 0;

  void add(const runtime::ServiceRunResult& r);
  bool operator==(const Counters&) const = default;
};

enum class Verdict { kCorrect, kBottom, kUnsettled, kUnlaunched, kWrong };

/// The reference every settled auction is checked against, computed outside
/// every timed region. Double auction: DoubleAuctionAdapter::run_centralized.
/// Standard auction: the standalone SimRuntime twin at the instance's derived
/// seed, whose result must equal run_centralized(instance, coin) where `coin`
/// is the common-coin value the twin's tasks ran with.
class SeedRecordingAdapter;

class Reference {
 public:
  explicit Reference(const Workload& w);

  Verdict check(const runtime::InstanceRunResult& inst,
                const auction::AuctionInstance& input) const;

 private:
  const Workload& workload_;
  std::unique_ptr<core::DistributedAuctioneer> centralized_;
  // Standard auction only: the twin's auctioneer and its coin recorder.
  std::shared_ptr<const SeedRecordingAdapter> recorder_;
  std::unique_ptr<core::DistributedAuctioneer> twin_;
};

}  // namespace perfbench
