// dauct — command-line front end for the distributed auctioneer.
//
// Run an auction (synthetic workload or CSV market data) through the
// distributed protocol or the trusted-auctioneer baseline, on the simulated,
// threaded, or real-TCP runtime, and print the result as a report or CSV.
//
// Examples:
//   dauct_cli --auction double --users 50 --providers 5 --k 2
//   dauct_cli --auction standard --users 30 --providers 8 --k 1 --epsilon 0.1
//   dauct_cli --bids bids.csv --asks asks.csv --k 1 --csv
//   dauct_cli --auction double --users 20 --providers 4 --runtime tcp
//   dauct_cli --auction double --users 20 --providers 4 --centralized
//   dauct_cli --scenario scenarios/k_crash.scn
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "auction/workload.hpp"
#include "core/adapters.hpp"
#include "core/service_plane.hpp"
#include "runtime/scenario.hpp"
#include "runtime/service_runtime.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/tcp_runtime.hpp"
#include "runtime/thread_runtime.hpp"
#include "serde/csv.hpp"

namespace {

using namespace dauct;

struct Options {
  std::string auction = "double";   // double | standard
  std::string runtime = "sim";      // sim | thread | tcp
  std::string latency = "community";  // zero | lan | community
  std::string mode = "value";       // value | bits | perbit
  std::size_t users = 20;
  std::size_t providers = 5;
  std::size_t k = 1;
  double epsilon = 0.1;
  std::uint64_t seed = 1;
  std::string bids_file;
  std::string asks_file;
  std::string scenario_file;
  bool centralized = false;
  bool csv_output = false;
  bool trace = false;
  bool help = false;
  /// Single-node tcp deployment: "" (off), a provider index, or "client".
  std::string tcp_node;
  std::uint16_t base_port = 0;
  std::string wal_dir;          ///< durable provider state (tcp single-node)
  std::uint64_t crash_after = 0;  ///< kill hook after N WAL message records
  net::ReliabilityConfig reliability;  // --reliable and friends (sim runtime)
  net::AuthConfig auth;                // --auth / --auth-batch (sim runtime)
  std::size_t instances = 1;       ///< --instances (sim runtime service plane)
  std::size_t pipeline_depth = 1;  ///< --pipeline-depth (needs instances > 1)
  /// Sim-only flags the user explicitly passed: the thread/TCP runtimes have
  /// no virtual-time timer facility (blocks/block.cpp), so reliability
  /// watchdogs and the signing layer would silently no-op there. We record
  /// each such flag and reject the combination instead of ignoring it.
  std::vector<std::string> sim_only_flags;
};

void print_usage() {
  std::printf(R"(usage: dauct_cli [options]

market (synthetic unless CSV files given):
  --auction double|standard   mechanism (default double)
  --users N                   number of bidders (default 20)
  --providers M               number of providers (default 5; must be > 2k)
  --seed S                    workload + protocol seed (default 1)
  --bids FILE.csv             bids from CSV: bidder,unit_value,demand
  --asks FILE.csv             asks from CSV: provider,unit_cost,capacity

protocol:
  --k K                       coalition resilience bound (default 1)
  --epsilon E                 (1-eps) welfare approximation (standard auction)
  --mode value|bits|perbit    bid agreement encoding (default value)
  --centralized               run the trusted-auctioneer baseline instead

execution:
  --runtime sim|thread|tcp    runtime (default sim: virtual-time simulation)
  --latency zero|lan|community  sim network model (default community)
  --trace                     print the sim message trace (first 60 entries)

single-node tcp deployment (one process per node; see docs/DURABILITY.md):
  --tcp-node J|client         run ONE node of a multi-process tcp cluster:
                              provider J (0-based) or the client. All
                              processes must share --seed and --base-port.
                              Requires --runtime tcp.
  --base-port P               first tcp port (node j listens on P+j)
  --wal-dir DIR               journal provider state to DIR/provider-J.wal;
                              a restarted provider replays its log, rejoins,
                              and completes. Refuses a WAL from a different
                              run seed or node. Providers only.
  --crash-after N             kill hook: _exit(137) right after the Nth WAL
                              message record commits (requires --wal-dir)

reliability (sim runtime only; ack/retransmit layer, see docs/RELIABILITY.md):
  --reliable                  enable the reliable-delivery layer
  --retransmit-delay-ms D     initial retransmit timeout, and the floor of the
                              per-peer adaptive one (default 8)
  --max-retries N             retransmits before giving up on a peer (default 6)
  --round-timeout-ms D        round liveness watchdog period; 0 disables
                              (default 12)

authentication (sim runtime only; ed25519 signing layer, see docs/AUTH.md):
  --auth                      sign every provider frame, verify on delivery,
                              and turn equivocation into a transferable proof
  --auth-batch                verify each round's signatures as one batch
                              (implies --auth; forgeries abort instead of
                              being rejected — see docs/AUTH.md)

service plane (sim runtime only; multi-auction multiplexing, see docs/SERVICE.md):
  --instances N               clear N auction instances over ONE shared
                              transport stack; instance i's workload is
                              generated from derive_instance_seed(seed, i),
                              so each instance matches a standalone run at
                              its derived seed
  --pipeline-depth D          concurrent-instance bound (default 1: strictly
                              sequential). Settling instance t launches
                              instance t+D in the same virtual instant.

the reliability, authentication, and service-plane layers need the sim
runtime's virtual-time timers; combining their flags with --runtime
thread|tcp is an error rather than a silent no-op.

scenario (deterministic fault injection; see docs/SCENARIOS.md):
  --scenario FILE.scn         run a declarative scenario (link faults, cuts,
                              partitions, crashes, deviations) on the sim
                              runtime and check its [expect] assertions;
                              exits 0 iff they hold (ignores flags above)

output:
  --csv                       machine-readable CSV instead of the report
  --help                      this text
)");
}

bool parse_args(int argc, char** argv, Options& opt) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else if (arg == "--centralized") {
      opt.centralized = true;
    } else if (arg == "--csv") {
      opt.csv_output = true;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--auction") {
      if (!(v = need_value(i))) return false;
      opt.auction = v;
    } else if (arg == "--runtime") {
      if (!(v = need_value(i))) return false;
      opt.runtime = v;
    } else if (arg == "--latency") {
      if (!(v = need_value(i))) return false;
      opt.latency = v;
    } else if (arg == "--mode") {
      if (!(v = need_value(i))) return false;
      opt.mode = v;
    } else if (arg == "--users") {
      if (!(v = need_value(i))) return false;
      opt.users = std::strtoul(v, nullptr, 10);
    } else if (arg == "--providers") {
      if (!(v = need_value(i))) return false;
      opt.providers = std::strtoul(v, nullptr, 10);
    } else if (arg == "--k") {
      if (!(v = need_value(i))) return false;
      opt.k = std::strtoul(v, nullptr, 10);
    } else if (arg == "--epsilon") {
      if (!(v = need_value(i))) return false;
      opt.epsilon = std::strtod(v, nullptr);
    } else if (arg == "--seed") {
      if (!(v = need_value(i))) return false;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--bids") {
      if (!(v = need_value(i))) return false;
      opt.bids_file = v;
    } else if (arg == "--asks") {
      if (!(v = need_value(i))) return false;
      opt.asks_file = v;
    } else if (arg == "--scenario") {
      if (!(v = need_value(i))) return false;
      opt.scenario_file = v;
    } else if (arg == "--tcp-node") {
      if (!(v = need_value(i))) return false;
      opt.tcp_node = v;
    } else if (arg == "--base-port") {
      if (!(v = need_value(i))) return false;
      opt.base_port = static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--wal-dir") {
      if (!(v = need_value(i))) return false;
      opt.wal_dir = v;
    } else if (arg == "--crash-after") {
      if (!(v = need_value(i))) return false;
      char* end = nullptr;
      const unsigned long long n = std::strtoull(v, &end, 10);
      if (*v == '\0' || *v == '-' || end == nullptr || *end != '\0' || n == 0) {
        std::fprintf(stderr, "--crash-after must be a positive integer (got %s)\n", v);
        return false;
      }
      opt.crash_after = n;
    } else if (arg == "--reliable") {
      opt.reliability.enable = true;
      opt.sim_only_flags.push_back(arg);
    } else if (arg == "--auth") {
      opt.auth.enable = true;
      opt.sim_only_flags.push_back(arg);
    } else if (arg == "--auth-batch") {
      opt.auth.enable = true;
      opt.auth.batch_verify = true;
      opt.sim_only_flags.push_back(arg);
    } else if (arg == "--instances") {
      if (!(v = need_value(i))) return false;
      char* end = nullptr;
      const unsigned long long n = std::strtoull(v, &end, 10);
      if (*v == '\0' || *v == '-' || end == nullptr || *end != '\0' || n == 0) {
        std::fprintf(stderr, "--instances must be a positive integer (got %s)\n", v);
        return false;
      }
      opt.instances = static_cast<std::size_t>(n);
      opt.sim_only_flags.push_back(arg);
    } else if (arg == "--pipeline-depth") {
      if (!(v = need_value(i))) return false;
      char* end = nullptr;
      const unsigned long long n = std::strtoull(v, &end, 10);
      if (*v == '\0' || *v == '-' || end == nullptr || *end != '\0' || n == 0) {
        std::fprintf(stderr, "--pipeline-depth must be a positive integer (got %s)\n", v);
        return false;
      }
      opt.pipeline_depth = static_cast<std::size_t>(n);
      opt.sim_only_flags.push_back(arg);
    } else if (arg == "--retransmit-delay-ms") {
      if (!(v = need_value(i))) return false;
      const double ms = std::strtod(v, nullptr);
      if (!(ms > 0)) {  // 0 would burn every retry at the send instant
        std::fprintf(stderr, "--retransmit-delay-ms must be > 0 (got %s)\n", v);
        return false;
      }
      opt.reliability.retransmit_delay = static_cast<sim::SimTime>(ms * 1e6);
      opt.sim_only_flags.push_back(arg);
    } else if (arg == "--max-retries") {
      if (!(v = need_value(i))) return false;
      char* end = nullptr;
      const unsigned long n = std::strtoul(v, &end, 10);
      if (*v == '\0' || *v == '-' || end == nullptr || *end != '\0') {
        std::fprintf(stderr, "--max-retries must be a non-negative integer (got %s)\n", v);
        return false;
      }
      opt.reliability.max_retries = n;
      opt.sim_only_flags.push_back(arg);
    } else if (arg == "--round-timeout-ms") {
      if (!(v = need_value(i))) return false;
      const double ms = std::strtod(v, nullptr);
      if (ms < 0) {  // 0 is the documented "watchdogs off" value
        std::fprintf(stderr, "--round-timeout-ms must be >= 0 (got %s)\n", v);
        return false;
      }
      opt.reliability.round_timeout = static_cast<sim::SimTime>(ms * 1e6);
      opt.sim_only_flags.push_back(arg);
    } else {
      std::fprintf(stderr, "unknown option: %s (try --help)\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The one-line reliability summary of a sim run, single- or multi-instance.
std::string reliability_summary(const net::ReliabilityStats& rs) {
  return "reliability: " + std::to_string(rs.tracked) + " tracked, " +
         std::to_string(rs.retransmits) + " retransmits, " +
         std::to_string(rs.acks_sent) + " acks, " +
         std::to_string(rs.duplicates_suppressed) + " dups suppressed, " +
         std::to_string(rs.give_ups) + " give-ups";
}

int fail(const std::string& message) {
  std::fprintf(stderr, "dauct_cli: %s\n", message.c_str());
  return 1;
}

void print_report(const auction::AuctionInstance& instance,
                  const auction::AuctionResult& result) {
  std::printf("%-8s %-11s %-11s %-12s %-11s\n", "user", "bid/unit", "demand",
              "allocated", "pays");
  for (const auto& bid : instance.bids) {
    std::printf("u%-7u %-11s %-11s %-12s %-11s\n", bid.bidder,
                bid.unit_value.str().c_str(), bid.demand.str().c_str(),
                result.allocation.allocated_to(bid.bidder).str().c_str(),
                result.payments.user_payments[bid.bidder].str().c_str());
  }
  std::printf("\n%-8s %-11s %-11s %-12s %-11s\n", "provider", "cost/unit",
              "capacity", "sold", "receives");
  for (const auto& ask : instance.asks) {
    std::printf("p%-7u %-11s %-11s %-12s %-11s\n", ask.provider,
                ask.unit_cost.str().c_str(), ask.capacity.str().c_str(),
                result.allocation.allocated_at(ask.provider).str().c_str(),
                result.payments.provider_revenues[ask.provider].str().c_str());
  }
  std::printf("\ntotals: paid %s, received %s\n",
              result.payments.total_paid().str().c_str(),
              result.payments.total_received().str().c_str());
}

/// Run a declarative .scn scenario and report the expectation verdicts.
/// Exit codes: 0 expectations hold, 1 file/parse error, 3 violated.
int run_scenario_file(const std::string& path) {
  const auto text = read_file(path);
  if (!text) return fail("cannot read " + path);
  const auto parsed = runtime::parse_scenario(*text);
  if (!parsed.ok()) return fail(path + ": " + parsed.error);
  const runtime::Scenario& sc = *parsed.scenario;

  std::printf("# scenario: %s%s%s\n", sc.name.empty() ? path.c_str() : sc.name.c_str(),
              sc.description.empty() ? "" : " — ", sc.description.c_str());
  std::printf("# run: %s auction, n=%zu m=%zu k=%zu, seed=%llu, latency=%s; "
              "%zu link rule(s), %zu cut(s), %zu partition(s), %zu crash(es), "
              "%zu deviation(s)\n",
              sc.auction.c_str(), sc.users, sc.providers, sc.k,
              static_cast<unsigned long long>(sc.seed), sc.latency.c_str(),
              sc.faults.links.size(), sc.faults.cuts.size(),
              sc.faults.partitions.size(), sc.faults.crashes.size(),
              sc.deviations.size());

  const auto run = runtime::run_scenario(sc);
  const auto& r = run.run;
  if (r.global_outcome.ok()) {
    std::printf("outcome: (x, p\xE2\x83\x97) reached — result sha256 %s\n",
                run.result_digest.c_str());
  } else {
    std::printf("outcome: \xE2\x8A\xA5 (%s%s)\n",
                abort_reason_name(r.global_outcome.bottom().reason),
                r.stalled ? ", stalled" : "");
  }
  std::printf("makespan: %s virtual; traffic: %llu msgs, %llu bytes\n",
              sim::format_time(r.makespan).c_str(),
              static_cast<unsigned long long>(r.traffic.messages),
              static_cast<unsigned long long>(r.traffic.bytes));
  const auto& fs = r.fault_stats;
  std::printf("faults injected: %llu dropped (link %llu, cut %llu, partition "
              "%llu, crash %llu), %llu duplicated, %llu delayed\n",
              static_cast<unsigned long long>(fs.total_dropped()),
              static_cast<unsigned long long>(fs.link_dropped),
              static_cast<unsigned long long>(fs.cut_dropped),
              static_cast<unsigned long long>(fs.partition_dropped),
              static_cast<unsigned long long>(fs.crash_dropped),
              static_cast<unsigned long long>(fs.duplicated),
              static_cast<unsigned long long>(fs.delayed));
  if (sc.reliability.enable) {
    const auto& rs = r.reliability_stats;
    std::printf("reliability: %llu tracked, %llu retransmits, %llu acks sent, "
                "%llu acks received, %llu duplicates suppressed, "
                "%llu re-requests (%llu answered), %llu give-ups\n",
                static_cast<unsigned long long>(rs.tracked),
                static_cast<unsigned long long>(rs.retransmits),
                static_cast<unsigned long long>(rs.acks_sent),
                static_cast<unsigned long long>(rs.acks_received),
                static_cast<unsigned long long>(rs.duplicates_suppressed),
                static_cast<unsigned long long>(rs.rerequests_sent),
                static_cast<unsigned long long>(rs.rerequests_answered),
                static_cast<unsigned long long>(rs.give_ups));
  }
  if (sc.auth.enable) {
    const auto& as = r.auth_stats;
    std::printf("auth: %llu signed (%llu fan-out reuses), %llu verified eager, "
                "%llu batched (%llu batches), %llu bad-sig + %llu malformed "
                "rejected, %llu replays dropped, %llu equivocations\n",
                static_cast<unsigned long long>(as.signed_sends),
                static_cast<unsigned long long>(as.signed_reuses),
                static_cast<unsigned long long>(as.verified_eager),
                static_cast<unsigned long long>(as.verified_batched),
                static_cast<unsigned long long>(as.batches),
                static_cast<unsigned long long>(as.rejected_bad_sig),
                static_cast<unsigned long long>(as.rejected_malformed),
                static_cast<unsigned long long>(as.replays_dropped),
                static_cast<unsigned long long>(as.equivocations));
  }
  if (r.equivocation_proof) {
    std::printf("equivocation proof: provider p%u on topic '%s' "
                "(transferable; verified against the signer's public key)\n",
                r.equivocation_proof->signer, r.equivocation_proof->topic.c_str());
  }
  if (run.clean) {
    std::printf("fault-free twin: %s\n",
                run.clean->global_outcome.ok()
                    ? ("result sha256 " + run.clean_digest).c_str()
                    : "\xE2\x8A\xA5");
  }
  if (run.ok()) {
    std::printf("expectations: PASS\n");
    return 0;
  }
  for (const auto& f : run.failures) {
    std::printf("expectation FAILED: %s\n", f.c_str());
  }
  // Everything a bug report needs on one screen: the fault-decision RNG
  // stream the plan ran under, and the exact command that replays it (the
  // run is a pure function of the file, so the file is the repro).
  std::printf("fault-plan seed: %llu\n",
              static_cast<unsigned long long>(sc.faults.seed));
  std::printf("repro: dauct_cli --scenario %s\n", path.c_str());
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 1;
  if (opt.help) {
    print_usage();
    return 0;
  }

  if (!opt.scenario_file.empty()) return run_scenario_file(opt.scenario_file);

  // Fail fast instead of silently no-opping: only the sim runtime wires the
  // reliability and signing layers into its endpoint chains (the thread/TCP
  // runtimes also lack the timer facility the watchdogs need).
  if (opt.runtime != "sim" && !opt.sim_only_flags.empty()) {
    return fail(opt.sim_only_flags.front() + " requires --runtime sim: the " +
                opt.runtime +
                " runtime does not wire the reliability/auth layers, so the "
                "flag would silently do nothing (see docs/RELIABILITY.md and "
                "docs/AUTH.md)");
  }

  // Service plane: fail fast on combinations the multiplexed run cannot
  // honor (one CSV market is one instance; the baseline is single-auction).
  if (opt.pipeline_depth > opt.instances) {
    return fail("--pipeline-depth must not exceed --instances (depth " +
                std::to_string(opt.pipeline_depth) + " > " +
                std::to_string(opt.instances) + " instances)");
  }
  if (opt.instances > 1 && opt.centralized) {
    return fail("--instances multiplexes the distributed protocol; drop "
                "--centralized");
  }
  if (opt.instances > 1 && (!opt.bids_file.empty() || !opt.asks_file.empty())) {
    return fail("--instances generates one synthetic workload per instance "
                "from the seed; a single CSV market cannot be multiplexed");
  }
  if (opt.instances > 1 && opt.csv_output) {
    return fail("--csv emits one market's allocation table; --instances "
                "prints the per-instance report instead");
  }

  // Single-node tcp deployment: fail fast on contradictory combinations
  // instead of silently ignoring a flag.
  if (!opt.tcp_node.empty() && opt.runtime != "tcp") {
    return fail("--tcp-node requires --runtime tcp");
  }
  if (!opt.tcp_node.empty() && opt.base_port == 0) {
    return fail("--tcp-node requires an explicit --base-port (every process "
                "of the cluster must agree on the port plan)");
  }
  if (!opt.tcp_node.empty() && opt.centralized) {
    return fail("--tcp-node runs the distributed protocol; drop --centralized");
  }
  if (!opt.wal_dir.empty() && opt.tcp_node.empty()) {
    return fail("--wal-dir requires --tcp-node (durable state is per "
                "provider process; see docs/DURABILITY.md)");
  }
  if (opt.tcp_node == "client" && !opt.wal_dir.empty()) {
    return fail("--wal-dir applies to providers; the client keeps no durable "
                "state");
  }
  if (opt.crash_after != 0 && opt.wal_dir.empty()) {
    return fail("--crash-after requires --wal-dir (the kill hook counts WAL "
                "message records)");
  }

  // --- Market -----------------------------------------------------------
  auction::AuctionInstance instance;
  if (!opt.bids_file.empty() || !opt.asks_file.empty()) {
    if (opt.bids_file.empty() || opt.asks_file.empty()) {
      return fail("--bids and --asks must be given together");
    }
    const auto bids_text = read_file(opt.bids_file);
    if (!bids_text) return fail("cannot read " + opt.bids_file);
    const auto asks_text = read_file(opt.asks_file);
    if (!asks_text) return fail("cannot read " + opt.asks_file);
    auto bids = serde::parse_bids_csv(*bids_text);
    if (!bids.ok()) return fail(bids.error);
    auto asks = serde::parse_asks_csv(*asks_text);
    if (!asks.ok()) return fail(asks.error);
    instance.bids = std::move(*bids.value);
    instance.asks = std::move(*asks.value);
    opt.users = instance.bids.size();
    opt.providers = instance.asks.size();
  } else {
    crypto::Rng rng(opt.seed);
    const auto params = opt.auction == "standard"
                            ? auction::standard_auction_workload(opt.users, opt.providers)
                            : auction::double_auction_workload(opt.users, opt.providers);
    instance = auction::generate(params, rng);
  }

  // --- Mechanism ---------------------------------------------------------
  std::shared_ptr<core::AuctionAdapter> adapter;
  if (opt.auction == "double") {
    adapter = std::make_shared<core::DoubleAuctionAdapter>();
  } else if (opt.auction == "standard") {
    auction::StandardAuctionParams params;
    params.epsilon = opt.epsilon;
    adapter = std::make_shared<core::StandardAuctionAdapter>(params);
  } else {
    return fail("unknown --auction '" + opt.auction + "'");
  }

  if (opt.centralized) {
    core::CentralizedAuctioneer trusted(adapter);
    runtime::SimRunConfig cfg;
    cfg.seed = opt.seed;
    cfg.cost_mode = sim::CostMode::kMeasured;
    const auto run = runtime::SimRuntime(cfg).run_centralized(trusted, instance);
    if (!run.global_outcome.ok()) return fail("centralized run did not complete");
    std::printf("# trusted auctioneer, %s virtual\n",
                sim::format_time(run.makespan).c_str());
    if (opt.csv_output) {
      std::fputs(serde::result_to_csv(instance, run.global_outcome.value()).c_str(),
                 stdout);
    } else {
      print_report(instance, run.global_outcome.value());
    }
    return 0;
  }

  core::AuctioneerSpec spec;
  spec.m = opt.providers;
  spec.k = opt.k;
  spec.num_bidders = instance.bids.size();
  if (opt.mode == "bits") {
    spec.agreement_mode = blocks::AgreementMode::kBitStream;
  } else if (opt.mode == "perbit") {
    spec.agreement_mode = blocks::AgreementMode::kPerBitMessages;
  } else if (opt.mode != "value") {
    return fail("unknown --mode '" + opt.mode + "'");
  }

  std::unique_ptr<core::DistributedAuctioneer> auctioneer;
  try {
    auctioneer = std::make_unique<core::DistributedAuctioneer>(spec, adapter);
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }

  // --- Execution ---------------------------------------------------------
  auction::AuctionOutcome outcome{Bottom{}};
  std::string timing;
  std::string abort_extra;
  if (opt.runtime == "sim") {
    runtime::SimRunConfig cfg;
    cfg.seed = opt.seed;
    cfg.cost_mode = sim::CostMode::kMeasured;
    cfg.reliability = opt.reliability;
    cfg.auth = opt.auth;
    if (opt.latency == "zero") {
      cfg.latency = sim::LatencyModel::zero();
    } else if (opt.latency == "lan") {
      cfg.latency = sim::LatencyModel::lan();
    } else if (opt.latency != "community") {
      return fail("unknown --latency '" + opt.latency + "'");
    }
    if (opt.instances > 1) {
      // --- Service plane: N instances over one shared transport ----------
      runtime::ServiceRunConfig svc;
      svc.base = cfg;
      svc.instances = opt.instances;
      svc.pipeline_depth = opt.pipeline_depth;
      std::vector<auction::AuctionInstance> workloads;
      workloads.reserve(opt.instances);
      for (std::size_t t = 0; t < opt.instances; ++t) {
        crypto::Rng rng(core::derive_instance_seed(opt.seed, t));
        const auto params =
            opt.auction == "standard"
                ? auction::standard_auction_workload(opt.users, opt.providers)
                : auction::double_auction_workload(opt.users, opt.providers);
        workloads.push_back(auction::generate(params, rng));
      }
      const auto run = runtime::ServiceRuntime(svc).run(*auctioneer, workloads);
      std::printf("# service plane: m=%zu k=%zu, %zu instance(s), pipeline "
                  "depth %zu\n",
                  opt.providers, opt.k, opt.instances, opt.pipeline_depth);
      for (const auto& inst : run.instances) {
        if (inst.outcome.ok()) {
          std::printf("instance %llu (seed %llu): (x, p\xE2\x83\x97) reached, "
                      "settled at %s\n",
                      static_cast<unsigned long long>(inst.id),
                      static_cast<unsigned long long>(inst.derived_seed),
                      sim::format_time(inst.settled_at).c_str());
        } else {
          std::printf("instance %llu (seed %llu): \xE2\x8A\xA5 (%s)\n",
                      static_cast<unsigned long long>(inst.id),
                      static_cast<unsigned long long>(inst.derived_seed),
                      abort_reason_name(inst.outcome.bottom().reason));
        }
      }
      if (run.equivocation_proof) {
        std::printf("transferable equivocation proof against provider p%u on "
                    "topic '%s'\n",
                    run.equivocation_proof->signer,
                    run.equivocation_proof->topic.c_str());
      }
      std::printf("# %zu/%zu instances ok, %s virtual, %.2f auctions/vsec; "
                  "traffic: %llu msgs, %llu bytes\n",
                  run.settled_ok, run.instances.size(),
                  sim::format_time(run.makespan).c_str(),
                  run.auctions_per_vsec(),
                  static_cast<unsigned long long>(run.traffic.messages),
                  static_cast<unsigned long long>(run.traffic.bytes));
      if (opt.reliability.enable) {
        std::printf("# %s\n", reliability_summary(run.reliability_stats).c_str());
      }
      return run.settled_ok == run.instances.size() ? 0 : 2;
    }
    const auto run = runtime::SimRuntime(cfg).run_distributed(*auctioneer, instance);
    outcome = run.global_outcome;
    timing = sim::format_time(run.makespan) + " virtual, " +
             std::to_string(run.traffic.messages) + " msgs, " +
             std::to_string(run.traffic.bytes) + " bytes";
    if (opt.reliability.enable) {
      timing += "; " + reliability_summary(run.reliability_stats);
    }
    if (opt.auth.enable) {
      const auto& as = run.auth_stats;
      timing += "; auth: " + std::to_string(as.signed_sends) + " signed (" +
                std::to_string(as.signed_reuses) + " fan-out reuses), " +
                std::to_string(as.verified_eager + as.verified_batched) +
                " verified";
      if (opt.auth.batch_verify) {
        timing += " in " + std::to_string(as.batches) + " batches";
      }
      timing += ", " +
                std::to_string(as.rejected_bad_sig + as.rejected_malformed) +
                " rejected, " + std::to_string(as.replays_dropped) +
                " replays dropped";
    }
    if (run.equivocation_proof) {
      abort_extra = "; transferable equivocation proof against provider p" +
                    std::to_string(run.equivocation_proof->signer) +
                    " on topic '" + run.equivocation_proof->topic + "'";
    }
    if (opt.trace) {
      std::printf("# trace not recorded via CLI runtime API; phase times:\n");
      std::printf("#   bid agreement done: %s; providers done: %s\n",
                  sim::format_time(run.bid_agreement_makespan()).c_str(),
                  sim::format_time(run.provider_makespan()).c_str());
    }
  } else if (opt.runtime == "thread") {
    runtime::ThreadRunConfig cfg;
    cfg.seed = opt.seed;
    const auto run =
        runtime::ThreadRuntime(cfg).run_distributed(*auctioneer, instance);
    outcome = run.global_outcome;
    timing = std::to_string(
                 std::chrono::duration<double, std::milli>(run.wall_time).count()) +
             " ms wall";
  } else if (opt.runtime == "tcp" && !opt.tcp_node.empty()) {
    runtime::TcpNodeConfig cfg;
    cfg.seed = opt.seed;
    cfg.base_port = opt.base_port;
    cfg.wal_dir = opt.wal_dir;
    cfg.crash_after = opt.crash_after;
    if (opt.tcp_node == "client") {
      const auto run = runtime::run_tcp_client(instance, opt.providers, cfg);
      if (!run.result_digest.empty()) {
        std::printf("result sha256 %s\n", run.result_digest.c_str());
      }
      if (!run.ok) {
        std::printf("tcp client: FAILED — %s\n", run.error.c_str());
        return 2;
      }
      std::printf("# tcp client: %zu provider reports agree\n", opt.providers);
      return 0;
    }
    char* end = nullptr;
    const unsigned long j = std::strtoul(opt.tcp_node.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || j >= opt.providers) {
      return fail("--tcp-node must be 'client' or a provider index < " +
                  std::to_string(opt.providers));
    }
    const auto run = runtime::run_tcp_provider(*auctioneer, instance,
                                               static_cast<NodeId>(j), cfg);
    if (!run.error.empty()) return fail(run.error);
    std::string note;
    if (!opt.wal_dir.empty()) {
      const auto& ws = run.wal_stats;
      note = "; wal: " + std::to_string(ws.records_appended) + " records, " +
             std::to_string(ws.commits) + " commits";
      if (run.recovered) {
        const auto& rs = run.reliability_stats;
        note += ", recovered: " + std::to_string(ws.messages_replayed) +
                " replayed, " + std::to_string(ws.snapshots_checked) +
                " checkpoints (" + std::to_string(ws.snapshot_mismatches) +
                " mismatches), " + std::to_string(rs.rejoin_requests_sent) +
                " rejoin requests";
      }
    }
    if (!run.outcome.ok()) {
      std::printf("tcp provider %lu: \xE2\x8A\xA5 (%s)%s%s\n", j,
                  abort_reason_name(run.outcome.bottom().reason),
                  run.timed_out ? ", timed out" : "", note.c_str());
      return 2;
    }
    std::printf("# tcp provider %lu: (x, p\xE2\x83\x97) reached%s\n", j,
                note.c_str());
    return 0;
  } else if (opt.runtime == "tcp") {
    runtime::TcpRunConfig cfg;
    cfg.seed = opt.seed;
    const auto run = runtime::TcpRuntime(cfg).run_distributed(*auctioneer, instance);
    outcome = run.global_outcome;
    timing = std::to_string(
                 std::chrono::duration<double, std::milli>(run.wall_time).count()) +
             " ms wall over TCP ports " + std::to_string(run.base_port) + "..";
  } else {
    return fail("unknown --runtime '" + opt.runtime + "'");
  }

  if (!outcome.ok()) {
    std::printf("outcome: \xE2\x8A\xA5 (%s) — auction aborted, no payments%s\n",
                abort_reason_name(outcome.bottom().reason), abort_extra.c_str());
    return 2;
  }
  std::printf("# distributed auctioneer: m=%zu k=%zu, %s\n", opt.providers, opt.k,
              timing.c_str());
  if (opt.csv_output) {
    std::fputs(serde::result_to_csv(instance, outcome.value()).c_str(), stdout);
  } else {
    print_report(instance, outcome.value());
  }
  return 0;
}
