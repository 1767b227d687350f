// End-to-end auction benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--source-digest <hex>] [--trace-file <path>]
//
// --trace 0 runs the timed closed-loop stream and reports the end-to-end
// metrics; --trace 1 runs the separate traced run and reports the per-layer
// metrics. Both check every auction against its reference. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}; the line
// before it is the full record with provenance. Metric definitions and the
// layer → end-to-end map are in METRICS.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "calibrate.hpp"
#include "probes.hpp"
#include "runtime/sim_runtime.hpp"
#include "stream.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

/// p90 needs ten samples beyond it.
constexpr std::size_t kMinAuctions = 100;
constexpr int kSetupReps = 51;
constexpr int kPhaseRuns = 3;
constexpr std::size_t kProbeRounds = 5;
/// The traced run's untraced pass runs at least this many chunks, so the
/// signed stream's few long chunks still give the dominant-layer share
/// several probe brackets per pass to take a median over.
constexpr std::size_t kMinTracedChunks = 6;

// ---------------------------------------------------------------------------
// Small helpers

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2) return hi;
  return (hi + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid))) / 2;
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Provenance

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string trace_file;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\nusage: perfbench --workload <", why.c_str());
  const char* sep = "";
  for (const Workload& w : all_workloads()) {
    std::fprintf(stderr, "%s%.*s", sep, static_cast<int>(w.name.size()), w.name.data());
    sep = "|";
  }
  std::fprintf(stderr,
               "> --seed <n> --seconds <s> --trace <0|1> [--commit <id>] "
               "[--source-digest <hex>] [--trace-file <path>]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = find_workload(v);
        if (!a.workload) usage("unknown workload '" + v + "'");
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
        have_seconds = a.seconds > 0;
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
        have_trace = true;
      } else if (flag == "--commit") {
        a.commit = v;
      } else if (flag == "--source-digest") {
        a.source_digest = v;
      } else if (flag == "--trace-file") {
        a.trace_file = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": '" + v + "'");
    }
  }
  if (!a.workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  return a;
}

// ---------------------------------------------------------------------------
// Set-up and the stream

struct Setup {
  double seconds = 0;  ///< median total over kSetupReps
  double generate_ms = 0;
  double auctioneer_ms = 0;
  std::vector<auction::AuctionInstance> first_chunk;
  std::unique_ptr<core::DistributedAuctioneer> auctioneer;
};

/// Everything before the first launch: chunk 0's inputs plus the auctioneer
/// and its task graph. Repeated, medians reported, rescaled to the reference
/// host's speed like the stream's rate. Set-up is allocation-heavy work on
/// every stream, so it uses the kMixed kernels.
Setup measure_setup(const Workload& w, std::uint64_t seed, Tracer* tracer) {
  Setup s;
  std::vector<double> total, gen, auct;
  const double speed_before = host_speed(HostProfile::kMixed);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      Tracer::Scope span(tracer, "auction::generate", 0);
      s.first_chunk = generate_chunk(w, chunk_seed(seed, 0));
    }
    const double g = seconds_since(t0);
    {
      Tracer::Scope span(tracer, "DistributedAuctioneer");
      s.auctioneer = make_auctioneer(w);
    }
    const double t = seconds_since(t0);
    total.push_back(t);
    gen.push_back(g * 1e3);
    auct.push_back((t - g) * 1e3);
  }
  const double speed = (speed_before + host_speed(HostProfile::kMixed)) / 2;
  s.seconds = median(total) * speed;
  s.generate_ms = median(gen) * speed;
  s.auctioneer_ms = median(auct) * speed;
  return s;
}

struct PassPlan {
  double seconds = std::numeric_limits<double>::infinity();
  std::size_t min_auctions = 0;
  std::size_t max_chunks = std::numeric_limits<std::size_t>::max();
  /// Measure host_speed() right before and right after every chunk. The
  /// speed before sets the chunk's cpu_scale, so the CPU that kMeasured
  /// charges to virtual time is at the reference host's speed; the mean of
  /// the two rescales the chunk's wall-clock rate.
  bool calibrate = false;
};

struct Pass {
  std::size_t chunks = 0;
  std::size_t attempted = 0, correct = 0, bottom = 0, unsettled = 0,
              unlaunched = 0, wrong = 0;
  double wall_s = 0;  ///< ServiceRuntime::run host time, summed
  double cpu_s = 0;   ///< its thread CPU time, summed
  std::vector<double> chunk_per_s, chunk_per_vs;
  std::vector<double> host_speed, chunk_per_ref_s;  ///< calibrated passes only
  std::vector<double> settle_ms, queue_wait_ms;
  Counters counters;

  std::size_t failed() const { return attempted - correct; }
};

/// Callbacks right before and right after each chunk's ServiceRuntime::run,
/// outside its timing.
struct ChunkHooks {
  std::function<void(std::size_t)> before;
  std::function<void(std::size_t, const ChunkRun&)> after;
};

/// One pass over the stream: chunks 0, 1, … until the timed host time reaches
/// `seconds` with at least `min_auctions` attempted, or `max_chunks` ran.
/// Every auction is checked against `ref` between chunks, outside the timing.
Pass run_pass(const Workload& w, const core::DistributedAuctioneer& a,
              const Reference& ref, std::uint64_t seed, const PassPlan& lim,
              Tracer* tracer, const ChunkHooks& hooks = {}) {
  Pass p;
  for (std::size_t c = 0; c < lim.max_chunks; ++c) {
    if (p.wall_s >= lim.seconds && p.attempted >= lim.min_auctions) break;
    const std::uint64_t base = chunk_seed(seed, c);
    const auto run_id = static_cast<std::int64_t>(c);
    std::vector<auction::AuctionInstance> inputs;
    {
      Tracer::Scope span(tracer, "auction::generate", run_id);
      inputs = generate_chunk(w, base);
    }
    if (hooks.before) hooks.before(c);
    const double speed_before = lim.calibrate ? host_speed(w.profile) : 1.0;
    ChunkRun run;
    {
      Tracer::Scope span(tracer, "ServiceRuntime::run", run_id);
      run = run_chunk(w, a, inputs, base, speed_before);
    }
    ++p.chunks;
    p.wall_s += run.wall_s;
    p.cpu_s += run.cpu_s;
    p.counters.add(run.result);

    std::vector<Verdict> verdicts(inputs.size(), Verdict::kUnlaunched);
    {
      Tracer::Scope span(tracer, "reference check", run_id);
      for (const runtime::InstanceRunResult& inst : run.result.instances) {
        if (inst.id < inputs.size()) verdicts[inst.id] = ref.check(inst, inputs[inst.id]);
      }
    }
    std::size_t chunk_correct = 0;
    const auto& insts = run.result.instances;
    for (std::size_t t = 0; t < insts.size(); ++t) {
      const runtime::InstanceRunResult& inst = insts[t];
      if (inst.id < inputs.size() && verdicts[inst.id] == Verdict::kCorrect) {
        ++chunk_correct;
        p.settle_ms.push_back(sim::to_millis(inst.settled_at - inst.launched_at));
      }
      // Slot wait: with a backlog, an auction waits for the next of the D
      // pipeline slots to free up; a slot turns over once per settle of its
      // previous tenant, so the wait is that cycle spread over the D slots.
      if (t >= kPipelineDepth && inst.launched && insts[t - kPipelineDepth].launched) {
        p.queue_wait_ms.push_back(
            sim::to_millis(inst.launched_at - insts[t - kPipelineDepth].launched_at) /
            static_cast<double>(kPipelineDepth));
      }
    }
    for (Verdict v : verdicts) {
      switch (v) {
        case Verdict::kCorrect: ++p.correct; break;
        case Verdict::kBottom: ++p.bottom; break;
        case Verdict::kUnsettled: ++p.unsettled; break;
        case Verdict::kUnlaunched: ++p.unlaunched; break;
        case Verdict::kWrong: ++p.wrong; break;
      }
    }
    p.attempted += inputs.size();
    p.chunk_per_s.push_back(ratio(static_cast<double>(chunk_correct), run.wall_s));
    p.chunk_per_vs.push_back(ratio(static_cast<double>(chunk_correct),
                                   sim::to_seconds(run.result.makespan)));
    if (lim.calibrate) {
      const double speed = (speed_before + host_speed(w.profile)) / 2;
      p.host_speed.push_back(speed);
      p.chunk_per_ref_s.push_back(ratio(p.chunk_per_s.back(), speed));
    }
    if (hooks.after) hooks.after(c, run);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;  ///< the metrics of the final JSON line
  std::vector<Metric> extra;    ///< record-only (failed_frac, sample counts)
  std::vector<std::pair<std::string, std::string>> checks;  ///< name → verdict
};

void print_report(const Args& args, const Pass& pass, bool correct, const Report& r) {
  const std::string wl(args.workload->name);
  std::printf("perfbench %s seed=%llu trace=%d: %zu attempted, %zu failed "
              "(⊥ %zu, unsettled %zu, never launched %zu, wrong %zu)\n",
              wl.c_str(), static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              pass.attempted, pass.failed(), pass.bottom, pass.unsettled,
              pass.unlaunched, pass.wrong);
  for (const auto* list : {&r.metrics, &r.extra}) {
    for (const Metric& m : *list) {
      std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const auto& [name, verdict] : r.checks) {
    std::printf("  check %-20s %s\n", name.c_str(), verdict.c_str());
  }

  const auto metric_obj = [](const std::vector<Metric>& ms) {
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      s += (i ? ", " : "") + quoted(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
           ", \"unit\": " + quoted(ms[i].unit) + "}";
    }
    return s + "}";
  };
  std::vector<Metric> all = r.metrics;
  all.insert(all.end(), r.extra.begin(), r.extra.end());
  std::string checks = "{";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    checks += (i ? ", " : "") + quoted(r.checks[i].first) + ": " + quoted(r.checks[i].second);
  }
  checks += "}";
  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"cost_mode\": \"kMeasured\", \"nproc\": %d, \"cpu\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"commit\": %s, "
      "\"source_digest\": %s, \"metrics\": %s, \"checks\": %s}}\n",
      quoted(wl).c_str(), static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      nproc(), quoted(cpu_model()).c_str(), quoted(PERFBENCH_BUILD_TYPE).c_str(),
      quoted(PERFBENCH_COMPILER).c_str(), quoted(args.commit).c_str(),
      quoted(args.source_digest).c_str(), metric_obj(all).c_str(), checks.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", pass.attempted, pass.failed(),
              metric_obj(r.metrics).c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// The timed run (--trace 0)

int timed_run(const Args& args) {
  const Workload& w = *args.workload;
  const Setup setup = measure_setup(w, args.seed, nullptr);
  const Reference ref(w);
  // Warm-up: topic interning and allocator pools fill before timing.
  run_chunk(w, *setup.auctioneer, setup.first_chunk, chunk_seed(args.seed, 0));

  PassPlan lim;
  lim.seconds = args.seconds;
  lim.min_auctions = kMinAuctions;
  lim.calibrate = true;
  const Pass p = run_pass(w, *setup.auctioneer, ref, args.seed, lim, nullptr);

  const double attempted = static_cast<double>(p.attempted);
  Report r;
  r.metrics = {
      {"auctions_per_s", median(p.chunk_per_ref_s), "auctions/s"},
      {"settle_ms_p50", percentile(p.settle_ms, 0.50), "ms"},
      {"settle_ms_p90", percentile(p.settle_ms, 0.90), "ms"},
      {"auctions_per_vs", median(p.chunk_per_vs), "auctions/vs"},
      {"wire_kb_per_auction", ratio(static_cast<double>(p.counters.bytes) / 1e3, attempted), "KB"},
      {"settled_ok_frac", ratio(static_cast<double>(p.correct), attempted), "ratio"},
      {"setup_s", setup.seconds, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  r.extra = {
      {"failed_frac", ratio(static_cast<double>(p.failed()), attempted), "ratio"},
      {"auctions_per_wall_s", median(p.chunk_per_s), "auctions/s"},
      {"host_speed", median(p.host_speed), "ratio"},
      {"settle_samples", static_cast<double>(p.settle_ms.size()), "count"},
      {"chunks", static_cast<double>(p.chunks), "count"},
      {"timed_s", p.wall_s, "s"},
  };
  r.checks.emplace_back("reference", p.wrong == 0 ? "pass" : "FAIL: wrong result");
  const bool correct = p.wrong == 0;
  print_report(args, p, correct, r);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// The traced run (--trace 1)

int traced_run(const Args& args) {
  const Workload& w = *args.workload;
  Tracer tracer;
  const Setup setup = measure_setup(w, args.seed, &tracer);
  const core::DistributedAuctioneer& a = *setup.auctioneer;
  const Reference ref(w);
  run_chunk(w, a, setup.first_chunk, chunk_seed(args.seed, 0));

  // Untraced pass for the counts, then the same chunks twice with spans.
  PassPlan lim;
  lim.seconds = args.seconds / 3;
  lim.min_auctions = kMinTracedChunks * w.chunk;
  const Pass untraced = run_pass(w, a, ref, args.seed, lim, nullptr);
  const Counters& c = untraced.counters;
  const double settled = static_cast<double>(c.settled_ok);
  const auto per = [&](std::uint64_t v) { return ratio(static_cast<double>(v), settled); };

  // Probe rounds bracket traced chunks (at most kProbeRounds per pass, spread
  // evenly): one round right before the chunk and one right after it, so that
  // host-speed drift over the chunk hits the probes and the spans alike. Each
  // probe is the median over all rounds. A bracket also records its chunk's
  // CPU ms per auction, for the dominant-layer share.
  struct Bracket {
    ProbeResult before, after;
    double run_ms = 0;
  };
  std::vector<Bracket> brackets;
  const ProbeInput probe_input{&w, &setup.first_chunk.front(), c, settled};
  const std::size_t stride = std::max<std::size_t>(1, untraced.chunks / kProbeRounds);
  const auto bracket_hooks = [&](Tracer& t) {
    ChunkHooks h;
    h.before = [&, tp = &t](std::size_t chunk) {
      if (chunk % stride != 0) return;
      Tracer::Scope span(tp, "layer probes", static_cast<std::int64_t>(chunk));
      brackets.push_back({run_probes(probe_input), {}, 0});
    };
    h.after = [&, tp = &t](std::size_t chunk, const ChunkRun& run) {
      if (chunk % stride != 0) return;
      Tracer::Scope span(tp, "layer probes", static_cast<std::int64_t>(chunk));
      brackets.back().after = run_probes(probe_input);
      brackets.back().run_ms =
          ratio(run.cpu_s * 1e3, static_cast<double>(run.result.settled_ok));
    };
    return h;
  };
  PassPlan same;
  same.max_chunks = untraced.chunks;
  const Pass traced = run_pass(w, a, ref, args.seed, same, &tracer, bracket_hooks(tracer));
  Tracer replay_tracer;
  const Pass replay =
      run_pass(w, a, ref, args.seed, same, &replay_tracer, bracket_hooks(replay_tracer));

  const auto probe_median = [&](double ProbeResult::*field) {
    std::vector<double> v;
    for (const Bracket& b : brackets) {
      v.push_back(b.before.*field);
      v.push_back(b.after.*field);
    }
    return median(v);
  };
  ProbeResult probe;
  for (double ProbeResult::*f : {&ProbeResult::sign_ms, &ProbeResult::verify_ms,
                                 &ProbeResult::wal_ms, &ProbeResult::frame_ms,
                                 &ProbeResult::sha256_ms, &ProbeResult::solve_ms}) {
    probe.*f = probe_median(f);
  }

  // Virtual phase split from one single-instance SimRuntime run (median of a
  // few): bid agreement, then everything up to the providers' output.
  std::vector<double> bid_ms, out_ms;
  {
    Tracer::Scope span(&tracer, "SimRuntime::run_distributed");
    const std::uint64_t base = chunk_seed(args.seed, 0);
    for (int i = 0; i < kPhaseRuns; ++i) {
      const runtime::SimRunResult one =
          runtime::SimRuntime(sim_config(w, core::derive_instance_seed(base, 0)))
              .run_distributed(a, setup.first_chunk.front());
      bid_ms.push_back(sim::to_millis(one.bid_agreement_makespan()));
      out_ms.push_back(sim::to_millis(one.provider_makespan() - one.bid_agreement_makespan()));
    }
  }

  const double traced_settled = static_cast<double>(traced.counters.settled_ok);
  const double run_ms = ratio(tracer.cpu_ms("ServiceRuntime::run"), traced_settled);
  const double untraced_run_ms =
      ratio(untraced.cpu_s * 1e3, static_cast<double>(untraced.counters.settled_ok));
  const double sigs_per_batch = ratio(static_cast<double>(c.auth_verified_batched),
                                      static_cast<double>(c.auth_batches));

  Report r;
  r.metrics = {
      {"sim.events", per(c.events), "count"},
      {"sim.msgs", per(c.msgs), "count"},
      {"sim.drops", per(c.drops), "count"},
      {"rl.tracked", per(c.rl_tracked), "count"},
      {"rl.retransmits", per(c.rl_retransmits), "count"},
      {"rl.acks_standalone", per(c.rl_acks_standalone), "count"},
      {"rl.acks_piggybacked", per(c.rl_acks_piggybacked), "count"},
      {"rl.dups_suppressed", per(c.rl_dups_suppressed), "count"},
      {"rl.rerequests", per(c.rl_rerequests), "count"},
      {"rl.give_ups", per(c.rl_give_ups), "count"},
      {"rl.useful_frac", ratio(static_cast<double>(c.rl_tracked),
                               static_cast<double>(c.rl_tracked + c.rl_retransmits)), "ratio"},
      {"auth.signs", per(c.auth_signs), "count"},
      {"auth.sign_reuses", per(c.auth_sign_reuses), "count"},
      {"auth.verifies", per(c.auth_verified_eager + c.auth_verified_batched), "count"},
      {"auth.batches", per(c.auth_batches), "count"},
      {"auth.sigs_per_batch", sigs_per_batch, "count"},
      {"crypto.sign_ms", probe.sign_ms, "ms"},
      {"crypto.verify_ms", probe.verify_ms, "ms"},
      {"wal.records", per(c.wal_records), "count"},
      {"wal.kb", per(c.wal_bytes) / 1e3, "KB"},
      {"wal.commits", per(c.wal_commits), "count"},
      {"wal.records_per_commit", ratio(static_cast<double>(c.wal_records),
                                       static_cast<double>(c.wal_commits)), "count"},
      {"store.wal_ms", probe.wal_ms, "ms"},
      {"serde.frame_ms", probe.frame_ms, "ms"},
      {"crypto.sha256_ms", probe.sha256_ms, "ms"},
      {"auction.solve_ms", probe.solve_ms, "ms"},
      {"svc.queue_wait_ms_p50", percentile(untraced.queue_wait_ms, 0.5), "ms"},
      {"blocks.bid_agreement_ms", median(bid_ms), "ms"},
      {"blocks.output_ms", median(out_ms), "ms"},
      {"runtime.run_ms", run_ms, "ms"},
      {"runtime.residual_ms", run_ms - probe.sum(), "ms"},
      {"setup.generate_ms", setup.generate_ms, "ms"},
      {"setup.auctioneer_ms", setup.auctioneer_ms, "ms"},
      {"trace.overhead_frac", ratio(run_ms - untraced_run_ms, untraced_run_ms), "ratio"},
  };
  r.extra = {
      {"chunks", static_cast<double>(untraced.chunks), "count"},
      {"settled", settled, "count"},
  };

  bool ok = untraced.wrong + traced.wrong + replay.wrong == 0;
  r.checks.emplace_back("reference", ok ? "pass" : "FAIL: wrong result");

  // Determinism: fault-free streams repeat their counters exactly, traced
  // or not. Under kMeasured the lossy stream's retransmit timing follows host
  // CPU time, so its counts legitimately vary.
  if (!w.lossy_durable) {
    const bool same_replay = traced.counters == replay.counters;
    const bool same_untraced = traced.counters == untraced.counters;
    r.checks.emplace_back("determinism.replay", same_replay ? "identical" : "DIFFER");
    r.checks.emplace_back("determinism.trace_off", same_untraced ? "identical" : "DIFFER");
    ok = ok && same_replay && same_untraced;
  } else {
    r.checks.emplace_back("determinism", "skipped: kMeasured retransmit timing");
  }
  if (untraced.failed() != 0) ok = false;
  r.checks.emplace_back("failed_frac", untraced.failed() == 0 ? "0" : "NONZERO");

  // Dominant layer: the workload stresses what it claims.
  std::string dom;
  bool dom_ok = false;
  if (w.signed_frames) {
    // Median of per-bracket shares: the mean of the rounds just before and
    // just after a chunk, against that chunk.
    const auto crypto_ms = [](const ProbeResult& r) { return r.sign_ms + r.verify_ms; };
    std::vector<double> shares;
    for (const Bracket& b : brackets) {
      shares.push_back(ratio((crypto_ms(b.before) + crypto_ms(b.after)) / 2, b.run_ms));
    }
    const double share = median(shares);
    dom_ok = share >= 0.9;
    dom = "crypto.sign_ms + crypto.verify_ms = " + num(share) +
          " of the run's CPU ms per auction (>= 0.9, median over probe brackets)";
  } else if (w.kind == AuctionKind::kStandard) {
    dom_ok = probe.solve_ms >= std::max({probe.sign_ms, probe.verify_ms, probe.wal_ms,
                                         probe.frame_ms, probe.sha256_ms});
    dom = "auction.solve_ms " + num(probe.solve_ms) + " is the largest probe";
  } else if (w.lossy_durable) {
    dom_ok = c.rl_retransmits > 0 && c.rl_give_ups == 0;
    dom = "rl.retransmits " + std::to_string(c.rl_retransmits) + " > 0, rl.give_ups " +
          std::to_string(c.rl_give_ups) + " == 0";
  } else {
    dom_ok = c.auth_signs + c.auth_sign_reuses + c.auth_verified_eager +
                     c.auth_verified_batched + c.auth_batches + c.rl_tracked +
                     c.rl_retransmits + c.rl_acks_standalone + c.rl_acks_piggybacked +
                     c.rl_dups_suppressed + c.rl_rerequests + c.rl_give_ups +
                     c.wal_records + c.wal_bytes + c.wal_commits ==
                 0;
    dom = "every auth.*, rl.* and wal.* count is 0";
  }
  r.checks.emplace_back("dominant_layer", (dom_ok ? "pass: " : "FAIL: ") + dom);
  ok = ok && dom_ok;

  if (!args.trace_file.empty() && !tracer.write_chrome_trace(args.trace_file)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_file.c_str());
  }
  print_report(args, untraced, ok, r);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return args.trace ? perfbench::traced_run(args) : perfbench::timed_run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
