#include "probes.hpp"

#include <algorithm>
#include <cmath>

#include "auction/double_auction.hpp"
#include "auction/standard_auction.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/sha256.hpp"
#include "net/message.hpp"
#include "store/wal.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

// A scoped protocol topic of typical length ("i<slot>g<gen>/" + block topic).
constexpr const char* kProbeTopic = "i0g0/alloc/dt/0/val";

template <class T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// Thread-CPU ms per call of `fn`: the median of three batches, each at least
/// `batch_ms` long.
template <class Fn>
double ms_per_call(Fn&& fn, double batch_ms = 20.0) {
  std::vector<double> per_call;
  for (int b = 0; b < 3; ++b) {
    const std::int64_t t0 = thread_cpu_ns();
    double elapsed = 0;
    int calls = 0;
    do {
      fn();
      ++calls;
      elapsed = static_cast<double>(thread_cpu_ns() - t0) / 1e6;
    } while (elapsed < batch_ms);
    per_call.push_back(elapsed / calls);
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[1];
}

/// One ed25519 call takes ~2 ms on the reference host, so the sign and verify
/// probes use longer batches than the rest: their rounds feed the signed
/// stream's dominant-layer share.
constexpr double kCryptoBatchMs = 100.0;

double per_auction(std::uint64_t count, double auctions) {
  return auctions > 0 ? static_cast<double>(count) / auctions : 0.0;
}

crypto::ed25519::KeyPair probe_key(std::uint8_t who) {
  crypto::ed25519::Seed seed{};
  seed.fill(who);
  return crypto::ed25519::keypair_from_seed(seed);
}

double sign_ms(const ProbeInput& in) {
  const double signs = per_auction(in.counts.auth_signs, in.auctions);
  if (signs == 0) return 0;
  const auto kp = probe_key(1);
  const crypto::Digest transcript = crypto::sha256(std::string_view("transcript"));
  return signs * ms_per_call([&] {
    keep(crypto::ed25519::sign(kp, BytesView(transcript)));
  }, kCryptoBatchMs);
}

double verify_ms(const ProbeInput& in) {
  const Counters& c = in.counts;
  if (c.auth_batches == 0) return 0;
  const std::size_t width = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(static_cast<double>(c.auth_verified_batched) /
                                               static_cast<double>(c.auth_batches))));
  std::vector<crypto::ed25519::KeyPair> keys;
  std::vector<crypto::Digest> msgs;
  std::vector<crypto::ed25519::Signature> sigs;
  for (std::size_t i = 0; i < width; ++i) {
    keys.push_back(probe_key(static_cast<std::uint8_t>(i + 1)));
    msgs.push_back(crypto::sha256(std::string_view(std::to_string(i))));
    sigs.push_back(crypto::ed25519::sign(keys[i], BytesView(msgs[i])));
  }
  std::vector<crypto::ed25519::BatchItem> items;
  for (std::size_t i = 0; i < width; ++i) {
    items.push_back({&keys[i].public_key, BytesView(msgs[i]), &sigs[i]});
  }
  crypto::Rng rng(7);
  return per_auction(c.auth_batches, in.auctions) * ms_per_call([&] {
    keep(crypto::ed25519::verify_batch(items, rng));
  }, kCryptoBatchMs);
}

double wal_ms(const ProbeInput& in) {
  const Counters& c = in.counts;
  if (c.wal_records == 0) return 0;
  const Bytes payload(c.wal_bytes / c.wal_records, 0xa5);
  const std::uint64_t per_commit =
      std::max<std::uint64_t>(1, c.wal_records / std::max<std::uint64_t>(1, c.wal_commits));
  auto mem = std::make_shared<store::MemStorage>();
  store::Wal wal(mem);
  wal.open();
  std::uint64_t since_commit = 0;
  const double per_record = ms_per_call([&] {
    wal.append_message_record(1, kProbeTopic, BytesView(payload));
    if (++since_commit == per_commit) {
      wal.commit();
      since_commit = 0;
      mem->truncate(0);  // keep the buffer bounded across calls
    }
  });
  return per_auction(c.wal_records, in.auctions) * per_record;
}

double frame_ms(const ProbeInput& in, std::size_t mean_bytes) {
  net::Message msg;
  msg.from = 0;
  msg.to = 1;
  msg.topic = net::Topic(kProbeTopic);
  msg.payload = SharedBytes(Bytes(mean_bytes, 0x5a));
  return per_auction(in.counts.msgs, in.auctions) * ms_per_call([&] {
    const Bytes frame = net::encode_frame(msg);
    keep(net::decode_frame(BytesView(frame)));
  });
}

double sha256_ms(const ProbeInput& in, std::size_t mean_bytes) {
  const Bytes data(mean_bytes, 0x3c);
  return per_auction(in.counts.msgs, in.auctions) * ms_per_call([&] {
    keep(crypto::sha256(BytesView(data)));
  });
}

/// What the solvers cost one auction across all providers: m allocation
/// solves plus (k+1) replicas of every payment re-solve (each payment group
/// has k+1 members). The double auction is one task every provider runs.
double solve_ms(const ProbeInput& in) {
  const Workload& w = *in.workload;
  const auction::AuctionInstance& inst = *in.instance;
  const double m = static_cast<double>(w.providers);
  if (w.kind == AuctionKind::kDouble) {
    return m * ms_per_call([&] { keep(auction::run_double_auction(inst)); });
  }
  auction::StandardAuctionParams params;
  params.epsilon = kStandardEpsilon;
  params.seed = 1;
  const auction::Assignment assignment = auction::standard_allocate(inst, params);
  const double alloc = ms_per_call([&] {
    keep(auction::standard_allocate(inst, params));
  });
  const double payments = ms_per_call([&] {
    for (std::size_t i = 0; i < inst.bids.size(); ++i) {
      keep(auction::standard_payment(inst, params, assignment,
                                     static_cast<BidderId>(i)));
    }
  });
  return m * alloc + static_cast<double>(coalition_bound(w) + 1) * payments;
}

}  // namespace

ProbeResult run_probes(const ProbeInput& in) {
  const std::size_t mean_msg =
      in.counts.msgs ? static_cast<std::size_t>(in.counts.bytes / in.counts.msgs) : 0;
  ProbeResult r;
  r.sign_ms = sign_ms(in);
  r.verify_ms = verify_ms(in);
  r.wal_ms = wal_ms(in);
  r.frame_ms = frame_ms(in, mean_msg);
  r.sha256_ms = sha256_ms(in, mean_msg);
  r.solve_ms = solve_ms(in);
  return r;
}

}  // namespace perfbench
