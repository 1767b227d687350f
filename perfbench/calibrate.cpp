#include "calibrate.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

// Kernel rates (calls per wall second) on the reference host: a
// 4-vCPU KVM guest, "Intel(R) Xeon(R) Processor", GCC 12.2, RelWithDebInfo.
constexpr double kSimRef = 210.0;
constexpr double kDpRef = 200.0;
constexpr double kFieldRef = 32.0;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

std::uint64_t sim_kernel() {
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>> heap;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> live;
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (std::uint32_t i = 0; i < 6000; ++i) {
    const std::uint64_t r = xorshift(x);
    heap.emplace(r & 0xffff, i);
    std::vector<std::uint8_t> buf(200 + r % 400, static_cast<std::uint8_t>(i));
    for (std::uint8_t b : buf) h = (h ^ b) * 1099511628211ull;
    live[r & 0x3ff] = std::move(buf);
    if (heap.size() > 256) heap.pop();
    const std::function<void()> f = [&h, i] { h += i; };
    f();
  }
  return h + heap.top().first + live.size();
}

double dp_kernel() {
  std::vector<double> dp(4096, 0.0);
  std::uint64_t x = 1234567;
  for (int it = 0; it < 1500; ++it) {
    const std::uint64_t r = xorshift(x);
    const std::size_t w = 1 + r % 64;
    const double v = static_cast<double>(r % 1000);
    for (std::size_t c = dp.size() - 1; c >= w; --c) {
      dp[c] = std::max(dp[c], dp[c - w] + v);
    }
  }
  return dp.back();
}

using Limbs = std::array<std::int64_t, 16>;

/// A frozen copy of the shape of the library's ed25519 field multiply:
/// 16 limbs of 16 bits, schoolbook product, the x38 fold and two
/// branch-free carry passes. The library's own code is not called, so a
/// faster ed25519 still reads faster.
void field_mul(Limbs& o, const Limbs& a, const Limbs& b) {
  std::int64_t t[31] = {};
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) t[i + j] += a[i] * b[j];
  }
  for (int i = 0; i < 15; ++i) t[i] += 38 * t[i + 16];
  for (int i = 0; i < 16; ++i) o[i] = t[i];
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 16; ++i) {
      o[i] += std::int64_t{1} << 16;
      const std::int64_t c = o[i] >> 16;
      o[(i + 1) * (i < 15)] += c - 1 + 37 * (c - 1) * (i == 15);
      o[i] -= c << 16;
    }
  }
}

/// Square-and-multiply chain, like a field inversion.
std::int64_t field_kernel() {
  Limbs x, c;
  std::uint64_t r = 2463534242ull;
  for (int i = 0; i < 16; ++i) {
    x[i] = static_cast<std::int64_t>(xorshift(r) & 0xffff);
    c[i] = static_cast<std::int64_t>(xorshift(r) & 0xffff);
  }
  for (int it = 0; it < 50000; ++it) {
    field_mul(c, c, c);
    field_mul(c, c, x);
  }
  return c[0];
}

/// Wall clock, like the chunk rates the speed rescales.
template <class Fn>
double calls_per_s(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = fn();
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  asm volatile("" : : "g"(&result) : "memory");
  return s > 0 ? 1.0 / s : 0.0;
}

}  // namespace

double host_speed(HostProfile profile) {
  if (profile == HostProfile::kField) {
    // A chunk of the signed stream runs for seconds, so the speed around it
    // is the median of five ~30 ms calls: one brief dip does not set it.
    std::array<double, 5> rates{};
    for (double& rate : rates) rate = calls_per_s(field_kernel);
    std::sort(rates.begin(), rates.end());
    return rates[2] / kFieldRef;
  }
  const double sim = calls_per_s(sim_kernel) / kSimRef;
  const double dp = calls_per_s(dp_kernel) / kDpRef;
  return std::sqrt(sim * dp);
}

}  // namespace perfbench
