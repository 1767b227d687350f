// Verbatim copy of the seed-tree solver implementations (see header). Kept
// unoptimized on purpose: equivalence tests and the perf suite diff the
// optimized solvers against this code.
#include "welfare_reference.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace dauct::auction::reference {

namespace {

struct Item {
  BidderId bidder;
  std::int64_t value;   // v_i * d_i, in micro-money
  std::int64_t demand;  // micros of resource
  std::int64_t unit_value;
};

std::vector<Item> active_items(const AuctionInstance& instance,
                               const std::vector<bool>& active) {
  std::vector<Item> items;
  for (std::size_t i = 0; i < instance.bids.size(); ++i) {
    const Bid& b = instance.bids[i];
    if (i < active.size() && !active[i]) continue;
    if (b.is_neutral() || b.demand <= kZeroMoney) continue;
    Item it;
    it.bidder = b.bidder;
    it.value = b.demand.mul(b.unit_value).micros();
    it.demand = b.demand.micros();
    it.unit_value = b.unit_value.micros();
    if (it.value <= 0) continue;
    items.push_back(it);
  }
  return items;
}

class BranchBound {
 public:
  BranchBound(const AuctionInstance& instance, std::vector<Item> items)
      : instance_(instance), items_(std::move(items)) {
    std::sort(items_.begin(), items_.end(), [](const Item& a, const Item& b) {
      if (a.unit_value != b.unit_value) return a.unit_value > b.unit_value;
      return a.bidder < b.bidder;
    });
    caps_.reserve(instance.asks.size());
    for (const auto& a : instance_.asks) caps_.push_back(a.capacity.micros());
    choice_.assign(items_.size(), -1);
    best_choice_ = choice_;
  }

  Assignment run() {
    recurse(0, 0);
    Assignment out;
    out.provider_of.assign(instance_.bids.size(), -1);
    std::int64_t welfare = 0;
    for (std::size_t idx = 0; idx < items_.size(); ++idx) {
      if (best_choice_[idx] >= 0) {
        out.provider_of[items_[idx].bidder] = best_choice_[idx];
        welfare += items_[idx].value;
      }
    }
    out.welfare = Money::from_micros(welfare);
    return out;
  }

 private:
  std::int64_t fractional_bound(std::size_t idx) const {
    __int128 pool = 0;
    for (std::int64_t c : caps_) pool += c;
    __int128 bound = 0;
    for (std::size_t i = idx; i < items_.size() && pool > 0; ++i) {
      const __int128 take = std::min<__int128>(pool, items_[i].demand);
      bound += take * items_[i].unit_value / Money::kScale;
      pool -= take;
    }
    return static_cast<std::int64_t>(bound);
  }

  void recurse(std::size_t idx, std::int64_t welfare) {
    if (welfare > best_welfare_) {
      best_welfare_ = welfare;
      best_choice_ = choice_;
    }
    if (idx == items_.size()) return;
    if (welfare + fractional_bound(idx) <= best_welfare_) return;  // prune

    const Item& it = items_[idx];
    for (std::size_t j = 0; j < caps_.size(); ++j) {
      if (caps_[j] >= it.demand) {
        caps_[j] -= it.demand;
        choice_[idx] = static_cast<std::int32_t>(j);
        recurse(idx + 1, welfare + it.value);
        choice_[idx] = -1;
        caps_[j] += it.demand;
      }
    }
    recurse(idx + 1, welfare);  // skip this bidder
  }

  const AuctionInstance& instance_;
  std::vector<Item> items_;
  std::vector<std::int64_t> caps_;
  std::vector<std::int32_t> choice_;
  std::vector<std::int32_t> best_choice_;
  std::int64_t best_welfare_ = -1;
};

}  // namespace

Assignment ReferenceExactSolver::solve(const AuctionInstance& instance,
                                       const std::vector<bool>& active,
                                       std::uint64_t /*seed*/) const {
  return BranchBound(instance, active_items(instance, active)).run();
}

ReferenceScaledDpSolver::ReferenceScaledDpSolver(double epsilon) : epsilon_(epsilon) {
  assert(epsilon > 0.0 && epsilon <= 1.0);
  trials_ = static_cast<std::size_t>(std::ceil(1.0 / epsilon));
}

Assignment ReferenceScaledDpSolver::solve(const AuctionInstance& instance,
                                          const std::vector<bool>& active,
                                          std::uint64_t seed) const {
  crypto::Rng rng(seed);
  Assignment best;
  best.provider_of.assign(instance.bids.size(), -1);
  best.welfare = Money::from_micros(-1);
  for (std::size_t t = 0; t < trials_; ++t) {
    crypto::Rng trial_rng = rng.fork(t);
    Assignment a = solve_one_trial(instance, active, trial_rng);
    if (a.welfare > best.welfare) best = std::move(a);
  }
  return best;
}

Assignment ReferenceScaledDpSolver::solve_one_trial(const AuctionInstance& instance,
                                                    const std::vector<bool>& active,
                                                    crypto::Rng& rng) const {
  std::vector<Item> items = active_items(instance, active);
  Assignment out;
  out.provider_of.assign(instance.bids.size(), -1);
  out.welfare = kZeroMoney;
  if (items.empty()) return out;

  const std::size_t n = items.size();
  const std::size_t grid =
      std::max<std::size_t>(16, static_cast<std::size_t>(std::ceil(n / epsilon_)));

  std::vector<std::size_t> provider_order(instance.asks.size());
  std::iota(provider_order.begin(), provider_order.end(), 0);
  for (std::size_t i = provider_order.size(); i > 1; --i) {
    std::swap(provider_order[i - 1], provider_order[rng.next_below(i)]);
  }

  std::vector<bool> placed(n, false);
  std::vector<std::int64_t> dp(grid + 1);
  std::vector<char> take;  // take[i * (grid+1) + w]

  std::int64_t welfare = 0;
  for (std::size_t j : provider_order) {
    const std::int64_t cap = instance.asks[j].capacity.micros();
    if (cap <= 0) continue;

    struct DpItem {
      std::size_t item_idx;
      std::size_t weight;
      std::int64_t value;
    };
    std::vector<DpItem> dp_items;
    for (std::size_t i = 0; i < n; ++i) {
      if (placed[i] || items[i].demand > cap) continue;
      const __int128 w128 =
          (static_cast<__int128>(items[i].demand) * static_cast<std::int64_t>(grid) +
           cap - 1) /
          cap;
      const auto w = static_cast<std::size_t>(w128);
      if (w > grid) continue;
      dp_items.push_back({i, std::max<std::size_t>(w, 1), items[i].value});
    }
    if (dp_items.empty()) continue;

    std::fill(dp.begin(), dp.end(), 0);
    take.assign(dp_items.size() * (grid + 1), 0);
    for (std::size_t t = 0; t < dp_items.size(); ++t) {
      const auto& di = dp_items[t];
      for (std::size_t w = grid; w >= di.weight; --w) {
        const std::int64_t cand = dp[w - di.weight] + di.value;
        if (cand > dp[w]) {
          dp[w] = cand;
          take[t * (grid + 1) + w] = 1;
        }
        if (w == di.weight) break;  // avoid size_t underflow
      }
    }

    std::size_t w = grid;
    for (std::size_t t = dp_items.size(); t-- > 0;) {
      if (take[t * (grid + 1) + w]) {
        const auto& di = dp_items[t];
        placed[di.item_idx] = true;
        out.provider_of[items[di.item_idx].bidder] = static_cast<std::int32_t>(j);
        welfare += di.value;
        w -= di.weight;
      }
    }
  }

  out.welfare = Money::from_micros(welfare);
  return out;
}

}  // namespace dauct::auction::reference
