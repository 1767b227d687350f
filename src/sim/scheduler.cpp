#include "sim/scheduler.hpp"

#include <cassert>
#include <cmath>
#include <ctime>

#include "common/log.hpp"

namespace dauct::sim {

namespace {
SimTime thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<SimTime>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

Scheduler::Scheduler(std::size_t num_nodes, LatencyModel latency, std::uint64_t seed,
                     CostMode cost_mode)
    : num_nodes_(num_nodes),
      latency_(latency),
      rng_(seed),
      cost_mode_(cost_mode),
      clocks_(num_nodes, kSimStart),
      incarnations_(num_nodes, 0),
      handlers_(num_nodes),
      node_delay_(num_nodes, 0) {
  // In-flight messages ride the event queue as plain structs; this sink is
  // the single delivery point (callback events remain for non-message uses).
  queue_.set_message_handler(
      [this](SimTime at, net::Message&& msg) { deliver(at, std::move(msg)); });
}

void Scheduler::set_deliver(NodeId node, DeliverFn fn) {
  handlers_.at(node) = std::move(fn);
}

void Scheduler::set_node_delay(NodeId node, SimTime extra) {
  node_delay_.at(node) = extra;
}

void Scheduler::install_fault_plan(FaultPlan plan) {
  faults_ = std::make_unique<FaultInjector>(std::move(plan));
}

// Single exit onto the wire: let the fault injector decide the message's
// fate, charge traffic for everything that actually departed (wire drops
// count — the sender did send; a down sender's output does not), and
// schedule the surviving copies. The injector draws from its own RNG
// stream, so the no-plan path (one null test) and a zero-rate plan are both
// bit-identical to the pre-fault-hook scheduler.
void Scheduler::route(SimTime depart, SimTime lat, net::Message msg) {
  if (faults_) {
    const auto verdict =
        faults_->on_send(msg.from, msg.to, msg.topic.str(), depart);
    if (!verdict.emitted) return;  // down sender: never reached the wire
    traffic_.messages += 1;
    traffic_.bytes += msg.wire_size();
    if (!verdict.deliver) return;  // lost on the (faulty) wire
    lat += verdict.extra_delay;
    if (verdict.duplicate) {
      queue_.schedule_message(depart + lat + verdict.duplicate_delay, msg);
    }
    queue_.schedule_message(depart + lat, std::move(msg));
    return;
  }
  traffic_.messages += 1;
  traffic_.bytes += msg.wire_size();
  queue_.schedule_message(depart + lat, std::move(msg));
}

void Scheduler::send(net::Message msg) {
  assert(msg.to < num_nodes_);
  if (in_handler_) {
    outbox_.push_back(std::move(msg));  // departs at handler end
  } else {
    const SimTime depart = msg.from < num_nodes_ ? clocks_[msg.from] : now_;
    SimTime lat = latency_.sample(msg.wire_size(), rng_);
    lat += node_delay_[msg.to];
    if (msg.from < num_nodes_) lat += node_delay_[msg.from];
    route(depart, lat, std::move(msg));
  }
}

void Scheduler::inject(SimTime at, net::Message msg) {
  assert(msg.to < num_nodes_);
  const SimTime lat = latency_.sample(msg.wire_size(), rng_) + node_delay_[msg.to];
  route(at, lat, std::move(msg));
}

void Scheduler::schedule_timer(SimTime at, NodeId node, std::function<void()> fn) {
  assert(node < num_nodes_);
  arm_timer(at, node, incarnations_[node], std::move(fn));
}

void Scheduler::schedule_after(NodeId node, SimTime delay, std::function<void()> fn) {
  assert(node < num_nodes_);
  if (in_handler_ && node == current_node_) {
    timer_box_.push_back(PendingTimer{delay, incarnations_[node], std::move(fn)});
  } else {
    arm_timer(now_ + delay, node, incarnations_[node], std::move(fn));
  }
}

SimTime Scheduler::local_time(NodeId node) const {
  if (in_handler_ && node == current_node_) return context_start_;
  return std::max(now_, clocks_.at(node));
}

// The timer is valid for the node incarnation that armed it: an amnesia
// rebuild bumps the incarnation and every older timer degrades to a no-op.
void Scheduler::arm_timer(SimTime at, NodeId node, std::uint32_t incarnation,
                          std::function<void()> fn) {
  queue_.schedule(at, [this, at, node, incarnation, fn = std::move(fn)] {
    run_timer(at, node, incarnation, fn);
  });
}

void Scheduler::bump_incarnation(NodeId node) {
  assert(node < num_nodes_);
  ++incarnations_[node];
}

// One execution protocol for handlers and timers: what runs on a node
// occupies its virtual clock and flushes its outbox when done. Kept in one
// place so timer-context and message-context time accounting can never
// drift apart (the golden fingerprints pin the result).
template <typename Fn>
void Scheduler::run_in_node_context(SimTime at, NodeId node, SimTime initial_charge,
                                    Fn&& fn) {
  const SimTime start = std::max(at, clocks_[node]);

  in_handler_ = true;
  current_node_ = node;
  context_start_ = start;
  extra_charge_ = initial_charge;
  const SimTime cpu_before = thread_cpu_now();
  fn();
  SimTime cost = extra_charge_;
  if (cost_mode_ == CostMode::kMeasured) {
    const SimTime measured = thread_cpu_now() - cpu_before;
    cost += static_cast<SimTime>(std::llround(measured * cpu_scale_));
  }
  in_handler_ = false;
  current_node_ = kNoNode;

  clocks_[node] = start + cost;
  // Armed before the outbox flush, so each timer's queue sequence number
  // stays below those of the callback's messages.
  for (auto& t : timer_box_) {
    arm_timer(clocks_[node] + t.delay, node, t.incarnation, std::move(t.fn));
  }
  timer_box_.clear();
  flush_outbox(clocks_[node]);
}

// A timer is a handler without a message. A timer coming due while its node
// is down is *deferred to the recovery instant*, not dropped — the simulator
// keeps engine state across a crash-recover window, so the node's timer
// wheel survives with it (in-flight *messages* of the window stay lost). A
// crash-stop node never recovers: its due timers are discarded with it and
// the queue drains.
void Scheduler::run_timer(SimTime at, NodeId node, std::uint32_t incarnation,
                          const std::function<void()>& fn) {
  // Stale incarnation: the node was rebuilt from durable state after this
  // timer was armed (amnesia recovery). The state that scheduled it is gone.
  if (incarnation != incarnations_[node]) return;
  if (faults_ && faults_->down_at(node, at, /*count=*/false)) {
    const SimTime recover = faults_->recovery_time(node, at);
    if (recover != kSimForever) {
      // Deferral keeps the arming incarnation: if the recovery is an amnesia
      // rebuild, the bump at the recovery instant invalidates this too.
      queue_.schedule(recover, [this, recover, node, incarnation, fn] {
        run_timer(recover, node, incarnation, fn);
      });
    }
    return;
  }
  run_in_node_context(at, node, /*initial_charge=*/0, fn);
}

void Scheduler::charge(SimTime cost) {
  assert(in_handler_ && "charge() must be called from inside a handler");
  extra_charge_ += cost;
}

void Scheduler::flush_outbox(SimTime depart) {
  for (auto& msg : outbox_) {
    SimTime lat = latency_.sample(msg.wire_size(), rng_);
    lat += node_delay_[msg.to];
    if (msg.from < num_nodes_) lat += node_delay_[msg.from];
    route(depart, lat, std::move(msg));
  }
  outbox_.clear();
}

void Scheduler::deliver(SimTime at, net::Message msg) {
  const NodeId node = msg.to;
  // A crashed receiver loses the delivery outright (no trace entry: the node
  // never saw the message). Recovering a lost delivery is the reliability
  // layer's job (net/reliable.hpp), when one is installed above this.
  if (faults_ && faults_->down_at(node, at, /*count=*/true)) return;
  if (trace_enabled_) {
    trace_.push_back(TraceEntry{at, msg.from, node, msg.topic, msg.wire_size()});
  }
  if (!handlers_[node]) {
    DAUCT_DEBUG("scheduler: dropping message to handlerless node " << node);
    return;
  }
  // Receive occupancy: the node spends virtual time ingesting the message.
  run_in_node_context(at, node, latency_.recv_occupancy(msg.wire_size()),
                      [&] { handlers_[node](msg); });
}

void Scheduler::run() {
  // Pre-size the trace for at least the already-queued deliveries so the hot
  // loop does not start with a cascade of small reallocations.
  if (trace_enabled_) trace_.reserve(trace_.size() + queue_.size());
  while (!queue_.empty()) {
    // Advance the global clock *before* the event runs so handlers observe
    // the current virtual time through now().
    now_ = queue_.next_time();
    ++events_dispatched_;
    queue_.run_next();
  }
}

std::string Scheduler::format_trace(std::size_t max_entries) const {
  std::string out;
  std::size_t count = 0;
  for (const auto& e : trace_) {
    if (count++ >= max_entries) {
      out += "... (" + std::to_string(trace_.size() - max_entries) + " more)\n";
      break;
    }
    out += format_time(e.at) + " " + std::to_string(e.from) + "->" +
           std::to_string(e.to) + " " + e.topic.str() + " (" +
           std::to_string(e.bytes) + "B)\n";
  }
  return out;
}

bool Scheduler::run_some(std::uint64_t max_events) {
  if (trace_enabled_) trace_.reserve(trace_.size() + queue_.size());
  for (std::uint64_t i = 0; i < max_events && !queue_.empty(); ++i) {
    now_ = queue_.next_time();
    ++events_dispatched_;
    queue_.run_next();
  }
  return !queue_.empty();
}

}  // namespace dauct::sim
