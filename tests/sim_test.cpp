#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/scheduler.hpp"

namespace dauct::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(7, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1, [&] {
    ++fired;
    q.schedule(2, [&] { ++fired; });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 2);
}

TEST(Latency, ZeroModelIsZero) {
  crypto::Rng rng(1);
  EXPECT_EQ(LatencyModel::zero().sample(1000, rng), 0);
}

TEST(Latency, ScalesWithBytes) {
  crypto::Rng rng(1);
  LatencyModel model;
  model.jitter = 0.0;
  const SimTime small = model.sample(10, rng);
  const SimTime big = model.sample(10'000, rng);
  EXPECT_GT(big, small);
  EXPECT_EQ(big - small, model.per_byte * 9'990);
}

TEST(Latency, JitterBounded) {
  crypto::Rng rng(3);
  LatencyModel model;
  model.jitter = 0.2;
  const SimTime nominal = model.base + model.per_byte * 100;
  for (int i = 0; i < 200; ++i) {
    const SimTime s = model.sample(100, rng);
    EXPECT_GE(s, static_cast<SimTime>(nominal * 0.79));
    EXPECT_LE(s, static_cast<SimTime>(nominal * 1.21));
  }
}

TEST(Latency, CommunityModelMilliseconds) {
  // The calibration regime: a small message takes single-digit milliseconds.
  crypto::Rng rng(5);
  const SimTime s = LatencyModel::community().sample(100, rng);
  EXPECT_GT(s, from_micros(1'000));
  EXPECT_LT(s, from_millis(10));
}

TEST(Scheduler, DeliversBetweenNodes) {
  Scheduler sched(2, LatencyModel::zero(), 1);
  std::vector<std::string> log;
  sched.set_deliver(0, [&](const net::Message& m) {
    log.push_back("n0:" + m.topic.str());
    sched.send(net::Message{0, 1, "pong", {}});
  });
  sched.set_deliver(1, [&](const net::Message& m) { log.push_back("n1:" + m.topic.str()); });
  sched.inject(0, net::Message{1, 0, "ping", {}});
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"n0:ping", "n1:pong"}));
  EXPECT_EQ(sched.traffic().messages, 2u);
}

TEST(Scheduler, ChargeAdvancesVirtualClock) {
  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.set_deliver(0, [&](const net::Message&) {
    sched.charge(from_millis(5));
    sched.send(net::Message{0, 1, "done", {}});
  });
  SimTime received_at = -1;
  sched.set_deliver(1, [&](const net::Message&) { received_at = sched.now(); });
  sched.inject(0, net::Message{1, 0, "work", {}});
  sched.run();
  EXPECT_EQ(sched.clock(0), from_millis(5));
  EXPECT_EQ(received_at, from_millis(5));  // sent at handler end time
}

TEST(Scheduler, SequentialProcessingPerNode) {
  // Two messages delivered at t=0 to the same node with 1 ms of charged work
  // each: the second handler starts after the first finishes.
  Scheduler sched(1, LatencyModel::zero(), 1);
  std::vector<SimTime> clocks;
  sched.set_deliver(0, [&](const net::Message&) {
    sched.charge(from_millis(1));
    clocks.push_back(sched.clock(0));
  });
  sched.inject(0, net::Message{kNoNode, 0, "a", {}});
  sched.inject(0, net::Message{kNoNode, 0, "b", {}});
  sched.run();
  ASSERT_EQ(clocks.size(), 2u);
  // clock reads *before* the charge is applied (charge applies at end).
  EXPECT_EQ(sched.clock(0), from_millis(2));
}

TEST(Scheduler, NodeDelayInjection) {
  Scheduler base(2, LatencyModel::zero(), 1);
  Scheduler slow(2, LatencyModel::zero(), 1);
  slow.set_node_delay(1, from_millis(10));

  SimTime base_arrival = -1, slow_arrival = -1;
  base.set_deliver(1, [&](const net::Message&) { base_arrival = base.now(); });
  slow.set_deliver(1, [&](const net::Message&) { slow_arrival = slow.now(); });
  base.inject(0, net::Message{kNoNode, 1, "x", {}});
  slow.inject(0, net::Message{kNoNode, 1, "x", {}});
  base.run();
  slow.run();
  EXPECT_EQ(slow_arrival - base_arrival, from_millis(10));
}

TEST(Scheduler, RunSomeBudget) {
  Scheduler sched(1, LatencyModel::zero(), 1);
  int count = 0;
  sched.set_deliver(0, [&](const net::Message&) {
    if (++count < 100) sched.send(net::Message{0, 0, "loop", {}});
  });
  sched.inject(0, net::Message{kNoNode, 0, "start", {}});
  const bool more = sched.run_some(10);
  EXPECT_TRUE(more);
  EXPECT_EQ(count, 10);
}

TEST(Scheduler, RelativeTimerFromABusyHandlerCountsFromTheHandlerEnd) {
  // Receive occupancy keeps node 0 busy: two messages delivered at t=0 are
  // handled over [0, occ] and [occ, 2·occ]. The second handler sees now()
  // read 0, its sends depart at 2·occ, and a relative timer it arms must
  // count from there too — not from now().
  LatencyModel model = LatencyModel::zero();
  model.recv_per_byte = 1'000;
  const net::Message a{kNoNode, 0, "a", Bytes(1000)};
  const SimTime occ = model.recv_occupancy(a.wire_size());
  const SimTime delay = from_millis(3);
  Scheduler sched(2, model, 1);
  int handled = 0;
  SimTime handler_start = -1, handler_now = -1;
  SimTime inside_fired = -1, outside_fired = -1, pong_at = -1;
  sched.set_deliver(0, [&](const net::Message&) {
    if (++handled < 2) return;
    handler_start = sched.local_time(0);
    handler_now = sched.now();
    sched.send(net::Message{0, 1, "pong", {}});
    sched.schedule_after(0, delay, [&] { inside_fired = sched.now(); });
  });
  sched.set_deliver(1, [&](const net::Message&) { pong_at = sched.now(); });
  sched.inject(0, a);
  sched.inject(0, a);
  // Armed outside any handler: counts from now() (t=0), busy node or not.
  sched.schedule_after(0, delay, [&] { outside_fired = sched.now(); });
  sched.run();

  ASSERT_GT(occ, 0);
  EXPECT_EQ(handler_now, 0);
  EXPECT_EQ(handler_start, occ);
  EXPECT_EQ(pong_at, 2 * occ);
  EXPECT_EQ(inside_fired, 2 * occ + delay);
  EXPECT_EQ(outside_fired, delay);
}

TEST(Scheduler, DeterministicWithSeed) {
  auto run_once = [](std::uint64_t seed) {
    Scheduler sched(3, LatencyModel::community(), seed);
    std::vector<SimTime> arrivals;
    for (NodeId j = 0; j < 3; ++j) {
      sched.set_deliver(j, [&](const net::Message&) { arrivals.push_back(sched.now()); });
    }
    for (int i = 0; i < 10; ++i) {
      sched.inject(0, net::Message{kNoNode, static_cast<NodeId>(i % 3), "m",
                                   Bytes(i * 10)});
    }
    sched.run();
    return arrivals;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));  // jitter differs
}

// ---------------------------------------------------------------------------
// Fault injection at the scheduler level. Scenario-level coverage (plans via
// SimRunConfig, .scn files, determinism pins) lives in scenario_test.cpp.
// ---------------------------------------------------------------------------

TEST(SchedulerFaults, DeterministicDropMatchesRule) {
  // drop = 1 on the 0→1 direction only (symmetric = false).
  FaultPlan plan;
  LinkFault rule;
  rule.from = 0;
  rule.to = 1;
  rule.symmetric = false;
  rule.drop = 1.0;
  plan.links.push_back(rule);

  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  std::vector<std::string> log;
  sched.set_deliver(0, [&](const net::Message& m) { log.push_back("n0:" + m.topic.str()); });
  sched.set_deliver(1, [&](const net::Message& m) { log.push_back("n1:" + m.topic.str()); });
  sched.inject(0, net::Message{0, 1, "lost", {}});
  sched.inject(0, net::Message{1, 0, "kept", {}});  // reverse direction passes
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"n0:kept"}));
  ASSERT_NE(sched.fault_stats(), nullptr);
  EXPECT_EQ(sched.fault_stats()->link_dropped, 1u);
  // Traffic counts what was *sent*; the drop happened on the wire.
  EXPECT_EQ(sched.traffic().messages, 2u);
}

TEST(SchedulerFaults, DuplicateDeliversTwice) {
  FaultPlan plan;
  LinkFault rule;
  rule.duplicate = 1.0;
  plan.links.push_back(rule);

  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  int deliveries = 0;
  sched.set_deliver(1, [&](const net::Message&) { ++deliveries; });
  sched.inject(0, net::Message{0, 1, "echoed", {}});
  sched.run();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(sched.fault_stats()->duplicated, 1u);
}

TEST(SchedulerFaults, ExtraDelayShiftsDelivery) {
  FaultPlan plan;
  LinkFault rule;
  rule.extra_delay = from_millis(7);
  plan.links.push_back(rule);

  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  SimTime at = -1;
  sched.set_deliver(1, [&](const net::Message&) { at = sched.now(); });
  sched.inject(from_millis(1), net::Message{0, 1, "late", {}});
  sched.run();
  EXPECT_EQ(at, from_millis(8));
  EXPECT_EQ(sched.fault_stats()->delayed, 1u);
}

TEST(SchedulerFaults, LinkCutIsSymmetricAndWindowed) {
  FaultPlan plan;
  plan.cuts.push_back(LinkCut{0, 1, from_millis(10), from_millis(20)});

  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  int delivered = 0;
  sched.set_deliver(0, [&](const net::Message&) { ++delivered; });
  sched.set_deliver(1, [&](const net::Message&) { ++delivered; });
  sched.inject(from_millis(5), net::Message{0, 1, "before", {}});   // passes
  sched.inject(from_millis(15), net::Message{0, 1, "during", {}});  // cut
  sched.inject(from_millis(15), net::Message{1, 0, "reverse", {}});  // cut too
  sched.inject(from_millis(25), net::Message{0, 1, "after", {}});   // healed
  sched.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(sched.fault_stats()->cut_dropped, 2u);
}

TEST(SchedulerFaults, PartitionDropsCrossTrafficOnly) {
  FaultPlan plan;
  plan.partitions.push_back(Partition{{0, 1}, 0, kSimForever});

  Scheduler sched(3, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  std::vector<std::string> log;
  for (NodeId j = 0; j < 3; ++j) {
    sched.set_deliver(j, [&log, j](const net::Message& m) {
      std::string entry = "n";
      entry += std::to_string(j);
      entry += ":";
      entry += m.topic.str();
      log.push_back(std::move(entry));
    });
  }
  sched.inject(0, net::Message{0, 1, "inside", {}});   // both in group
  sched.inject(0, net::Message{0, 2, "cross", {}});    // dropped
  sched.inject(0, net::Message{2, 1, "cross2", {}});   // dropped
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"n1:inside"}));
  EXPECT_EQ(sched.fault_stats()->partition_dropped, 2u);
}

TEST(SchedulerFaults, CrashedNodeNeitherReceivesNorSends) {
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{1, from_millis(10)});

  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  std::vector<std::string> log;
  sched.set_deliver(0, [&](const net::Message& m) { log.push_back("n0:" + m.topic.str()); });
  sched.set_deliver(1, [&](const net::Message& m) {
    log.push_back("n1:" + m.topic.str());
    sched.send(net::Message{1, 0, "reply/" + m.topic.str(), {}});
  });
  sched.inject(from_millis(5), net::Message{0, 1, "alive", {}});
  // Arrives at 12 ms — after the crash: dropped at delivery, no reply.
  sched.inject(from_millis(12), net::Message{0, 1, "dead", {}});
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"n1:alive", "n0:reply/alive"}));
  EXPECT_EQ(sched.fault_stats()->crash_dropped, 1u);
}

TEST(SchedulerFaults, CrashRecoverRestoresDelivery) {
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{1, from_millis(10), from_millis(20)});

  Scheduler sched(2, LatencyModel::zero(), 1);
  sched.install_fault_plan(plan);
  std::vector<SimTime> seen;
  sched.set_deliver(1, [&](const net::Message&) { seen.push_back(sched.now()); });
  sched.inject(from_millis(15), net::Message{0, 1, "lost", {}});
  sched.inject(from_millis(21), net::Message{0, 1, "kept", {}});
  sched.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{from_millis(21)}));
  EXPECT_EQ(sched.fault_stats()->crash_dropped, 1u);
}

TEST(SchedulerFaults, NoPlanMeansNoStats) {
  Scheduler sched(2, LatencyModel::zero(), 1);
  EXPECT_EQ(sched.fault_stats(), nullptr);
}

TEST(FormatTime, Millis) { EXPECT_EQ(format_time(from_millis(12) + 345'000), "12.345ms"); }

}  // namespace
}  // namespace dauct::sim
