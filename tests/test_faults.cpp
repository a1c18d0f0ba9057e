/// \file test_faults.cpp
/// \brief Fault injection and reliable delivery: schedule validation,
/// counter-mode hash determinism, the quiescence watchdog, byte-inertness
/// of no-op plans, timeout/retransmit semantics, and the width-determinism
/// battery — every fault class, through every sparse and every dense
/// method, bit-identical at sim widths {1, 2, 4, 7}.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "harness/measure.hpp"
#include "mpix/alltoall.hpp"
#include "mpix/reliable.hpp"
#include "patterns/pattern.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/fault.hpp"

using harness::MeasureConfig;
using harness::PatternMeasurement;
using patterns::Workload;
using simmpi::ChannelKey;
using simmpi::Context;
using simmpi::FaultPlan;
using simmpi::FaultSpec;
using simmpi::Machine;
using simmpi::SimError;
using simmpi::Task;
using Kind = simmpi::FaultSpec::Kind;

namespace {

constexpr int kWidths[] = {1, 2, 4, 7};

Machine test_machine() {
  return Machine({.num_nodes = 4, .regions_per_node = 1,
                  .ranks_per_region = 4, .switch_levels = {}});
}

/// 4:1-tapered two-leaf fat tree with both endpoint caps charged: the
/// shape every fault class can act on (brownouts need link tiers, NIC
/// slowdowns the injection cap).
MeasureConfig fault_config() {
  MeasureConfig cfg;
  cfg.ranks_per_region = 4;
  cfg.switch_levels = {{.radix = 2, .taper = 4.0}, {.radix = 2, .taper = 1.0}};
  cfg.cost.use_link_cap = true;
  cfg.cost.link_msg_bytes = 256.0;
  return cfg;
}

/// Run `f` and return the SimError message it must throw.
template <class F>
std::string error_of(F&& f) {
  try {
    std::forward<F>(f)();
  } catch (const SimError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected SimError, nothing thrown";
  return {};
}

void expect_contains(const std::string& msg, const char* sub) {
  EXPECT_NE(msg.find(sub), std::string::npos)
      << "expected \"" << sub << "\" in: " << msg;
}

/// Exact (bitwise) equality of two measurements including the fault
/// counters; doubles compared with == on purpose — the contract is
/// bit-identity, not tolerance.
void expect_identical(const PatternMeasurement& a, const PatternMeasurement& b,
                      const std::string& what) {
  EXPECT_EQ(a.init_seconds, b.init_seconds) << what;
  EXPECT_EQ(a.blocking_seconds, b.blocking_seconds) << what;
  EXPECT_EQ(a.overlapped_seconds, b.overlapped_seconds) << what;
  EXPECT_EQ(a.overlap_seconds, b.overlap_seconds) << what;
  EXPECT_EQ(a.sum_local_msgs, b.sum_local_msgs) << what;
  EXPECT_EQ(a.sum_global_msgs, b.sum_global_msgs) << what;
  EXPECT_EQ(a.sum_local_values, b.sum_local_values) << what;
  EXPECT_EQ(a.sum_global_values, b.sum_global_values) << what;
  EXPECT_EQ(a.max_global_msgs, b.max_global_msgs) << what;
  EXPECT_EQ(a.max_global_msg_values, b.max_global_msg_values) << what;
  EXPECT_EQ(a.link_seconds, b.link_seconds) << what;
  EXPECT_EQ(a.max_link_backlog_seconds, b.max_link_backlog_seconds) << what;
  EXPECT_EQ(a.sum_link_msgs, b.sum_link_msgs) << what;
  EXPECT_EQ(a.drops, b.drops) << what;
  EXPECT_EQ(a.dups, b.dups) << what;
  EXPECT_EQ(a.retransmits, b.retransmits) << what;
  EXPECT_EQ(a.timeouts, b.timeouts) << what;
}

/// One entry per fault class of the width battery.  Drop/duplication run
/// with reliable delivery enabled — without it a drop deadlocks (that path
/// is the watchdog test) and a duplicate would linger across windows.
struct FaultCase {
  const char* name;
  FaultPlan plan;
  bool reliable;
};

std::vector<FaultCase> fault_cases() {
  return {
      {"msg_drop",
       {.seed = 42, .events = {{.kind = Kind::msg_drop, .rate = 0.25}}},
       true},
      {"msg_dup",
       {.seed = 7, .events = {{.kind = Kind::msg_dup, .rate = 0.25}}},
       true},
      {"link_brownout",
       {.events = {{.kind = Kind::link_brownout, .severity = 0.5}}},
       false},
      {"nic_slowdown",
       {.events = {{.kind = Kind::nic_slowdown, .severity = 0.5}}},
       false},
      {"compute_stall",
       {.events = {{.kind = Kind::compute_stall, .severity = 0.25}}},
       false},
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// Schedule validation: every malformed field throws a SimError naming the
// field and the offending value.

TEST(FaultValidation, RejectsOutOfRangeFields) {
  const Machine m = test_machine();
  auto reject = [&](FaultSpec e) {
    return error_of([&] { validate_fault_plan({.events = {e}}, m); });
  };

  std::string msg = reject({.kind = Kind::msg_drop, .rate = -0.1});
  expect_contains(msg, "events[0].rate");
  expect_contains(msg, "in [0, 1]");
  expect_contains(msg, "-0.1");

  msg = reject({.kind = Kind::msg_dup, .rate = 1.5});
  expect_contains(msg, "events[0].rate");

  msg = reject({.kind = Kind::compute_stall, .severity = 0.0});
  expect_contains(msg, "events[0].severity");
  expect_contains(msg, "in (0, 1]");

  msg = reject({.kind = Kind::link_brownout, .severity = 2.0});
  expect_contains(msg, "events[0].severity");

  msg = reject({.kind = Kind::msg_drop, .t_begin = -1.0, .rate = 0.5});
  expect_contains(msg, "events[0].t_begin");
  expect_contains(msg, ">= 0");

  msg = reject(
      {.kind = Kind::msg_drop, .t_begin = 2.0, .t_end = 1.0, .rate = 0.5});
  expect_contains(msg, "events[0].t_end");
  expect_contains(msg, "inverted or empty");
}

TEST(FaultValidation, RejectsOutOfRangeTargets) {
  const Machine m = test_machine();  // 16 ranks, 4 nodes, no link tiers
  auto reject = [&](FaultSpec e) {
    return error_of([&] { validate_fault_plan({.events = {e}}, m); });
  };

  // The flat machine has zero link tiers, so any tier index is out of
  // range.
  std::string msg = reject({.kind = Kind::link_brownout, .tier = 0});
  expect_contains(msg, "events[0].tier");
  expect_contains(msg, "[0, 0)");

  msg = reject({.kind = Kind::nic_slowdown, .node = 4});
  expect_contains(msg, "events[0].node");
  expect_contains(msg, "[0, 4)");

  msg = reject({.kind = Kind::msg_drop, .rank = 16, .rate = 0.5});
  expect_contains(msg, "events[0].rank");
  expect_contains(msg, "[0, 16)");

  msg = reject({.kind = Kind::compute_stall, .rank = -2, .severity = 0.5});
  expect_contains(msg, "events[0].rank");
}

TEST(FaultValidation, RejectsOverlappingSameKindWindows) {
  const Machine m = test_machine();
  // Same target, intersecting windows.
  std::string msg = error_of([&] {
    validate_fault_plan(
        {.events = {{.kind = Kind::msg_drop, .t_begin = 0.0, .t_end = 2.0,
                     .rank = 3, .rate = 0.5},
                    {.kind = Kind::msg_drop, .t_begin = 1.0, .t_end = 3.0,
                     .rank = 3, .rate = 0.5}}},
        m);
  });
  expect_contains(msg, "events[0] and events[1]");
  expect_contains(msg, "overlapping msg_drop windows");

  // The -1 wildcard collides with every explicit target.
  msg = error_of([&] {
    validate_fault_plan(
        {.events = {{.kind = Kind::compute_stall, .t_begin = 0.0,
                     .t_end = 1.0, .rank = -1, .severity = 0.5},
                    {.kind = Kind::compute_stall, .t_begin = 0.5,
                     .t_end = 1.5, .rank = 2, .severity = 0.5}}},
        m);
  });
  expect_contains(msg, "overlapping compute_stall windows");
}

TEST(FaultValidation, AcceptsDisjointAndDistinctTargetWindows) {
  const Machine m = test_machine();
  // Adjacent half-open windows on the same target, same-window different
  // targets, and different kinds in the same window are all fine.
  EXPECT_NO_THROW(validate_fault_plan(
      {.events = {{.kind = Kind::msg_drop, .t_begin = 0.0, .t_end = 1.0,
                   .rate = 0.5},
                  {.kind = Kind::msg_drop, .t_begin = 1.0, .t_end = 2.0,
                   .rate = 0.2},
                  {.kind = Kind::compute_stall, .t_begin = 0.0, .t_end = 1.0,
                   .rank = 1, .severity = 0.5},
                  {.kind = Kind::compute_stall, .t_begin = 0.0, .t_end = 1.0,
                   .rank = 2, .severity = 0.25},
                  {.kind = Kind::msg_dup, .t_begin = 0.5, .t_end = 1.5,
                   .rate = 0.1}}},
      m));
}

TEST(FaultValidation, EngineRejectsEffectsTheCostModelWouldIgnore) {
  const Machine m = test_machine();  // flat: no link tiers
  simmpi::CostParams cost = simmpi::CostParams::lassen();

  simmpi::Engine flat(m, cost, {.threads = 1});
  std::string msg = error_of([&] {
    flat.set_fault_plan(
        {.events = {{.kind = Kind::link_brownout, .severity = 0.5}}});
  });
  expect_contains(msg, "link_brownout requires CostParams::use_link_cap");

  cost.use_injection_cap = false;
  simmpi::Engine nocap(m, cost, {.threads = 1});
  msg = error_of([&] {
    nocap.set_fault_plan(
        {.events = {{.kind = Kind::nic_slowdown, .severity = 0.5}}});
  });
  expect_contains(msg, "nic_slowdown requires CostParams::use_injection_cap");

  // Severity 1.0 is a no-op: accepted even without the caps.
  EXPECT_NO_THROW(flat.set_fault_plan(
      {.events = {{.kind = Kind::link_brownout, .severity = 1.0}}}));
}

TEST(FaultValidation, ReliabilityKnobsAreRangeChecked) {
  mpix::Reliability rel;
  rel.timeout = 0.0;
  expect_contains(error_of([&] { mpix::impl::validate_reliability(rel); }),
                  "Reliability::timeout must be > 0");
  rel = {};
  rel.backoff = 0.5;
  expect_contains(error_of([&] { mpix::impl::validate_reliability(rel); }),
                  "Reliability::backoff must be >= 1");
  rel = {};
  rel.max_retries = 0;
  expect_contains(error_of([&] { mpix::impl::validate_reliability(rel); }),
                  "Reliability::max_retries must be >= 1");
  EXPECT_NO_THROW(mpix::impl::validate_reliability({}));

  // The public entry points check the knobs before any plan build
  // communicates: a bad knob fails with zero messages sent, even for the
  // methods whose setup is collective.
  const Machine m = test_machine();
  mpix::Options bad;
  bad.reliability = {.enabled = true, .max_retries = 0};
  for (const bool dense : {false, true}) {
    simmpi::Engine eng(m, simmpi::CostParams::lassen(), {.threads = 1});
    const std::string msg = error_of([&] {
      eng.run([&](Context& ctx) -> Task<> {
        const int p = ctx.world().size();
        const int r = ctx.rank();
        std::vector<double> out(p, r), in(p);
        if (dense) {
          co_await mpix::alltoall_init(
              ctx, ctx.world(), std::as_bytes(std::span<const double>(out)),
              std::as_writable_bytes(std::span<double>(in)), 1,
              sizeof(double), mpix::AlltoallMethod::bruck, bad);
        } else {
          simmpi::DistGraph g;
          g.comm = ctx.world();
          g.destinations.push_back((r + 1) % p);
          g.sources.push_back((r + p - 1) % p);
          mpix::AlltoallvArgs args;
          args.sendbuf = std::as_bytes(std::span<const double>(out).first(1));
          args.recvbuf = std::as_writable_bytes(std::span<double>(in).first(1));
          args.sendcounts = args.recvcounts = {1};
          args.sdispls = args.rdispls = {0};
          co_await mpix::neighbor_alltoallv_init(ctx, g, args,
                                                 mpix::Method::locality, bad);
        }
      });
    });
    expect_contains(msg, "Reliability::max_retries must be >= 1");
    for (int r = 0; r < m.num_ranks(); ++r)
      EXPECT_EQ(eng.stats(r).total_msgs(), 0u)
          << (dense ? "bruck" : "locality") << " rank " << r;
  }
}

// ---------------------------------------------------------------------------
// The counter-mode hash underlying drop/duplication decisions.

TEST(FaultUniform, PureInRangeAndSeedSensitive) {
  const ChannelKey key{.ctx = 3, .src = 1, .dst = 9, .tag = 17};
  double sum = 0.0;
  bool seed_differs = false;
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    const double u = simmpi::fault_uniform(42, key, seq);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    // Pure function: the same arguments reproduce the same draw.
    ASSERT_EQ(u, simmpi::fault_uniform(42, key, seq));
    seed_differs = seed_differs || u != simmpi::fault_uniform(43, key, seq);
    sum += u;
  }
  EXPECT_TRUE(seed_differs);
  // Loose uniformity sanity: the mean of 1000 draws is near 1/2.
  EXPECT_GT(sum / 1000.0, 0.4);
  EXPECT_LT(sum / 1000.0, 0.6);
}

// ---------------------------------------------------------------------------
// Quiescence watchdog: a swallowed message is a fast, actionable error.

TEST(FaultWatchdog, SwallowedMessageFailsFast) {
  // 2 nodes x 2 ranks: 0 -> 2 crosses the network, so the drop applies.
  const Machine m({.num_nodes = 2, .regions_per_node = 1,
                   .ranks_per_region = 2, .switch_levels = {}});
  simmpi::Engine eng(m, simmpi::CostParams::lassen(), {.threads = 1});
  eng.set_fault_plan(
      {.seed = 1, .events = {{.kind = Kind::msg_drop, .rank = 0, .rate = 1.0}}});

  const std::string msg = error_of([&] {
    eng.run([&](Context& ctx) -> Task<> {
      std::vector<std::byte> buf(32);
      if (ctx.rank() == 0) {
        auto s = simmpi::Request::send(ctx.world(), buf, 2, 17);
        s.start(ctx);
        co_await ctx.wait(s);  // sends complete locally; the drop is silent
      } else if (ctx.rank() == 2) {
        auto r = simmpi::Request::recv(ctx.world(), buf, 0, 17);
        r.start(ctx);
        co_await ctx.wait(r);  // never satisfied: would hang without the
                               // watchdog
      }
      co_return;
    });
  });
  expect_contains(msg, "deadlock");
  expect_contains(msg, "1 dropped in flight");
  expect_contains(msg, "rank 2");
  expect_contains(msg, "0->2 tag=17");
  expect_contains(msg, "sent=1 dropped=1");
  expect_contains(msg, "delivered=0");
}

// ---------------------------------------------------------------------------
// Byte-inertness: an engine with no plan, an empty plan, or a plan whose
// events are all no-ops executes the identical schedule — clocks, stats
// and delivered bytes.

TEST(FaultInertness, NoOpPlansAreByteInert) {
  const Machine m = test_machine();
  const int p = m.num_ranks();

  struct Run {
    std::vector<double> clocks;
    std::vector<std::vector<std::byte>> bufs;
    std::vector<simmpi::Engine::RankStats> stats;
  };
  auto run_once = [&](const FaultPlan* plan) {
    simmpi::Engine eng(m, simmpi::CostParams::lassen(), {.threads = 2});
    if (plan) eng.set_fault_plan(*plan);
    Run out;
    out.clocks.assign(p, 0.0);
    out.bufs.assign(p, {});
    eng.run([&](Context& ctx) -> Task<> {
      const int r = ctx.rank(), n = ctx.world().size();
      std::vector<std::byte> msg(64), got(64);
      for (std::size_t i = 0; i < msg.size(); ++i)
        msg[i] = static_cast<std::byte>(r + static_cast<int>(i));
      // r + 5 mod 16 crosses node boundaries for most ranks: the fault
      // gate is consulted (and must decline) for real network traffic.
      auto s = simmpi::Request::send(ctx.world(), msg, (r + 5) % n, 3);
      auto rr = simmpi::Request::recv(ctx.world(), got, (r + n - 5) % n, 3);
      rr.start(ctx);
      s.start(ctx);
      co_await ctx.wait(s);
      co_await ctx.wait(rr);
      ctx.compute(1e-6);
      out.clocks[r] = ctx.now();
      out.bufs[r] = got;
      co_return;
    });
    for (int r = 0; r < p; ++r) out.stats.push_back(eng.stats(r));
    return out;
  };

  const Run base = run_once(nullptr);
  const FaultPlan empty{};
  // Zero rates and unity severities: present in the plan, yet every event
  // is a no-op; the cached engine gates must all stay cold.
  const FaultPlan noop{
      .seed = 99,
      .events = {{.kind = Kind::msg_drop, .rate = 0.0},
                 {.kind = Kind::msg_dup, .rate = 0.0},
                 {.kind = Kind::link_brownout, .severity = 1.0},
                 {.kind = Kind::nic_slowdown, .severity = 1.0},
                 {.kind = Kind::compute_stall, .severity = 1.0}}};
  for (const FaultPlan* plan : {&empty, &noop}) {
    const Run got = run_once(plan);
    EXPECT_EQ(base.clocks, got.clocks);
    EXPECT_EQ(base.bufs, got.bufs);
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(base.stats[r], got.stats[r]) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Timed parks: a wait_until deadline fires only under global quiescence,
// advances the clock to the deadline, and leaves the request armed.

TEST(FaultTimeout, DeadlineFiresUnderQuiescenceAndRequestStaysArmed) {
  const Machine m({.num_nodes = 1, .regions_per_node = 1,
                   .ranks_per_region = 2, .switch_levels = {}});
  simmpi::Engine eng(m, simmpi::CostParams::lassen(), {.threads = 1});
  eng.run([&](Context& ctx) -> Task<> {
    std::vector<std::byte> buf(8);
    if (ctx.rank() == 0) {
      auto r = simmpi::Request::recv(ctx.world(), buf, 1, 5);
      r.start(ctx);
      const double deadline = ctx.now() + 1e-3;
      // Rank 1 is parked on its own receive, so the system quiesces and
      // the deadline fires: false, clock at the deadline, request armed.
      const bool got = co_await ctx.wait_until(r, deadline);
      EXPECT_FALSE(got);
      EXPECT_GE(ctx.now(), deadline);
      // Unblock rank 1; its reply then satisfies the still-armed receive.
      auto s = simmpi::Request::send(ctx.world(), buf, 1, 6);
      s.start(ctx);
      co_await ctx.wait(s);
      const bool again = co_await ctx.wait_until(r, ctx.now() + 1.0);
      EXPECT_TRUE(again);
    } else {
      auto r = simmpi::Request::recv(ctx.world(), buf, 0, 6);
      r.start(ctx);
      co_await ctx.wait(r);
      auto s = simmpi::Request::send(ctx.world(), buf, 0, 5);
      s.start(ctx);
      co_await ctx.wait(s);
    }
    co_return;
  });
  EXPECT_EQ(eng.stats(0).faults.timeouts, 1u);
  EXPECT_EQ(eng.stats(1).faults.timeouts, 0u);
}

// ---------------------------------------------------------------------------
// Retry exhaustion: with every data transmission dropped, a reliable send
// gives up with an error naming the channel, not a hang.

TEST(FaultReliability, RetryExhaustionFailsWithDiagnostics) {
  const Machine m({.num_nodes = 2, .regions_per_node = 1,
                   .ranks_per_region = 2, .switch_levels = {}});
  simmpi::Engine eng(m, simmpi::CostParams::lassen(), {.threads = 1});
  eng.set_fault_plan(
      {.seed = 3, .events = {{.kind = Kind::msg_drop, .rate = 1.0}}});
  mpix::Reliability rel{
      .enabled = true, .timeout = 1e-4, .backoff = 2.0, .max_retries = 2};

  const std::string msg = error_of([&] {
    eng.run([&](Context& ctx) -> Task<> {
      std::vector<std::byte> buf(16);
      mpix::impl::ChannelSet set(ctx.world(), rel, 12);
      if (ctx.rank() == 0) set.send(buf, 2, 11);
      if (ctx.rank() == 2) set.recv(buf, 0, 11);
      set.start(ctx);
      co_await set.finish(ctx);
    });
  });
  expect_contains(msg, "reliable send rank 0");
  expect_contains(msg, "no ack from peer 2");
  expect_contains(msg, "after 2 retransmits");
}

// ---------------------------------------------------------------------------
// Fault effects: each class observably perturbs a measurement (and the
// drop/duplication counters surface in PatternMeasurement), while
// the runner's payload check keeps proving delivered bytes equal the
// fault-free truth.

TEST(FaultEffects, EachClassPerturbsTheMeasurement) {
  const Machine m = test_machine();
  const Workload wl = patterns::generate(
      "random_sparse", m, {.values = 6, .seed = 9, .overlap_seconds = 2e-5});

  MeasureConfig cfg = fault_config();
  cfg.threads = 1;
  const PatternMeasurement base =
      harness::measure_pattern(wl, mpix::Method::locality, cfg);
  EXPECT_EQ(base.drops + base.dups + base.retransmits + base.timeouts, 0);

  // The NIC slowdown needs its own flat baseline: under the tapered link
  // cap the link queues are the bottleneck and absorb injection delays
  // entirely (correct queueing — just not observable from the outside).
  MeasureConfig flat;
  flat.ranks_per_region = 4;
  flat.threads = 1;
  const PatternMeasurement base_flat =
      harness::measure_pattern(wl, mpix::Method::locality, flat);

  for (const FaultCase& fc : fault_cases()) {
    const bool nic = std::string(fc.name) == "nic_slowdown";
    MeasureConfig fcfg = nic ? flat : cfg;
    fcfg.faults = &fc.plan;
    if (fc.reliable) {
      fcfg.reliability.enabled = true;
      fcfg.reliability.timeout = 5e-4;
    }
    const PatternMeasurement got =
        harness::measure_pattern(wl, mpix::Method::locality, fcfg);
    if (std::string(fc.name) == "msg_drop") {
      EXPECT_GT(got.drops, 0) << fc.name;
      EXPECT_GT(got.retransmits, 0) << fc.name;
      EXPECT_GT(got.timeouts, 0) << fc.name;
      EXPECT_EQ(got.dups, 0) << fc.name;
    } else if (std::string(fc.name) == "msg_dup") {
      EXPECT_GT(got.dups, 0) << fc.name;
      EXPECT_EQ(got.drops, 0) << fc.name;
    } else {
      // Bandwidth/compute degradation: strictly slower blocking window.
      EXPECT_GT(got.blocking_seconds,
                (nic ? base_flat : base).blocking_seconds)
          << fc.name;
      EXPECT_EQ(got.drops + got.dups + got.retransmits + got.timeouts, 0)
          << fc.name;
    }
  }
}

// ---------------------------------------------------------------------------
// The width battery: every fault class, every sparse method, bit-identical
// measurements (clocks, counters, fault stats) at widths {1, 2, 4, 7}.
// measure_pattern's payload check doubles as the proof that faulted
// runs still deliver the exact fault-free bytes.

TEST(FaultWidths, SparseMethodsAreWidthIdentical) {
  const Machine m = test_machine();
  const Workload wl = patterns::generate(
      "random_sparse", m, {.values = 6, .seed = 9, .overlap_seconds = 2e-5});
  for (const FaultCase& fc : fault_cases()) {
    for (mpix::Method method : mpix::kAllMethods) {
      MeasureConfig cfg = fault_config();
      cfg.faults = &fc.plan;
      if (fc.reliable) {
        cfg.reliability.enabled = true;
        cfg.reliability.timeout = 5e-4;
      }
      cfg.threads = 1;
      const std::string what =
          std::string(fc.name) + " / " + mpix::to_string(method);
      const PatternMeasurement ref = harness::measure_pattern(wl, method, cfg);
      for (int w : kWidths) {
        if (w == 1) continue;
        cfg.threads = w;
        expect_identical(ref, harness::measure_pattern(wl, method, cfg), what);
      }
    }
  }
}

/// The dense half of the battery: every dense method, including Bruck,
/// whose rotation rounds wrap their send and receive independently.
TEST(FaultWidths, DenseMethodsAreWidthIdentical) {
  const Machine m = test_machine();
  const Workload wl = patterns::generate(
      "incast", m, {.values = 16, .seed = 9, .fan_in = 6});
  for (const FaultCase& fc : fault_cases()) {
    for (mpix::AlltoallMethod method : mpix::kAllAlltoallMethods) {
      MeasureConfig cfg = fault_config();
      cfg.faults = &fc.plan;
      if (fc.reliable) {
        cfg.reliability.enabled = true;
        cfg.reliability.timeout = 5e-4;
      }
      cfg.threads = 1;
      const std::string what =
          std::string(fc.name) + " / " + mpix::to_string(method);
      const PatternMeasurement ref =
          harness::measure_pattern_dense(wl, method, cfg);
      for (int w : kWidths) {
        if (w == 1) continue;
        cfg.threads = w;
        expect_identical(ref, harness::measure_pattern_dense(wl, method, cfg),
                         what);
      }
    }
  }
}
