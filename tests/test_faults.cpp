/// \file test_faults.cpp
/// \brief Fault injection and reliable delivery: schedule validation,
/// counter-mode hash determinism, the quiescence watchdog, byte-inertness
/// of no-op plans, timeout/retransmit semantics, and the width-determinism
/// battery — both fault classes, through every sparse and every dense
/// method, bit-identical at sim widths {1, 2, 4, 7}.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
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

/// 4:1-tapered two-leaf fat tree with the link cap charged: the shape both
/// fault classes can act on (brownouts need link tiers).
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
  EXPECT_EQ(a.retransmits, b.retransmits) << what;
  EXPECT_EQ(a.timeouts, b.timeouts) << what;
}

/// One entry per fault class of the width battery.  Drops run with
/// reliable delivery enabled — without it a drop deadlocks (that path is
/// the watchdog test).
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
      {"link_brownout",
       {.events = {{.kind = Kind::link_brownout, .severity = 0.5}}},
       false},
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// Schedule validation: every malformed field throws a SimError naming the
// field and the offending value.

TEST(FaultValidation, RejectsOutOfRangeFields) {
  auto reject = [](FaultSpec e) {
    return error_of([&] { simmpi::validate_fault_plan({.events = {e}}); });
  };

  std::string msg = reject({.kind = Kind::msg_drop, .rate = -0.1});
  expect_contains(msg, "events[0].rate");
  expect_contains(msg, "in [0, 1]");
  expect_contains(msg, "-0.1");

  msg = reject({.kind = Kind::msg_drop, .rate = 1.5});
  expect_contains(msg, "events[0].rate");

  msg = reject({.kind = Kind::link_brownout, .severity = 0.0});
  expect_contains(msg, "events[0].severity");
  expect_contains(msg, "in (0, 1]");

  msg = reject({.kind = Kind::link_brownout, .severity = 2.0});
  expect_contains(msg, "events[0].severity");
}

TEST(FaultValidation, RejectsRepeatedKind) {
  // Every event applies to the whole run, so two of one kind would stack
  // ambiguously.
  std::string msg = error_of([&] {
    simmpi::validate_fault_plan(
        {.events = {{.kind = Kind::msg_drop, .rate = 0.5},
                    {.kind = Kind::link_brownout, .severity = 0.5},
                    {.kind = Kind::msg_drop, .rate = 0.2}}});
  });
  expect_contains(msg, "events[0] and events[2]");
  expect_contains(msg, "repeat kind msg_drop");

  msg = error_of([&] {
    simmpi::validate_fault_plan(
        {.events = {{.kind = Kind::link_brownout, .severity = 0.5},
                    {.kind = Kind::link_brownout, .severity = 0.25}}});
  });
  expect_contains(msg, "repeat kind link_brownout");

  // One event of each kind is fine.
  EXPECT_NO_THROW(simmpi::validate_fault_plan(
      {.events = {{.kind = Kind::msg_drop, .rate = 0.5},
                  {.kind = Kind::link_brownout, .severity = 0.5}}}));
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

  // Severity 1.0 is a no-op: accepted even without the cap.
  EXPECT_NO_THROW(flat.set_fault_plan(
      {.events = {{.kind = Kind::link_brownout, .severity = 1.0}}}));
}

TEST(FaultValidation, ReliabilityKnobsAreRangeChecked) {
  mpix::Reliability rel;
  rel.timeout = 0.0;
  expect_contains(error_of([&] { mpix::impl::validate_reliability(rel); }),
                  "Reliability::timeout must be > 0");
  EXPECT_NO_THROW(mpix::impl::validate_reliability({}));

  // The public entry points check the knobs before any plan build
  // communicates: a bad knob fails with zero messages sent, even for the
  // methods whose setup is collective.
  const Machine m = test_machine();
  mpix::Options bad;
  bad.reliability = {.enabled = true, .timeout = 0.0};
  for (const bool dense : {false, true}) {
    simmpi::Engine eng(m, simmpi::CostParams::lassen(), {.threads = 1});
    const std::string msg = error_of([&] {
      eng.run([&](Context& ctx) -> Task<> {
        const int p = ctx.world().size();
        const int r = ctx.rank();
        std::vector<double> out(p, r), in(p);
        mpix::AlltoallvArgs args;
        if (dense) {
          args.sendbuf = std::as_bytes(std::span<const double>(out));
          args.recvbuf = std::as_writable_bytes(std::span<double>(in));
          args.sendcounts = args.recvcounts = std::vector<int>(p, 1);
          args.sdispls.resize(p);
          std::iota(args.sdispls.begin(), args.sdispls.end(), 0);
          args.rdispls = args.sdispls;
          co_await mpix::alltoallv_init(ctx, ctx.world(), args,
                                        mpix::AlltoallMethod::bruck, bad);
        } else {
          simmpi::DistGraph g;
          g.comm = ctx.world();
          g.destinations.push_back((r + 1) % p);
          g.sources.push_back((r + p - 1) % p);
          args.sendbuf = std::as_bytes(std::span<const double>(out).first(1));
          args.recvbuf = std::as_writable_bytes(std::span<double>(in).first(1));
          args.sendcounts = args.recvcounts = {1};
          args.sdispls = args.rdispls = {0};
          co_await mpix::neighbor_alltoallv_init(ctx, g, args,
                                                 mpix::Method::locality, bad);
        }
      });
    });
    expect_contains(msg, "Reliability::timeout must be > 0");
    for (int r = 0; r < m.num_ranks(); ++r)
      EXPECT_EQ(eng.stats(r).total_msgs(), 0u)
          << (dense ? "bruck" : "locality") << " rank " << r;
  }
}

// ---------------------------------------------------------------------------
// The counter-mode hash underlying drop decisions.

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
      {.seed = 1, .events = {{.kind = Kind::msg_drop, .rate = 1.0}}});

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
                 {.kind = Kind::link_brownout, .severity = 1.0}}};
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
  const mpix::Reliability rel{.enabled = true, .timeout = 1e-4};

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
  expect_contains(msg, "after 16 retransmits");
}

// ---------------------------------------------------------------------------
// Stale sequences: a data message carrying an already-acknowledged
// sequence number is discarded, and the exchange still delivers the
// current payload.  No fault produces one on its own here, so the sender
// posts it by hand on the wrapped channel's data tag.

TEST(FaultReliability, StaleSequenceIsDiscarded) {
  const Machine m({.num_nodes = 2, .regions_per_node = 1,
                   .ranks_per_region = 1, .switch_levels = {}});
  simmpi::Engine eng(m, simmpi::CostParams::lassen(), {.threads = 1});
  const mpix::Reliability rel{.enabled = true, .timeout = 1e-3};
  constexpr int kDataTag = 11;
  std::vector<double> got(2, 0.0);  // rank 1's payload after each exchange

  auto program = [&](Context& ctx) -> Task<> {
    double val = 0.0;
    const auto bytes = std::as_writable_bytes(std::span<double>(&val, 1));
    mpix::impl::ChannelSet set(ctx.world(), rel, 12);
    if (ctx.rank() == 0) set.send(bytes, 1, kDataTag);
    if (ctx.rank() == 1) set.recv(bytes, 0, kDataTag);
    for (int it = 0; it < 2; ++it) {
      if (ctx.rank() == 0) {
        val = 10.0 + it;
        if (it == 1) {
          // Sequence 1 was acknowledged by the first exchange.
          const std::uint32_t seq = 1;
          const double old = -1.0;
          std::vector<std::byte> stale(8 + sizeof(old));
          std::memcpy(stale.data(), &seq, sizeof(seq));
          std::memcpy(stale.data() + 8, &old, sizeof(old));
          auto s = simmpi::Request::send(ctx.world(), stale, 1, kDataTag);
          s.start(ctx);
          co_await ctx.wait(s);
        }
      }
      set.start(ctx);
      co_await set.finish(ctx);
      if (ctx.rank() == 1) got[it] = val;
    }
  };
  // A stale message left unconsumed would fail the run with "posted but
  // never received".
  EXPECT_NO_THROW(eng.run(program));
  EXPECT_EQ(got[0], 10.0);
  EXPECT_EQ(got[1], 11.0);
  EXPECT_EQ(eng.stats(0).faults.retransmits, 0u);
}

// ---------------------------------------------------------------------------
// Stale acks: the receiver acknowledges each sequence once and acks are
// never dropped, so an ack for an earlier sequence can only come from a
// broken peer and must fail the run.  No fault produces one, so the
// receiver posts it by hand on the ack tag before the second exchange.

TEST(FaultReliability, StaleAckIsAnError) {
  const Machine m({.num_nodes = 2, .regions_per_node = 1,
                   .ranks_per_region = 1, .switch_levels = {}});
  simmpi::Engine eng(m, simmpi::CostParams::lassen(), {.threads = 1});
  const mpix::Reliability rel{.enabled = true, .timeout = 1e-3};
  constexpr int kDataTag = 11;
  constexpr int kAckTag = 12;

  const std::string msg = error_of([&] {
    eng.run([&](Context& ctx) -> Task<> {
      double val = 0.0;
      const auto bytes = std::as_writable_bytes(std::span<double>(&val, 1));
      mpix::impl::ChannelSet set(ctx.world(), rel, kAckTag);
      if (ctx.rank() == 0) set.send(bytes, 1, kDataTag);
      if (ctx.rank() == 1) set.recv(bytes, 0, kDataTag);
      for (int it = 0; it < 2; ++it) {
        if (ctx.rank() == 1 && it == 1) {
          // Sequence 1 was acknowledged by the first exchange.
          std::vector<std::byte> ack(8);
          const std::uint32_t seq = 1;
          std::memcpy(ack.data(), &seq, sizeof(seq));
          auto s = simmpi::Request::send(ctx.world(), ack, 0, kAckTag);
          s.set_control(true);
          s.start(ctx);
          co_await ctx.wait(s);
        }
        set.start(ctx);
        co_await set.finish(ctx);
      }
    });
  });
  expect_contains(msg, "reliable send rank 0");
  expect_contains(msg, "ack for seq 1 (current 2)");
}

// ---------------------------------------------------------------------------
// Fault effects: each class observably perturbs a measurement (and the
// drop counters surface in PatternMeasurement), while
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
  EXPECT_EQ(base.drops + base.retransmits + base.timeouts, 0);

  for (const FaultCase& fc : fault_cases()) {
    MeasureConfig fcfg = cfg;
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
    } else {
      // Bandwidth degradation: strictly slower blocking window.
      EXPECT_GT(got.blocking_seconds, base.blocking_seconds) << fc.name;
      EXPECT_EQ(got.drops + got.retransmits + got.timeouts, 0) << fc.name;
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
