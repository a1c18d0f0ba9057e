/// \file test_patterns.cpp
/// \brief The patterns workload-generator layer: registry, adjacency
/// consistency, payload delivery through every mpix method, endpoint
/// congestion (incast fan-in monotonicity) and overlap windows.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <type_traits>

#include "harness/measure.hpp"
#include "mpix/alltoall.hpp"
#include "patterns/pattern.hpp"
#include "simmpi/dist_graph.hpp"
#include "simmpi/engine.hpp"

using harness::MeasureConfig;
using harness::PatternMeasurement;
using patterns::PatternParams;
using patterns::Workload;
using simmpi::Machine;

namespace {

Machine small_machine() {
  return Machine({.num_nodes = 4, .regions_per_node = 1,
                  .ranks_per_region = 4});
}

MeasureConfig small_cfg() {
  MeasureConfig cfg;
  cfg.ranks_per_region = 4;
  return cfg;
}

}  // namespace

TEST(Patterns, RegistryHasAtLeastFivePatterns) {
  const auto specs = patterns::registry();
  EXPECT_GE(specs.size(), 5u);
  std::set<std::string> names;
  for (const auto& s : specs) {
    EXPECT_NE(s.name, nullptr);
    EXPECT_NE(s.description, nullptr);
    EXPECT_NE(s.make, nullptr);
    names.insert(s.name);
    EXPECT_EQ(patterns::find(s.name), &s);
  }
  EXPECT_EQ(names.size(), specs.size()) << "duplicate pattern names";
  EXPECT_EQ(patterns::find("no_such_pattern"), nullptr);
  EXPECT_THROW(patterns::generate("no_such_pattern", small_machine()),
               simmpi::SimError);
}

/// Every pattern must emit globally consistent adjacency: ascending unique
/// neighbor lists, exclusive-prefix displacements, and matching send/recv
/// sides of every directed edge.
TEST(Patterns, AdjacencyIsConsistentAcrossRanks) {
  const Machine m = small_machine();
  for (const auto& spec : patterns::registry()) {
    const Workload wl = spec.make(m, PatternParams{});
    ASSERT_EQ(wl.nranks, m.num_ranks()) << spec.name;
    ASSERT_EQ(static_cast<int>(wl.ranks.size()), wl.nranks) << spec.name;
    long total_sent = 0, total_recv = 0, total_edges = 0;
    for (int r = 0; r < wl.nranks; ++r) {
      const auto& ex = wl.ranks[r];
      ASSERT_EQ(ex.destinations.size(), ex.sendcounts.size()) << spec.name;
      ASSERT_EQ(ex.destinations.size(), ex.sdispls.size()) << spec.name;
      ASSERT_EQ(ex.sources.size(), ex.recvcounts.size()) << spec.name;
      ASSERT_EQ(ex.sources.size(), ex.rdispls.size()) << spec.name;
      EXPECT_TRUE(std::is_sorted(ex.destinations.begin(),
                                 ex.destinations.end()))
          << spec.name;
      EXPECT_TRUE(std::is_sorted(ex.sources.begin(), ex.sources.end()))
          << spec.name;
      EXPECT_EQ(std::adjacent_find(ex.destinations.begin(),
                                   ex.destinations.end()),
                ex.destinations.end())
          << spec.name << ": duplicate destination on rank " << r;
      int off = 0;
      for (std::size_t i = 0; i < ex.destinations.size(); ++i) {
        EXPECT_GE(ex.destinations[i], 0) << spec.name;
        EXPECT_LT(ex.destinations[i], wl.nranks) << spec.name;
        EXPECT_GT(ex.sendcounts[i], 0) << spec.name;
        EXPECT_EQ(ex.sdispls[i], off) << spec.name;
        off += ex.sendcounts[i];
      }
      off = 0;
      for (std::size_t i = 0; i < ex.sources.size(); ++i) {
        EXPECT_GT(ex.recvcounts[i], 0) << spec.name;
        EXPECT_EQ(ex.rdispls[i], off) << spec.name;
        off += ex.recvcounts[i];
      }
      total_sent += ex.send_values();
      total_recv += ex.recv_values();
      total_edges += static_cast<long>(ex.destinations.size());

      // Each send segment has a matching recv segment on its destination.
      for (std::size_t i = 0; i < ex.destinations.size(); ++i) {
        const auto& dx = wl.ranks[ex.destinations[i]];
        const auto it =
            std::find(dx.sources.begin(), dx.sources.end(), r);
        ASSERT_NE(it, dx.sources.end())
            << spec.name << ": edge " << r << "->" << ex.destinations[i]
            << " missing on the receive side";
        const auto k = static_cast<std::size_t>(it - dx.sources.begin());
        EXPECT_EQ(dx.recvcounts[k], ex.sendcounts[i]) << spec.name;
      }
    }
    EXPECT_EQ(total_sent, total_recv) << spec.name;
    EXPECT_GT(total_edges, 0) << spec.name << ": empty workload";
  }
}

TEST(Patterns, GenerationIsDeterministicAndSeedSensitive) {
  const Machine m = small_machine();
  for (const auto& spec : patterns::registry()) {
    const Workload a = spec.make(m, PatternParams{.seed = 7});
    const Workload b = spec.make(m, PatternParams{.seed = 7});
    EXPECT_EQ(a.ranks, b.ranks) << spec.name;
  }
  // The random pattern must actually respond to the seed.
  const Workload s1 = patterns::generate("random_sparse", m, {.seed = 1});
  const Workload s2 = patterns::generate("random_sparse", m, {.seed = 2});
  EXPECT_NE(s1.ranks, s2.ranks);
}

/// Tentpole acceptance: every registered pattern runs through every sparse
/// neighbor method with byte-verified delivery (the pattern runner throws
/// on the first bad byte).
TEST(Patterns, AllPatternsRunThroughAllNeighborMethods) {
  const Machine m = small_machine();
  MeasureConfig cfg = small_cfg();
  for (const auto& spec : patterns::registry()) {
    const Workload wl = spec.make(m, PatternParams{.values = 6, .seed = 5});
    for (mpix::Method method : mpix::kAllMethods) {
      const PatternMeasurement pm = harness::measure_pattern(wl, method, cfg);
      EXPECT_GT(pm.init_seconds, 0.0)
          << spec.name << " " << mpix::to_string(method);
      EXPECT_GT(pm.blocking_seconds, 0.0)
          << spec.name << " " << mpix::to_string(method);
      EXPECT_GT(pm.sum_local_msgs + pm.sum_global_msgs, 0)
          << spec.name << " " << mpix::to_string(method);
    }
  }
}

/// And through every dense alltoallv method (counts expanded per rank).
TEST(Patterns, PatternsRunThroughDenseMethods) {
  const Machine m = small_machine();
  MeasureConfig cfg = small_cfg();
  for (const char* name : {"incast", "stencil2d5", "bursty_io"}) {
    const Workload wl = patterns::generate(name, m, {.values = 4, .seed = 5});
    for (mpix::AlltoallMethod method : mpix::kAllAlltoallMethods) {
      const PatternMeasurement pm =
          harness::measure_pattern_dense(wl, method, cfg);
      EXPECT_GT(pm.blocking_seconds, 0.0)
          << name << " " << mpix::to_string(method);
    }
  }
}

/// Acceptance criterion: with the endpoint-congestion term enabled, incast
/// completion time is monotonically non-decreasing in the fan-in — and
/// strictly increasing once the extra senders are rendezvous-sized network
/// flows queueing at the sink's NIC.
TEST(Patterns, IncastCompletionMonotoneInFanIn) {
  const Machine m({.num_nodes = 16, .regions_per_node = 1,
                   .ranks_per_region = 2});
  MeasureConfig cfg;
  cfg.ranks_per_region = 2;
  cfg.cost.use_ejection_cap = true;
  cfg.cost.nic_eject_rate = 1.0e9;  // make the queue the bottleneck
  double prev = 0.0;
  double first = 0.0, last = 0.0;
  for (int fan_in : {1, 4, 8, 16, 31}) {
    const Workload wl = patterns::generate(
        "incast", m, {.values = 4096, .fan_in = fan_in, .sinks = 1});
    const PatternMeasurement pm =
        harness::measure_pattern(wl, mpix::Method::standard, cfg);
    EXPECT_GE(pm.blocking_seconds, prev) << "fan_in " << fan_in;
    prev = pm.blocking_seconds;
    if (fan_in == 1) first = pm.blocking_seconds;
    last = pm.blocking_seconds;
  }
  EXPECT_GT(last, first) << "31 senders must queue longer than 1";
}

/// The same incast without the ejection cap must complete no later than
/// with it — the term only ever delays arrivals.
TEST(Patterns, EjectionCapOnlyDelays) {
  const Machine m({.num_nodes = 16, .regions_per_node = 1,
                   .ranks_per_region = 2});
  const Workload wl = patterns::generate(
      "incast", m, {.values = 4096, .fan_in = 31, .sinks = 1});
  MeasureConfig cfg;
  cfg.ranks_per_region = 2;
  cfg.cost.use_ejection_cap = false;
  const double off =
      harness::measure_pattern(wl, mpix::Method::standard, cfg)
          .blocking_seconds;
  cfg.cost.use_ejection_cap = true;
  cfg.cost.nic_eject_rate = 1.0e9;
  const double on =
      harness::measure_pattern(wl, mpix::Method::standard, cfg)
          .blocking_seconds;
  EXPECT_GT(on, off);
}

/// Acceptance criterion: an overlap-window pattern shows overlapped <
/// blocking simulated wall time — the compute hides transfer time.
TEST(Patterns, OverlapWindowBeatsBlocking) {
  const Machine m = small_machine();
  MeasureConfig cfg = small_cfg();
  const Workload wl = patterns::generate(
      "ring_overlap", m, {.values = 8192, .overlap_seconds = 5.0e-5});
  ASSERT_DOUBLE_EQ(wl.overlap_seconds, 5.0e-5);
  for (mpix::Method method : mpix::kAllMethods) {
    const PatternMeasurement pm = harness::measure_pattern(wl, method, cfg);
    EXPECT_LT(pm.overlapped_seconds, pm.blocking_seconds)
        << mpix::to_string(method);
    // The blocking window serializes communication and compute, so it is
    // at least the window itself plus some communication time.
    EXPECT_GT(pm.blocking_seconds, wl.overlap_seconds);
    EXPECT_GE(pm.overlapped_seconds, wl.overlap_seconds);
  }
}

/// Patterns with no explicit window still default sensibly: ring_overlap
/// carries its own default, everything else runs with a zero window and
/// identical blocking/overlapped times.
TEST(Patterns, ZeroWindowMakesWindowsEqual) {
  const Machine m = small_machine();
  MeasureConfig cfg = small_cfg();
  const Workload wl =
      patterns::generate("stencil2d5", m, {.values = 16, .seed = 2});
  EXPECT_EQ(wl.overlap_seconds, 0.0);
  const PatternMeasurement pm =
      harness::measure_pattern(wl, mpix::Method::locality, cfg);
  // The two windows run the identical communication; they are only
  // near-equal (not bitwise) because the phase alignment entering each
  // window differs, which shifts the queue-search receive overheads.
  EXPECT_NEAR(pm.blocking_seconds, pm.overlapped_seconds,
              0.05 * pm.blocking_seconds);
}

/// Engine-level compute accounting: Context::compute advances the clock
/// and the per-rank stats symmetrically, and sync_reset clears both.
TEST(Patterns, ComputeSecondsAreAccounted) {
  simmpi::Engine eng(small_machine(), simmpi::CostParams::lassen());
  eng.run([&](simmpi::Context& ctx) -> simmpi::Task<> {
    ctx.compute(1.25e-3);
    ctx.compute(0.75e-3);
    co_return;
  });
  for (int r = 0; r < eng.machine().num_ranks(); ++r) {
    EXPECT_DOUBLE_EQ(eng.stats(r).compute_seconds, 2.0e-3) << r;
    EXPECT_DOUBLE_EQ(eng.clock(r), 2.0e-3) << r;
  }
  eng.run([&](simmpi::Context& ctx) -> simmpi::Task<> {
    co_await ctx.engine().sync_reset(ctx);
    ctx.compute(1.0e-4);
    co_return;
  });
  for (int r = 0; r < eng.machine().num_ranks(); ++r)
    EXPECT_DOUBLE_EQ(eng.stats(r).compute_seconds, 1.0e-4) << r;
}

/// MeasureConfig::regions_per_node reaches the simulated machine: packing
/// two regions per node keeps ranks 1..7 on the sink's node, so only 8 of
/// the 15 incast flows queue at its NIC instead of 12 — the congested
/// completion time must drop accordingly.
TEST(Patterns, MultiRegionNodesDrainIncastFaster) {
  PatternParams p{.values = 4096, .fan_in = 0, .sinks = 1};
  MeasureConfig cfg;
  cfg.ranks_per_region = 4;
  cfg.cost.use_ejection_cap = true;
  cfg.cost.nic_eject_rate = 1.0e9;
  cfg.regions_per_node = 1;
  const Machine flat({.num_nodes = 4, .regions_per_node = 1,
                      .ranks_per_region = 4});
  const double wan =
      harness::measure_pattern(patterns::generate("incast", flat, p),
                               mpix::Method::standard, cfg)
          .blocking_seconds;
  cfg.regions_per_node = 2;
  const Machine fat({.num_nodes = 2, .regions_per_node = 2,
                     .ranks_per_region = 4});
  const double lan =
      harness::measure_pattern(patterns::generate("incast", fat, p),
                               mpix::Method::standard, cfg)
          .blocking_seconds;
  EXPECT_LT(lan, wan);
}

TEST(Patterns, MeasureRejectsIndivisibleMultiRegionShape) {
  MeasureConfig cfg;
  cfg.ranks_per_region = 4;
  cfg.regions_per_node = 2;
  const Machine m({.num_nodes = 3, .regions_per_node = 1,
                   .ranks_per_region = 4});  // 12 ranks, not % 8
  const Workload wl = patterns::generate("stencil2d5", m, {});
  EXPECT_THROW(harness::measure_pattern(wl, mpix::Method::standard, cfg),
               simmpi::SimError);
}

TEST(Patterns, UniformDenseSendsEveryRankSelfIncluded) {
  const Workload wl = patterns::uniform_dense(small_machine(), {.values = 3});
  ASSERT_EQ(wl.nranks, 16);
  std::vector<int> all(16);
  std::iota(all.begin(), all.end(), 0);
  for (const patterns::RankExchange& ex : wl.ranks) {
    EXPECT_EQ(ex.destinations, all);
    EXPECT_EQ(ex.sources, all);
    EXPECT_EQ(ex.sendcounts, std::vector<int>(16, 3));
    EXPECT_EQ(ex.recvcounts, std::vector<int>(16, 3));
  }
  // Not a registry entry: the registry sweeps keep their point sets.
  EXPECT_EQ(patterns::find("uniform_dense"), nullptr);
}

TEST(Patterns, UniformDenseThroughTheDenseRunner) {
  // P = 24 ranks in R = 6 regions of 4: standard sends P^2 - sum |region|^2
  // network messages, node_aggregated R(R-1), bruck R * ceil(log2 R).
  MeasureConfig cfg = small_cfg();  // the runner checks every byte
  const Workload wl =
      patterns::uniform_dense(harness::machine_for(24, cfg), {.values = 2});
  const long expected[] = {24 * 24 - 6 * 4 * 4, 6 * 5, 6 * 3};
  for (int mi = 0; mi < 3; ++mi) {
    const mpix::AlltoallMethod method = mpix::kAllAlltoallMethods[mi];
    const PatternMeasurement got =
        harness::measure_pattern_dense(wl, method, cfg);
    EXPECT_EQ(got.sum_global_msgs, expected[mi]) << mpix::to_string(method);
    EXPECT_GT(got.blocking_seconds, 0.0) << mpix::to_string(method);
  }
}

namespace {

/// Run one start/wait window of `method` over `wl` and hold each rank's
/// NeighborStats to what the engine counted that rank posting in the
/// window: local counters against the self and region tiers, global ones
/// against the node and network tiers (sync_reset clears the engine's
/// counters, so they hold the window alone).
template <class M>
void expect_stats_match_posted(const Workload& wl, const Machine& machine,
                               M method, const std::string& what) {
  constexpr bool dense = std::is_same_v<M, mpix::AlltoallMethod>;
  constexpr std::size_t es = 12;
  simmpi::Engine eng(machine, simmpi::CostParams::lassen());
  std::vector<mpix::NeighborStats> stats(wl.nranks);
  eng.run([&](simmpi::Context& ctx) -> simmpi::Task<> {
    const int r = ctx.rank();
    patterns::RankBuffers buf = patterns::make_buffers(wl, r, es);
    mpix::AlltoallvArgs args = dense
                                   ? patterns::dense_args_view(wl, r, buf, es)
                                   : patterns::args_view(wl, r, buf, es);
    std::unique_ptr<mpix::NeighborAlltoallv> coll;
    if constexpr (dense) {
      coll = co_await mpix::alltoallv_init(ctx, ctx.world(), std::move(args),
                                           method);
    } else {
      const patterns::RankExchange& ex = wl.ranks[r];
      simmpi::DistGraph g = co_await simmpi::dist_graph_create_adjacent(
          ctx, ctx.world(), ex.sources, ex.destinations,
          simmpi::GraphAlgo::handshake);
      coll = co_await mpix::neighbor_alltoallv_init(ctx, g, std::move(args),
                                                    method);
    }
    stats[r] = coll->stats();
    co_await ctx.engine().sync_reset(ctx);
    co_await coll->start(ctx);
    co_await coll->wait(ctx);
    EXPECT_EQ(patterns::verify_recv(wl, r, buf, es), 0)
        << what << " rank " << r;
  });
  for (int r = 0; r < wl.nranks; ++r) {
    const auto& tier = eng.stats(r).tier;
    const auto sum = [&](simmpi::Locality a, simmpi::Locality b) {
      return simmpi::Engine::TierStats{
          tier[static_cast<int>(a)].msgs + tier[static_cast<int>(b)].msgs,
          tier[static_cast<int>(a)].bytes + tier[static_cast<int>(b)].bytes};
    };
    const auto local = sum(simmpi::Locality::self, simmpi::Locality::region);
    const auto global = sum(simmpi::Locality::node, simmpi::Locality::network);
    const mpix::NeighborStats& s = stats[r];
    EXPECT_EQ(static_cast<std::uint64_t>(s.local_msgs), local.msgs)
        << what << " rank " << r;
    EXPECT_EQ(static_cast<std::uint64_t>(s.local_values) * es, local.bytes)
        << what << " rank " << r;
    EXPECT_EQ(static_cast<std::uint64_t>(s.global_msgs), global.msgs)
        << what << " rank " << r;
    EXPECT_EQ(static_cast<std::uint64_t>(s.global_values) * es, global.bytes)
        << what << " rank " << r;
  }
}

}  // namespace

/// The counters every method reports count exactly the messages it posts,
/// on one and two regions per node and on a two-level switch tree, with
/// self sends (bursty_io) and, on the dense path, zero-count pairs.
TEST(Patterns, StatsCountWhatEveryMethodPosts) {
  const Machine shapes[] = {
      Machine({.num_nodes = 4, .regions_per_node = 1, .ranks_per_region = 4}),
      Machine({.num_nodes = 3, .regions_per_node = 2, .ranks_per_region = 2}),
      Machine({.num_nodes = 8,
               .regions_per_node = 1,
               .ranks_per_region = 2,
               .switch_levels = {{.radix = 2}, {.radix = 4}}}),
  };
  for (const Machine& m : shapes) {
    for (const char* name :
         {"bursty_io", "random_sparse", "stencil2d9", "incast"}) {
      const Workload wl = patterns::generate(name, m, {.values = 3});
      const std::string shape =
          std::string(name) + " on " + std::to_string(m.num_nodes()) +
          " nodes of " + std::to_string(m.config().regions_per_node) +
          " regions, ";
      for (mpix::Method method : mpix::kAllMethods)
        expect_stats_match_posted(wl, m, method,
                                  shape + mpix::to_string(method));
      for (mpix::AlltoallMethod method : mpix::kAllAlltoallMethods)
        expect_stats_match_posted(wl, m, method,
                                  shape + mpix::to_string(method));
    }
  }
}
