/// \file test_pattern_widths.cpp
/// \brief Determinism contract for the patterns subsystem: every
/// registered pattern's measurement — payload bytes, NeighborStats
/// aggregates and virtual clocks — is bit-identical at sim widths
/// {1, 2, 4, 7}, and delivered buffers match a host-side reference
/// computed without the engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "harness/measure.hpp"
#include "patterns/pattern.hpp"
#include "simmpi/dist_graph.hpp"
#include "simmpi/engine.hpp"

using harness::MeasureConfig;
using harness::PatternMeasurement;
using patterns::PatternParams;
using patterns::Workload;
using simmpi::Machine;

namespace {

constexpr int kWidths[] = {1, 2, 4, 7};

Machine test_machine() {
  return Machine({.num_nodes = 4, .regions_per_node = 1,
                  .ranks_per_region = 4, .switch_levels = {}});
}

/// Exact (bitwise) equality of two measurements; doubles compared with ==
/// on purpose — the contract is bit-identity, not tolerance.
void expect_identical(const PatternMeasurement& a, const PatternMeasurement& b,
                      const char* what) {
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
}

/// 4:1-tapered two-leaf fat tree over the 4-node test machine, with the
/// shared-link queues charged: the contention arithmetic must be as
/// width-free as the rest of the model.
MeasureConfig link_capped_config() {
  MeasureConfig cfg;
  cfg.ranks_per_region = 4;
  cfg.switch_levels = {{.radix = 2, .taper = 4.0}, {.radix = 2, .taper = 1.0}};
  cfg.cost.use_link_cap = true;
  cfg.cost.link_msg_bytes = 256.0;
  return cfg;
}

}  // namespace

/// Every pattern, every sparse method, every width: one measurement.
/// measure_pattern's payload check already byte-checks delivery, so
/// equal measurements at all widths close the contract for the subsystem.
TEST(PatternWidths, EveryPatternIsWidthIdentical) {
  const Machine m = test_machine();
  for (const auto& spec : patterns::registry()) {
    const Workload wl = spec.make(m, PatternParams{.values = 6, .seed = 9});
    for (mpix::Method method : mpix::kAllMethods) {
      MeasureConfig cfg;
      cfg.ranks_per_region = 4;
      cfg.cost.use_ejection_cap = true;  // new model term must also hold
      cfg.threads = 1;
      const PatternMeasurement ref =
          harness::measure_pattern(wl, method, cfg);
      for (int w : kWidths) {
        if (w == 1) continue;
        cfg.threads = w;
        const PatternMeasurement got =
            harness::measure_pattern(wl, method, cfg);
        expect_identical(ref, got, spec.name);
      }
    }
  }
}

/// The dense path at every width, for the patterns the dense methods care
/// about (incast is the all-to-many shape of the related benchmarks).
TEST(PatternWidths, DensePathIsWidthIdentical) {
  const Machine m = test_machine();
  const Workload wl =
      patterns::generate("incast", m, {.values = 16, .fan_in = 6});
  for (mpix::AlltoallMethod method : mpix::kAllAlltoallMethods) {
    MeasureConfig cfg;
    cfg.ranks_per_region = 4;
    cfg.threads = 1;
    const PatternMeasurement ref =
        harness::measure_pattern_dense(wl, method, cfg);
    for (int w : kWidths) {
      if (w == 1) continue;
      cfg.threads = w;
      expect_identical(ref, harness::measure_pattern_dense(wl, method, cfg),
                       mpix::to_string(method));
    }
  }
}

/// The shared-link queues are charged only in the single-threaded commit
/// step, so their clocks and counters must also be bit-identical at every
/// width — for every pattern, every sparse method, and the dense paths.
TEST(PatternWidths, LinkCapIsWidthIdentical) {
  const Machine m = test_machine();
  for (const auto& spec : patterns::registry()) {
    const Workload wl = spec.make(m, PatternParams{.values = 6, .seed = 9});
    for (mpix::Method method : mpix::kAllMethods) {
      MeasureConfig cfg = link_capped_config();
      cfg.threads = 1;
      const PatternMeasurement ref =
          harness::measure_pattern(wl, method, cfg);
      // The capped run must actually exercise the queues (every pattern
      // has at least one leaf-boundary crossing on this machine).
      double busy = 0.0;
      for (double v : ref.link_seconds) busy += v;
      EXPECT_GT(busy, 0.0) << spec.name;
      for (int w : kWidths) {
        if (w == 1) continue;
        cfg.threads = w;
        expect_identical(ref, harness::measure_pattern(wl, method, cfg),
                         spec.name);
      }
    }
    for (mpix::AlltoallMethod method : mpix::kAllAlltoallMethods) {
      MeasureConfig cfg = link_capped_config();
      cfg.threads = 1;
      const PatternMeasurement ref =
          harness::measure_pattern_dense(wl, method, cfg);
      for (int w : kWidths) {
        if (w == 1) continue;
        cfg.threads = w;
        expect_identical(ref,
                         harness::measure_pattern_dense(wl, method, cfg),
                         spec.name);
      }
    }
  }
}

/// Host-reference byte comparison: the engine-delivered receive buffers of
/// the incast and stencil patterns must equal buffers computed on the host
/// from the gid scheme alone, byte for byte, at every width.
TEST(PatternWidths, DeliveredBytesMatchHostReference) {
  const Machine m = test_machine();
  for (const char* name : {"incast", "stencil2d9", "stencil3d7"}) {
    const Workload wl = patterns::generate(name, m, {.values = 5, .seed = 11});
    const int p = wl.nranks;

    // Host reference: what every rank must receive, no engine involved.
    std::vector<std::vector<std::byte>> expected(p);
    for (int r = 0; r < p; ++r) {
      patterns::RankBuffers b = patterns::make_buffers(wl, r);
      expected[r].resize(b.recv_gids.size() * sizeof(double));
      for (std::size_t k = 0; k < b.recv_gids.size(); ++k)
        for (std::size_t i = 0; i < sizeof(double); ++i)
          expected[r][k * sizeof(double) + i] =
              patterns::payload_byte(b.recv_gids[k], i);
    }

    // Once on the flat machine, once through the 4:1-tapered tree with
    // link contention charged: queueing reorders arrival *times*, never
    // payload routing, so the delivered bytes must not change.
    simmpi::MachineConfig tree_cfg = test_machine().config();
    tree_cfg.switch_levels = {{.radix = 2, .taper = 4.0},
                              {.radix = 2, .taper = 1.0}};
    simmpi::CostParams capped = simmpi::CostParams::lassen();
    capped.use_link_cap = true;
    const std::pair<Machine, simmpi::CostParams> variants[] = {
        {test_machine(), simmpi::CostParams::lassen()},
        {Machine(tree_cfg), capped}};
    for (const auto& [machine, params] : variants)
    for (int w : kWidths) {
      simmpi::Engine eng(machine, params,
                         simmpi::Engine::Options{.threads = w});
      std::vector<std::vector<std::byte>> got(p);
      eng.run([&](simmpi::Context& ctx) -> simmpi::Task<> {
        const int r = ctx.rank();
        patterns::RankBuffers buf = patterns::make_buffers(wl, r);
        mpix::AlltoallvArgs args = patterns::args_view(wl, r, buf);
        const auto& ex = wl.ranks[r];
        simmpi::DistGraph g = co_await simmpi::dist_graph_create_adjacent(
            ctx, ctx.world(), ex.sources, ex.destinations,
            simmpi::GraphAlgo::handshake);
        auto coll = co_await mpix::neighbor_alltoallv_init(
            ctx, g, std::move(args), mpix::Method::locality);
        co_await coll->start(ctx);
        co_await coll->wait(ctx);
        got[r] = buf.recvbuf;
        co_return;
      });
      for (int r = 0; r < p; ++r) {
        ASSERT_EQ(got[r].size(), expected[r].size()) << name << " rank " << r;
        EXPECT_TRUE(std::equal(got[r].begin(), got[r].end(),
                               expected[r].begin()))
            << name << " width " << w << " rank " << r;
      }
    }
  }
}
