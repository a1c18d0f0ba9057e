/// \file test_harness.cpp
/// \brief Integration tests: exchanges inside distributed SpMV, the
/// measurement runner's figure invariants, and the performance model.

#include <gtest/gtest.h>

#include <random>

#include "amg/solve.hpp"
#include "harness/dist_solve.hpp"
#include "harness/measure.hpp"
#include "model/perf_model.hpp"
#include "sparse/stencil.hpp"

using namespace harness;
using namespace simmpi;

namespace {

amg::DistHierarchy small_dist(int nranks, int nx = 32, int ny = 32) {
  static std::map<std::tuple<int, int, int>, amg::DistHierarchy> cache;
  auto key = std::make_tuple(nranks, nx, ny);
  auto it = cache.find(key);
  if (it == cache.end()) {
    amg::Hierarchy h = amg::Hierarchy::build(sparse::paper_problem(nx, ny));
    it = cache.emplace(key, amg::distribute_hierarchy(h, nranks)).first;
  }
  return it->second;
}

MeasureConfig small_cfg() {
  MeasureConfig cfg;
  cfg.ranks_per_region = 4;
  return cfg;
}

}  // namespace

class MeasureAllProtocols : public ::testing::TestWithParam<Protocol> {};
INSTANTIATE_TEST_SUITE_P(Protocols, MeasureAllProtocols,
                         ::testing::Values(Protocol::hypre,
                                           Protocol::neighbor_standard,
                                           Protocol::neighbor_partial,
                                           Protocol::neighbor_full),
                         [](const auto& info) {
                           switch (info.param) {
                             case Protocol::hypre: return "hypre";
                             case Protocol::neighbor_standard: return "std";
                             case Protocol::neighbor_partial: return "partial";
                             case Protocol::neighbor_full: return "full";
                           }
                           return "x";
                         });

TEST_P(MeasureAllProtocols, HaloPayloadVerifiedOnEveryLevel) {
  // measure_protocol internally throws if any delivered halo value is wrong.
  auto dh = small_dist(16);
  auto m = measure_protocol(dh, GetParam(), small_cfg());
  ASSERT_EQ(static_cast<int>(m.size()), dh.num_levels());
  for (const auto& lm : m) {
    EXPECT_GT(lm.rows, 0);
    EXPECT_GE(lm.start_wait_seconds, 0.0);
    EXPECT_GE(lm.init_seconds, 0.0);
  }
}

TEST(Measure, OptimizedReducesGlobalAndIncreasesLocalMessages) {
  // Figures 8/9 mechanism on a small machine.
  auto dh = small_dist(16);
  auto std_m = measure_protocol(dh, Protocol::neighbor_standard, small_cfg());
  auto opt_m = measure_protocol(dh, Protocol::neighbor_partial, small_cfg());
  long std_global = 0, opt_global = 0, std_local = 0, opt_local = 0;
  for (std::size_t l = 0; l < std_m.size(); ++l) {
    std_global += std_m[l].max_global_msgs;
    opt_global += opt_m[l].max_global_msgs;
    std_local += std_m[l].max_local_msgs;
    opt_local += opt_m[l].max_local_msgs;
    EXPECT_LE(opt_m[l].max_global_msgs,
              std::max<long>(std_m[l].max_global_msgs, 1))
        << "level " << l;
  }
  EXPECT_LT(opt_global, std_global);
  EXPECT_GT(opt_local, std_local);
}

TEST(Measure, DedupNeverIncreasesGlobalMessageSize) {
  // Figure 10 mechanism.
  auto dh = small_dist(16);
  auto partial = measure_protocol(dh, Protocol::neighbor_partial, small_cfg());
  auto full = measure_protocol(dh, Protocol::neighbor_full, small_cfg());
  bool strictly_smaller_somewhere = false;
  for (std::size_t l = 0; l < partial.size(); ++l) {
    EXPECT_LE(full[l].max_global_msg_values, partial[l].max_global_msg_values)
        << "level " << l;
    strictly_smaller_somewhere =
        strictly_smaller_somewhere ||
        full[l].max_global_msg_values < partial[l].max_global_msg_values;
  }
  EXPECT_TRUE(strictly_smaller_somewhere)
      << "dedup should shrink at least one level of the AMG hierarchy";
}

TEST(Measure, HypreAndStandardNeighborSendIdenticalMessages) {
  auto dh = small_dist(8);
  auto hyp = measure_protocol(dh, Protocol::hypre, small_cfg());
  auto stn = measure_protocol(dh, Protocol::neighbor_standard, small_cfg());
  for (std::size_t l = 0; l < hyp.size(); ++l) {
    EXPECT_EQ(hyp[l].max_global_msgs, stn[l].max_global_msgs);
    EXPECT_EQ(hyp[l].max_local_msgs, stn[l].max_local_msgs);
  }
}

TEST(Measure, GraphCreationHandshakeBeatsAllgather) {
  auto dh = small_dist(32);
  MeasureConfig cfg = small_cfg();
  const double heavy = measure_graph_creation(dh, GraphAlgo::allgather, cfg);
  const double light = measure_graph_creation(dh, GraphAlgo::handshake, cfg);
  EXPECT_LT(light, heavy);
  EXPECT_GT(light, 0.0);
}

TEST(Measure, FaultPlanReachesEveryDriver) {
  // One engine builder attaches cfg.faults for every driver, not only the
  // pattern runners: a link brownout slows each of them.
  using Kind = simmpi::FaultSpec::Kind;
  auto dh = small_dist(8);
  MeasureConfig clean = small_cfg();
  clean.switch_levels = {{.radix = 1, .taper = 1.0}, {.radix = 2, .taper = 1.0}};
  clean.cost.use_link_cap = true;
  MeasureConfig slow = clean;
  const simmpi::FaultPlan brownout{
      .events = {{.kind = Kind::link_brownout, .severity = 0.25}}};
  slow.faults = &brownout;
  EXPECT_GT(total_time(measure_protocol(dh, Protocol::hypre, slow)),
            total_time(measure_protocol(dh, Protocol::hypre, clean)));
  EXPECT_GT(measure_graph_creation(dh, GraphAlgo::handshake, slow),
            measure_graph_creation(dh, GraphAlgo::handshake, clean));
  std::vector<double> b(dh.levels[0].n(), 1.0);
  EXPECT_GT(run_distributed_amg(dh, Protocol::hypre, b, 1e-8, 3, slow)
                .solve_seconds,
            run_distributed_amg(dh, Protocol::hypre, b, 1e-8, 3, clean)
                .solve_seconds);
  // measure_protocol forwards no reliability: a dropped message is never
  // recovered, and the run ends in the engine's deadlock error.
  MeasureConfig lossy = clean;
  const simmpi::FaultPlan drop{
      .seed = 42, .events = {{.kind = Kind::msg_drop, .rate = 0.25}}};
  lossy.faults = &drop;
  try {
    measure_protocol(dh, Protocol::hypre, lossy);
    ADD_FAILURE() << "a dropped message completed without reliability";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
}

TEST(Measure, CrossoverIterationsSolvesLinearInequality) {
  // opt: 10 + 1*k, base: 2 + 3*k  => equal at k=4, opt wins from k=5.
  EXPECT_EQ(crossover_iterations(2.0, 3.0, 10.0, 1.0), 5);
  // never crosses
  EXPECT_EQ(crossover_iterations(1.0, 1.0, 2.0, 2.0, 100), -1);
  // immediately cheaper
  EXPECT_EQ(crossover_iterations(5.0, 1.0, 1.0, 1.0), 0);
}

TEST(Measure, TotalTimeBestOfSelection) {
  std::vector<LevelMeasurement> a(3), b(3);
  a[0].start_wait_seconds = 1.0;
  a[1].start_wait_seconds = 5.0;
  a[2].start_wait_seconds = 2.0;
  b[0].start_wait_seconds = 2.0;
  b[1].start_wait_seconds = 1.0;
  b[2].start_wait_seconds = 2.0;
  EXPECT_DOUBLE_EQ(total_time(a), 8.0);
  EXPECT_DOUBLE_EQ(total_time(a, &b), 1.0 + 1.0 + 2.0);
}

TEST(Measure, ReduceSumsAndMaximaPerRankAndLinkTier) {
  const std::vector<mpix::NeighborStats> ranks = {
      {.local_msgs = 2,
       .global_msgs = 1,
       .local_values = 10,
       .global_values = 7,
       .max_global_msg_values = 7,
       .link_msgs = {1, 1}},
      {.local_msgs = 1,
       .global_msgs = 3,
       .local_values = 4,
       .global_values = 9,
       .max_global_msg_values = 5,
       .link_msgs = {2}},
      {},  // a rank that sends nothing
  };
  const StatsSummary s = reduce(ranks, 3);
  EXPECT_EQ(s.sum_local_msgs, 3);
  EXPECT_EQ(s.sum_global_msgs, 4);
  EXPECT_EQ(s.sum_local_values, 14);
  EXPECT_EQ(s.sum_global_values, 16);
  EXPECT_EQ(s.max_local_msgs, 2);
  EXPECT_EQ(s.max_global_msgs, 3);
  EXPECT_EQ(s.max_local_values, 10);
  EXPECT_EQ(s.max_global_values, 9);
  EXPECT_EQ(s.max_global_msg_values, 7);
  // One entry per machine link tier, even where no rank crossed it.
  EXPECT_EQ(s.sum_link_msgs, (std::vector<long>{3, 1, 0}));
  EXPECT_TRUE(reduce({}, 0).sum_link_msgs.empty());
}

TEST(Measure, WindowTimesReportTheMaxOverRanksPerWindow) {
  WindowTimes t(2, 3);
  t.stamp(0, 0, 1.0);
  t.stamp(0, 2, 4.0);
  t.stamp(1, 1, 2.5);
  EXPECT_EQ(t.max(0), 4.0);
  EXPECT_EQ(t.max(1), 2.5);
}

TEST(Measure, RejectsNonPositiveShapeFields) {
  // A zero or negative shape field is rejected by name before any engine
  // is built, instead of dividing by zero (ranks_per_region = 0 on a
  // multi-region node) or silently building one region per node
  // (regions_per_node <= 0).
  auto expect_rejected = [](MeasureConfig cfg, const std::string& field) {
    try {
      (void)machine_for(16, cfg);
      ADD_FAILURE() << field << " accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("MeasureConfig::" + field),
                std::string::npos)
          << e.what();
    }
  };
  MeasureConfig cfg = small_cfg();
  cfg.regions_per_node = 2;
  cfg.ranks_per_region = 0;
  expect_rejected(cfg, "ranks_per_region");
  cfg.ranks_per_region = -4;
  expect_rejected(cfg, "ranks_per_region");
  for (int rpn : {0, -3}) {
    cfg = small_cfg();
    cfg.regions_per_node = rpn;
    expect_rejected(cfg, "regions_per_node");
  }
  // The drivers build their machine first, so they reject it too.
  cfg = small_cfg();
  cfg.regions_per_node = 0;
  const patterns::Workload wl = patterns::uniform_dense(
      Machine::with_region_size(16, 4), {.values = 1});
  EXPECT_THROW(measure_pattern(wl, mpix::Method::standard, cfg), SimError);
}

TEST(Measure, PaperHierarchiesAreValues) {
  // Each call returns its own hierarchy: a second call leaves the first
  // result, held by the caller, untouched.
  const auto& a = paper_dist_hierarchy(256, 4);
  const auto& b = paper_dist_hierarchy(256, 8);
  EXPECT_EQ(a.nranks, 4);
  EXPECT_EQ(b.nranks, 8);
}

TEST(Model, EstimateGrowsWithTraffic) {
  simmpi::CostModel cm(simmpi::CostParams::lassen());
  mpix::NeighborStats small{.local_msgs = 1,
                            .global_msgs = 1,
                            .local_values = 10,
                            .global_values = 10,
                            .max_global_msg_values = 10};
  mpix::NeighborStats big = small;
  big.global_msgs = 20;
  big.global_values = 500;
  EXPECT_LT(model::estimate_rank_time(cm, small),
            model::estimate_rank_time(cm, big));
}

TEST(Model, SelectorPrefersFewerGlobalMessages) {
  simmpi::CostModel cm(simmpi::CostParams::lassen());
  // Protocol 0: many tiny network messages.  Protocol 1: aggregated.
  std::vector<mpix::NeighborStats> noisy(4), agg(4);
  for (int r = 0; r < 4; ++r) {
    noisy[r] = {.local_msgs = 0,
                .global_msgs = 30,
                .local_values = 0,
                .global_values = 300,
                .max_global_msg_values = 10};
    agg[r] = {.local_msgs = 6,
              .global_msgs = 2,
              .local_values = 300,
              .global_values = 300,
              .max_global_msg_values = 150};
  }
  EXPECT_EQ(model::select_protocol(cm, {noisy, agg}), 1);
}

TEST(Model, EstimateCorrelatesWithMeasuredTimeAcrossLevels) {
  // For the standard protocol the postal estimate, fed the real per-level
  // message statistics, should rank levels roughly as the simulator does:
  // positive rank correlation across the hierarchy.
  auto dh = small_dist(32, 64, 64);
  MeasureConfig cfg = small_cfg();
  auto m = measure_protocol(dh, Protocol::neighbor_standard, cfg);
  simmpi::CostModel cm(cfg.cost);
  std::vector<double> measured, estimated;
  for (const auto& lm : m) {
    if (lm.max_global_msgs == 0) continue;  // noise-floor levels
    measured.push_back(lm.start_wait_seconds);
    estimated.push_back(model::estimate_rank_time(
        cm, mpix::NeighborStats{.local_msgs = lm.max_local_msgs,
                                .global_msgs = lm.max_global_msgs,
                                .local_values = lm.max_local_values,
                                .global_values = lm.max_global_values,
                                .max_global_msg_values =
                                    lm.max_global_msg_values}));
  }
  // Kendall-style concordance over all level pairs.
  int concordant = 0, discordant = 0;
  for (std::size_t a = 0; a < measured.size(); ++a)
    for (std::size_t b = a + 1; b < measured.size(); ++b) {
      const double dm = measured[a] - measured[b];
      const double de = estimated[a] - estimated[b];
      if (dm * de > 0) ++concordant;
      else if (dm * de < 0) ++discordant;
    }
  EXPECT_GT(concordant, discordant)
      << "model ordering disagrees with simulation on most level pairs";
}

TEST(DistSolve, MatchesSequentialAmgOnLaplaceLikeProblem) {
  const int nx = 24, ny = 24;
  amg::Hierarchy h = amg::Hierarchy::build(sparse::paper_problem(nx, ny));
  amg::DistHierarchy dh = amg::distribute_hierarchy(h, 8);

  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> d(-1, 1);
  std::vector<double> b(nx * ny);
  for (auto& v : b) v = d(rng);

  MeasureConfig cfg = small_cfg();
  auto dist = run_distributed_amg(dh, Protocol::neighbor_full, b, 1e-8, 60,
                                  cfg);
  EXPECT_TRUE(dist.converged);

  std::vector<double> x_seq(nx * ny, 0.0);
  auto seq = amg::amg_solve(h, b, x_seq, 1e-8, 60);
  EXPECT_TRUE(seq.converged);
  EXPECT_EQ(static_cast<int>(dist.residual_history.size()) - 1,
            seq.iterations);

  // Same arithmetic up to floating-point reassociation.
  for (std::size_t i = 0; i < x_seq.size(); ++i)
    EXPECT_NEAR(dist.solution[i], x_seq[i], 1e-6);
}

TEST(DistSolve, AllProtocolsProduceSameIterates) {
  const int nx = 16, ny = 16;
  amg::Hierarchy h = amg::Hierarchy::build(sparse::paper_problem(nx, ny));
  amg::DistHierarchy dh = amg::distribute_hierarchy(h, 4);
  std::vector<double> b(nx * ny, 1.0);
  MeasureConfig cfg = small_cfg();

  auto ref = run_distributed_amg(dh, Protocol::hypre, b, 1e-8, 40, cfg);
  for (Protocol p : {Protocol::neighbor_standard, Protocol::neighbor_partial,
                     Protocol::neighbor_full}) {
    auto res = run_distributed_amg(dh, p, b, 1e-8, 40, cfg);
    ASSERT_EQ(res.residual_history.size(), ref.residual_history.size())
        << to_string(p);
    for (std::size_t i = 0; i < res.solution.size(); ++i)
      EXPECT_DOUBLE_EQ(res.solution[i], ref.solution[i]) << to_string(p);
  }
}

TEST(DistSolve, RejectsIndivisibleMultiRegionShape) {
  // The solve builds its machine like every other driver: a multi-region
  // node shape that does not divide the rank count is rejected instead of
  // silently falling back to one region per node.
  auto dh = small_dist(12, 16, 16);
  std::vector<double> b(dh.levels[0].n(), 1.0);
  MeasureConfig cfg = small_cfg();
  cfg.regions_per_node = 2;  // 12 ranks, not a multiple of 2 * 4
  EXPECT_THROW(run_distributed_amg(dh, Protocol::hypre, b, 1e-8, 40, cfg),
               SimError);
}
