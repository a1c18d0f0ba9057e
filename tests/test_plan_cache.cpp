/// \file test_plan_cache.cpp
/// \brief Plan reuse in the harness through caller-owned plan slots
/// (`MeasureConfig::plans`): a second measurement binds the first one's
/// plans without setup communication and delivers the same traffic, the
/// standard methods leave their slots empty, slots handed to another
/// method or machine shape are rejected, and the distributed solve takes
/// none.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "harness/dist_solve.hpp"
#include "harness/measure.hpp"
#include "sparse/stencil.hpp"

using namespace harness;

namespace {

amg::DistHierarchy small_dist(int nranks, int nx = 32, int ny = 32) {
  amg::Hierarchy h = amg::Hierarchy::build(sparse::paper_problem(nx, ny));
  return amg::distribute_hierarchy(h, nranks);
}

MeasureConfig slot_cfg(Plans* plans) {
  MeasureConfig cfg;
  cfg.ranks_per_region = 4;
  cfg.plans = plans;
  return cfg;
}

long filled(const Plans& plans) {
  return std::count_if(plans.begin(), plans.end(),
                       [](const auto& plan) { return plan != nullptr; });
}

}  // namespace

TEST(PlanSlots, MeasureProtocolReusesPlansAcrossRuns) {
  auto dh = small_dist(16);
  Plans plans;
  const auto cold =
      measure_protocol(dh, Protocol::neighbor_full, slot_cfg(&plans));
  // One slot per (level, rank), each filled by the cold run.
  ASSERT_EQ(plans.size(), static_cast<std::size_t>(dh.num_levels()) * 16);
  EXPECT_EQ(filled(plans), static_cast<long>(plans.size()));
  const Plans built = plans;

  const auto warm =
      measure_protocol(dh, Protocol::neighbor_full, slot_cfg(&plans));
  EXPECT_EQ(plans, built);  // bound, not rebuilt

  ASSERT_EQ(warm.size(), cold.size());
  double cold_init = 0, warm_init = 0;
  for (std::size_t l = 0; l < cold.size(); ++l) {
    // Reuse must not change what the exchange does (measure_protocol also
    // verifies the delivered halo payload internally).  Exact virtual
    // times are not compared: the shorter init path perturbs coroutine
    // scheduling order, which legitimately shifts NIC queuing by a hair.
    EXPECT_EQ(warm[l].max_global_msgs, cold[l].max_global_msgs);
    EXPECT_EQ(warm[l].max_local_msgs, cold[l].max_local_msgs);
    EXPECT_EQ(warm[l].max_global_values, cold[l].max_global_values);
    EXPECT_EQ(warm[l].max_local_values, cold[l].max_local_values);
    EXPECT_EQ(warm[l].max_global_msg_values, cold[l].max_global_msg_values);
    cold_init += cold[l].init_seconds;
    warm_init += warm[l].init_seconds;
  }
  // The bound plans skip the metadata allgather, leader handshake and
  // broadcast: warm init must be decisively cheaper in aggregate.
  EXPECT_LT(warm_init, cold_init);
}

TEST(PlanSlots, HypreAndStandardLeaveSlotsEmpty) {
  auto dh = small_dist(8);
  for (Protocol p : {Protocol::hypre, Protocol::neighbor_standard}) {
    Plans plans;
    measure_protocol(dh, p, slot_cfg(&plans));
    EXPECT_EQ(plans.size(), static_cast<std::size_t>(dh.num_levels()) * 8);
    EXPECT_EQ(filled(plans), 0) << to_string(p);
  }
}

TEST(PlanSlots, AnotherMethodsPlansAreRejected) {
  auto dh = small_dist(16);
  Plans plans;
  measure_protocol(dh, Protocol::neighbor_partial, slot_cfg(&plans));
  // Partial plans carry no dedup routing, and Hypre's exchange takes no
  // plan at all: both throw at bind time instead of misrouting.
  EXPECT_THROW(measure_protocol(dh, Protocol::neighbor_full, slot_cfg(&plans)),
               simmpi::SimError);
  EXPECT_THROW(measure_protocol(dh, Protocol::hypre, slot_cfg(&plans)),
               simmpi::SimError);
}

TEST(PlanSlots, TapersRebindButRadixesReject) {
  // Tapers scale link costs, never a plan: a taper sweep binds the first
  // taper's plans.  Radixes shape the tree whose link crossings the plan
  // counts, so another radix rejects them.
  Plans plans;
  MeasureConfig cfg = slot_cfg(&plans);
  cfg.switch_levels = {{.radix = 2, .taper = 1.0}, {.radix = 2, .taper = 1.0}};
  const patterns::Workload wl =
      patterns::generate("stencil2d5", machine_for(16, cfg));
  const PatternMeasurement cold =
      measure_pattern(wl, mpix::Method::locality, cfg);
  EXPECT_EQ(filled(plans), 16);
  const Plans built = plans;

  cfg.switch_levels[0].taper = 4.0;
  const PatternMeasurement warm =
      measure_pattern(wl, mpix::Method::locality, cfg);
  EXPECT_EQ(plans, built);
  EXPECT_LT(warm.init_seconds, cold.init_seconds);

  cfg.switch_levels = {{.radix = 4, .taper = 1.0}, {.radix = 1, .taper = 1.0}};
  EXPECT_THROW(measure_pattern(wl, mpix::Method::locality, cfg),
               simmpi::SimError);
}

TEST(PlanSlots, DistributedSolveTakesNone) {
  auto dh = small_dist(8, 16, 16);
  const std::vector<double> b(static_cast<std::size_t>(dh.levels[0].n()),
                              1.0);
  Plans plans;
  try {
    run_distributed_amg(dh, Protocol::neighbor_full, b, 1e-8, 40,
                        slot_cfg(&plans));
    FAIL() << "run_distributed_amg accepted plan slots";
  } catch (const simmpi::SimError& e) {
    EXPECT_NE(std::string(e.what()).find("MeasureConfig::plans"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(plans.empty());
}
