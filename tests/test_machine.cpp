/// \file test_machine.cpp
/// \brief Topology mapping and locality classification.

#include <gtest/gtest.h>

#include <string>

#include "simmpi/engine.hpp"
#include "simmpi/machine.hpp"

using simmpi::Locality;
using simmpi::Machine;
using simmpi::MachineConfig;

TEST(Machine, RankCounts) {
  Machine m({.num_nodes = 4, .regions_per_node = 2, .ranks_per_region = 16});
  EXPECT_EQ(m.num_ranks(), 128);
  EXPECT_EQ(m.num_nodes(), 4);
  EXPECT_EQ(m.num_regions(), 8);
  EXPECT_EQ(m.ranks_per_region(), 16);
  EXPECT_EQ(m.ranks_per_node(), 32);
}

TEST(Machine, RankMappingIsBlockedNodeMajor) {
  Machine m({.num_nodes = 2, .regions_per_node = 2, .ranks_per_region = 4});
  // ranks 0..3 region 0 node 0; 4..7 region 1 node 0; 8..11 region 2 node 1.
  EXPECT_EQ(m.node_of(0), 0);
  EXPECT_EQ(m.node_of(7), 0);
  EXPECT_EQ(m.node_of(8), 1);
  EXPECT_EQ(m.region_of(3), 0);
  EXPECT_EQ(m.region_of(4), 1);
  EXPECT_EQ(m.region_of(11), 2);
  EXPECT_EQ(m.core_of(5), 1);
  EXPECT_EQ(m.region_root(2), 8);
}

TEST(Machine, LocalityClassification) {
  Machine m({.num_nodes = 2, .regions_per_node = 2, .ranks_per_region = 4});
  EXPECT_EQ(m.classify(3, 3), Locality::self);
  EXPECT_EQ(m.classify(0, 3), Locality::region);
  EXPECT_EQ(m.classify(0, 4), Locality::node);
  EXPECT_EQ(m.classify(0, 8), Locality::network);
  EXPECT_EQ(m.classify(8, 0), Locality::network);
}

TEST(Machine, ClassificationIsSymmetric) {
  Machine m({.num_nodes = 3, .regions_per_node = 2, .ranks_per_region = 3});
  for (int a = 0; a < m.num_ranks(); ++a)
    for (int b = 0; b < m.num_ranks(); ++b)
      EXPECT_EQ(m.classify(a, b), m.classify(b, a)) << a << " vs " << b;
}

TEST(Machine, WithRegionSizeBuildsOneRegionPerNode) {
  Machine m = Machine::with_region_size(2048, 16);
  EXPECT_EQ(m.num_ranks(), 2048);
  EXPECT_EQ(m.num_regions(), 128);
  EXPECT_EQ(m.ranks_per_region(), 16);
  EXPECT_EQ(m.config().regions_per_node, 1);
}

TEST(Machine, WithRegionSizeSmallRun) {
  // Fewer ranks than a region: one partially filled region.
  Machine m = Machine::with_region_size(5, 16);
  EXPECT_EQ(m.num_ranks(), 5);
  EXPECT_EQ(m.num_regions(), 1);
}

TEST(Machine, WithRegionSizeRejectsNonMultiple) {
  EXPECT_THROW(Machine::with_region_size(33, 16), simmpi::SimError);
}

TEST(Machine, RejectsBadConfig) {
  EXPECT_THROW(Machine({.num_nodes = 0, .regions_per_node = 1,
                        .ranks_per_region = 1}),
               simmpi::SimError);
  EXPECT_THROW(Machine({.num_nodes = 1, .regions_per_node = -1,
                        .ranks_per_region = 1}),
               simmpi::SimError);
}

TEST(Machine, RejectionNamesTheOffendingField) {
  // Every dimension is validated independently, and the message names the
  // field and echoes the value so a miswired caller can be diagnosed from
  // the exception alone.
  auto message_of = [](MachineConfig cfg) -> std::string {
    try {
      Machine m(cfg);
    } catch (const simmpi::SimError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message_of({.num_nodes = 0, .regions_per_node = 2,
                        .ranks_per_region = 2})
                .find("num_nodes"),
            std::string::npos);
  EXPECT_NE(message_of({.num_nodes = 2, .regions_per_node = 0,
                        .ranks_per_region = 2})
                .find("regions_per_node"),
            std::string::npos);
  EXPECT_NE(message_of({.num_nodes = 2, .regions_per_node = 2,
                        .ranks_per_region = -3})
                .find("-3"),
            std::string::npos);
}

TEST(Machine, FlatMachineHasNoLinkTiers) {
  Machine m({.num_nodes = 4, .regions_per_node = 1, .ranks_per_region = 2,
             .switch_levels = {}});
  EXPECT_EQ(m.num_switch_levels(), 0);
  EXPECT_EQ(m.num_link_tiers(), 0);
  // Flat answer: distinct nodes "meet at the leaf" — nothing to charge.
  EXPECT_EQ(m.node_lca_level(0, 0), -1);
  EXPECT_EQ(m.node_lca_level(0, 3), 0);
}

TEST(Machine, LcaLevelAtSubtreeBoundaries) {
  // 8 nodes -> 4 leaf switches -> 2 -> 1 root: pairs join exactly where
  // their subtree paths first share a switch.
  Machine m({.num_nodes = 8, .regions_per_node = 1, .ranks_per_region = 2,
             .switch_levels = {{.radix = 2, .taper = 2.0},
                               {.radix = 2, .taper = 2.0},
                               {.radix = 2, .taper = 1.0}}});
  EXPECT_EQ(m.num_switch_levels(), 3);
  EXPECT_EQ(m.num_link_tiers(), 2);
  EXPECT_EQ(m.switches_at(0), 4);
  EXPECT_EQ(m.switches_at(1), 2);
  EXPECT_EQ(m.switches_at(2), 1);
  EXPECT_EQ(m.node_lca_level(3, 3), -1);  // same node
  EXPECT_EQ(m.node_lca_level(0, 1), 0);   // same leaf switch
  EXPECT_EQ(m.node_lca_level(1, 2), 1);   // leaf boundary (nodes 1|2)
  EXPECT_EQ(m.node_lca_level(3, 4), 2);   // mid-tree boundary (nodes 3|4)
  EXPECT_EQ(m.node_lca_level(0, 7), 2);   // opposite halves
  // Rank-level helper maps through node_of.
  EXPECT_EQ(m.lca_level(0, 1), -1);       // ranks 0,1 share node 0
  EXPECT_EQ(m.lca_level(0, 15), 2);       // rank 15 lives on node 7
  // Symmetry, exhaustively.
  for (int a = 0; a < m.num_nodes(); ++a)
    for (int b = 0; b < m.num_nodes(); ++b)
      EXPECT_EQ(m.node_lca_level(a, b), m.node_lca_level(b, a))
          << a << " vs " << b;
}

TEST(Machine, SwitchLevelsMustCascadeEvenly) {
  // Radix 4 does not divide 6 nodes.
  EXPECT_THROW(Machine({.num_nodes = 6, .regions_per_node = 1,
                        .ranks_per_region = 1,
                        .switch_levels = {{.radix = 4, .taper = 1.0},
                                          {.radix = 2, .taper = 1.0}}}),
               simmpi::SimError);
  // Cascades evenly but leaves 2 switches at the top: no single root.
  EXPECT_THROW(Machine({.num_nodes = 8, .regions_per_node = 1,
                        .ranks_per_region = 1,
                        .switch_levels = {{.radix = 2, .taper = 1.0},
                                          {.radix = 2, .taper = 1.0}}}),
               simmpi::SimError);
}

TEST(Machine, SwitchLevelRejectionNamesTheOffendingField) {
  auto message_of = [](MachineConfig cfg) -> std::string {
    try {
      Machine m(cfg);
    } catch (const simmpi::SimError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message_of({.num_nodes = 4, .regions_per_node = 1,
                        .ranks_per_region = 1,
                        .switch_levels = {{.radix = 0, .taper = 1.0}}})
                .find("switch_levels[0].radix"),
            std::string::npos);
  EXPECT_NE(message_of({.num_nodes = 4, .regions_per_node = 1,
                        .ranks_per_region = 1,
                        .switch_levels = {{.radix = 4, .taper = 1.0},
                                          {.radix = 1, .taper = -2.0}}})
                .find("switch_levels[1].taper"),
            std::string::npos);
  EXPECT_NE(message_of({.num_nodes = 6, .regions_per_node = 1,
                        .ranks_per_region = 1,
                        .switch_levels = {{.radix = 4, .taper = 1.0}}})
                .find("radix"),
            std::string::npos);
  EXPECT_NE(message_of({.num_nodes = 8, .regions_per_node = 1,
                        .ranks_per_region = 1,
                        .switch_levels = {{.radix = 2, .taper = 1.0},
                                          {.radix = 2, .taper = 1.0}}})
                .find("root"),
            std::string::npos);
}

TEST(Machine, EngineRejectsBadLinkRatesNamingTheField) {
  // Link parameters are used (hence validated) only by an engine with the
  // link cap enabled; the message must name the field and echo the value.
  const MachineConfig tree{.num_nodes = 4, .regions_per_node = 1,
                           .ranks_per_region = 1,
                           .switch_levels = {{.radix = 2, .taper = 1.0},
                                             {.radix = 2, .taper = 1.0}}};
  auto message_of = [&](simmpi::CostParams p) -> std::string {
    p.use_link_cap = true;
    try {
      simmpi::Engine eng{Machine(tree), p};
    } catch (const simmpi::SimError& e) {
      return e.what();
    }
    return "";
  };
  simmpi::CostParams bad_rate;
  bad_rate.link_rate = 0.0;
  EXPECT_NE(message_of(bad_rate).find("link_rate"), std::string::npos);
  // With the cap off the same parameters are inert: construction succeeds.
  simmpi::CostParams off;
  off.link_rate = 0.0;
  EXPECT_NO_THROW(simmpi::Engine(Machine(tree), off));
}

TEST(Machine, RejectsRankCountOverflow) {
  // 1e6 nodes x 1e5 regions x 16 ranks would overflow the int rank count;
  // validation must catch it before MachineConfig::num_ranks() multiplies.
  EXPECT_THROW(Machine({.num_nodes = 1000000, .regions_per_node = 100000,
                        .ranks_per_region = 16}),
               simmpi::SimError);
  EXPECT_THROW(Machine({.num_nodes = 2000000000, .regions_per_node = 2,
                        .ranks_per_region = 1}),
               simmpi::SimError);
}
