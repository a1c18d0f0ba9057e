/// \file test_plan_identity.cpp
/// \brief Pins the locality plans' routing.  For a fixed set of machine
/// shapes, communicators and traffic patterns, every rank builds
/// `locality`, `locality_dedup` and dense `node_aggregated` plans, with
/// LPT leaders and with round-robin ones.  A hash over all of them must
/// equal the constant recorded for its case.  Per plan it hashes the
/// routing fields: the l and g message lists, the dedup flag, the s and r
/// phases with their run lists, the two stage sizes and `NeighborStats`.
/// How a plan build communicates or who computes its routing may change;
/// what it builds may not, unless the change means to move plans and
/// updates these constants with its reason.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "amg/distribute.hpp"
#include "amg/solve.hpp"
#include "mpix/alltoall.hpp"
#include "patterns/pattern.hpp"
#include "simmpi/coll.hpp"
#include "simmpi/dist_graph.hpp"
#include "sparse/par_csr.hpp"
#include "sparse/stencil.hpp"
#include "util/hash.hpp"

using namespace simmpi;
using namespace mpix;

namespace {

/// Word-wise FNV-style mix over the routing fields, in declaration order.
struct PlanHash {
  std::uint64_t h = util::kFnvOffsetBasis;

  void word(long long v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= util::kFnvPrime;
    h ^= h >> 29;
  }
  template <class T>
  void list(const std::vector<T>& v) {
    word(static_cast<long long>(v.size()));
    for (const T& x : v) word(static_cast<long long>(x));
  }
  void runs(const std::vector<CopyRun>& v) {
    word(static_cast<long long>(v.size()));
    for (const CopyRun& r : v) {
      word(r.src);
      word(r.dst);
      word(r.len);
    }
  }
  void direct(const std::vector<DirectMsg>& v) {
    word(static_cast<long long>(v.size()));
    for (const DirectMsg& m : v) {
      word(m.peer);
      word(m.displ);
      word(m.count);
    }
  }
  void phase(const StagedPhase& p) {
    for (const auto* msgs : {&p.sends, &p.recvs}) {
      word(static_cast<long long>(msgs->size()));
      for (const StagedPhase::Msg& m : *msgs) {
        word(m.peer);
        word(m.values);
        runs(m.runs);
      }
    }
    runs(p.self);
  }
  void plan(const LocalityPlan& p) {
    direct(p.l_sends);
    direct(p.l_recvs);
    const NeighborStats& s = p.stats;
    word(s.local_msgs);
    word(s.global_msgs);
    word(s.local_values);
    word(s.global_values);
    word(s.max_global_msg_values);
    list(s.link_msgs);
    word(p.dedup);
    phase(p.s);
    phase(p.r);
    direct(p.g_sends);
    direct(p.g_recvs);
    word(p.s_stage_values);
    word(p.g_stage_values);
  }
};

std::shared_ptr<const LocalityPlan> locality_plan(const NeighborAlltoallv& c) {
  auto plan = std::dynamic_pointer_cast<const LocalityPlan>(c.plan());
  EXPECT_NE(plan, nullptr);
  return plan;
}

/// One rank's traffic: adjacency, counts and gid annotations.
struct Traffic {
  std::vector<int> sources = {}, destinations = {};
  std::vector<int> sendcounts = {}, sdispls = {}, recvcounts = {},
                   rdispls = {};
  std::vector<gidx> send_idx = {}, recv_idx = {};
  std::vector<double> sendbuf = {}, recvbuf = {};

  AlltoallvArgs args() {
    return AlltoallvArgsT<double>{.sendbuf = sendbuf,
                                  .sendcounts = sendcounts,
                                  .sdispls = sdispls,
                                  .recvbuf = recvbuf,
                                  .recvcounts = recvcounts,
                                  .rdispls = rdispls,
                                  .send_idx = send_idx,
                                  .recv_idx = recv_idx};
  }
};

std::vector<int> displs_of(const std::vector<int>& counts) {
  std::vector<int> d(counts.size(), 0);
  for (std::size_t i = 1; i < counts.size(); ++i)
    d[i] = d[i - 1] + counts[i - 1];
  return d;
}

Traffic from_pattern(const patterns::Workload& wl, int rank) {
  const patterns::RankExchange& x = wl.ranks[rank];
  Traffic t{.sources = x.sources,
            .destinations = x.destinations,
            .sendcounts = x.sendcounts,
            .sdispls = x.sdispls,
            .recvcounts = x.recvcounts,
            .rdispls = x.rdispls};
  const patterns::RankBuffers buf = patterns::make_buffers(wl, rank);
  t.send_idx = buf.send_gids;
  t.recv_idx = buf.recv_gids;
  t.sendbuf.resize(static_cast<std::size_t>(x.send_values()));
  t.recvbuf.resize(static_cast<std::size_t>(x.recv_values()));
  return t;
}

Traffic from_halo(const sparse::RankHalo& halo) {
  Traffic t{.sources = halo.recv_ranks,
            .destinations = halo.send_ranks,
            .sendcounts = halo.send_counts,
            .sdispls = displs_of(halo.send_counts),
            .recvcounts = halo.recv_counts,
            .rdispls = displs_of(halo.recv_counts),
            .send_idx = {halo.send_gids.begin(), halo.send_gids.end()},
            .recv_idx = {halo.recv_gids.begin(), halo.recv_gids.end()}};
  t.sendbuf.resize(halo.send_gids.size());
  t.recvbuf.resize(halo.recv_gids.size());
  return t;
}

/// The same traffic as a dense exchange: one count per communicator rank.
Traffic dense(const Traffic& t, int nranks) {
  Traffic d;
  d.sendcounts.assign(static_cast<std::size_t>(nranks), 0);
  d.recvcounts.assign(static_cast<std::size_t>(nranks), 0);
  for (std::size_t i = 0; i < t.destinations.size(); ++i)
    d.sendcounts[t.destinations[i]] = t.sendcounts[i];
  for (std::size_t i = 0; i < t.sources.size(); ++i)
    d.recvcounts[t.sources[i]] = t.recvcounts[i];
  d.sdispls = displs_of(d.sendcounts);
  d.rdispls = displs_of(d.recvcounts);
  d.sendbuf = t.sendbuf;
  d.recvbuf = t.recvbuf;
  return d;
}

/// Every plan one rank builds: per leader strategy (LPT, then round-robin)
/// locality, locality_dedup and, with `dense_too`, node_aggregated.
Task<std::vector<std::shared_ptr<const LocalityPlan>>> build_plans(
    Context& ctx, Comm comm, Traffic& t, bool dense_too) {
  std::vector<std::shared_ptr<const LocalityPlan>> plans;
  DistGraph g = co_await dist_graph_create_adjacent(
      ctx, comm, t.sources, t.destinations, GraphAlgo::handshake);
  Traffic d = dense(t, comm.size());
  for (int k = 0; k < 2; ++k) {
    Options opts;
    opts.lpt_balance = k == 0;
    auto partial = co_await neighbor_alltoallv_init(ctx, g, t.args(),
                                                    Method::locality, opts);
    plans.push_back(locality_plan(*partial));
    auto full = co_await neighbor_alltoallv_init(ctx, g, t.args(),
                                                 Method::locality_dedup, opts);
    plans.push_back(locality_plan(*full));
    if (!dense_too) continue;
    auto agg = co_await alltoallv_init(ctx, comm, d.args(),
                                       AlltoallMethod::node_aggregated, opts);
    plans.push_back(locality_plan(*agg));
  }
  co_return plans;
}

/// A machine shape, optionally a split of its world, and a traffic source.
struct Case {
  const char* name;
  MachineConfig machine;
  bool split = false;         ///< two communicators: even and odd world
                              ///< ranks, each in reversed rank order
  const char* pattern = "";   ///< a registry pattern, or "" for the AMG level
  std::uint64_t expected = 0;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

/// The hash of every plan of every world rank, in world rank order.
std::uint64_t plan_hash(const Case& c) {
  Engine eng(Machine(c.machine), CostParams::lassen());
  const int nranks = eng.machine().num_ranks();
  const int comm_size = c.split ? nranks / 2 : nranks;
  // Patterns are generated for the communicator's size on a flat machine
  // of that size; AMG traffic is one level's SpMV halo.
  patterns::Workload wl;
  amg::DistHierarchy dh;
  if (*c.pattern) {
    wl = patterns::generate(c.pattern, Machine::with_region_size(comm_size, 1),
                            {.values = 5, .seed = 3});
  } else {
    dh = amg::distribute_hierarchy(
        amg::Hierarchy::build(sparse::paper_problem(24, 24)), comm_size);
  }
  const bool dense_too = *c.pattern != '\0';
  std::vector<std::vector<std::shared_ptr<const LocalityPlan>>> plans(nranks);
  eng.run([&](Context& ctx) -> Task<> {
    Comm comm = ctx.world();
    if (c.split)
      comm = co_await coll::comm_split(ctx, ctx.world(), ctx.rank() % 2,
                                       nranks - ctx.rank());
    Traffic t = *c.pattern ? from_pattern(wl, comm.rank())
                           : from_halo(dh.levels[1].halo.ranks[comm.rank()]);
    plans[ctx.rank()] = co_await build_plans(ctx, comm, t, dense_too);
  });
  // Every case routes through leaders in both directions, so the s, g and
  // r lists are all pinned.
  long staged = 0, network = 0, delivered = 0;
  PlanHash h;
  for (const auto& mine : plans) {
    h.word(static_cast<long long>(mine.size()));
    for (const auto& p : mine) {
      h.plan(*p);
      staged += static_cast<long>(p->s.sends.size());
      network += static_cast<long>(p->g_sends.size());
      delivered += static_cast<long>(p->r.sends.size());
    }
  }
  EXPECT_GT(staged, 0) << c.name;
  EXPECT_GT(network, 0) << c.name;
  EXPECT_GT(delivered, 0) << c.name;
  return h.h;
}

MachineConfig flat(int nodes, int regions_per_node, int ranks_per_region) {
  return {.num_nodes = nodes,
          .regions_per_node = regions_per_node,
          .ranks_per_region = ranks_per_region,
          .switch_levels = {}};
}

MachineConfig two_level_tree() {
  MachineConfig cfg = flat(8, 1, 2);
  cfg.switch_levels = {{.radix = 2, .taper = 4.0}, {.radix = 4, .taper = 1.0}};
  return cfg;
}

// Recorded over the routing fields alone (PlanHash::plan).
const Case kCases[] = {
    {"rpr4_random_sparse", flat(4, 1, 4), false, "random_sparse",
     0x3cdb328c0c56e1d2ull},
    {"rpr4_stencil3d27", flat(4, 1, 4), false, "stencil3d27",
     0x343a7112514c6eadull},
    {"rpr4_incast", flat(4, 1, 4), false, "incast", 0x500b5af89d29252bull},
    {"rpr3_random_sparse", flat(3, 2, 3), false, "random_sparse",
     0x2b417efc07f8a6f8ull},
    {"rpr3_stencil3d27", flat(3, 2, 3), false, "stencil3d27",
     0x972bd5debe248999ull},
    {"rpr3_incast", flat(3, 2, 3), false, "incast", 0x84dd82a1899d1f50ull},
    {"split_random_sparse", flat(4, 1, 4), true, "random_sparse",
     0x5e7d6d02a89e8784ull},
    {"split_stencil3d27", flat(4, 1, 4), true, "stencil3d27",
     0x77cd9d5fbbe9a0e7ull},
    {"split_incast", flat(4, 1, 4), true, "incast", 0xb69d957b704858bfull},
    {"tree_random_sparse", two_level_tree(), false, "random_sparse",
     0xe92d7c42e6c3152eull},
    {"tree_stencil3d27", two_level_tree(), false, "stencil3d27",
     0x8b0b6790e554fef4ull},
    {"tree_incast", two_level_tree(), false, "incast", 0x3a45e6ef5b70c165ull},
    {"rpr4_amg_level1", flat(4, 1, 4), false, "", 0x37b10d4514cae366ull},
    {"rpr3_amg_level1", flat(3, 2, 3), false, "", 0x9e1e0a2d3472854cull},
};

}  // namespace

class PlanIdentity : public ::testing::TestWithParam<Case> {};

INSTANTIATE_TEST_SUITE_P(Cases, PlanIdentity, ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST_P(PlanIdentity, EveryFieldMatchesThePinnedHash) {
  const Case& c = GetParam();
  const std::uint64_t got = plan_hash(c);
  EXPECT_EQ(got, c.expected) << c.name << ": 0x" << std::hex << got;
}
