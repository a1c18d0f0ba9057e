/// \file test_neighbor_typed.cpp
/// \brief Datatype-generic payloads: the collectives must move any
/// trivially copyable element type (int halos, struct payloads)
/// byte-identically to a scalar reference.

#include <gtest/gtest.h>

#include <cstring>

#include "pattern_util.hpp"
#include "simmpi/dist_graph.hpp"

using namespace simmpi;
using namespace mpix;
using pattern::GlobalPattern;
using pattern::RankArgs;

namespace {

/// A non-power-of-two, non-double element (12 bytes).
struct Particle {
  float x = 0, y = 0;
  int tag = 0;
  bool operator==(const Particle&) const = default;
};
static_assert(sizeof(Particle) == 12);

int int_value_of(gidx gid, int iter) {
  return static_cast<int>(gid) * 13 + 1000 * iter + 7;
}

Particle particle_value_of(gidx gid, int iter) {
  return {0.5f * static_cast<float>(gid), static_cast<float>(iter),
          static_cast<int>(gid) + iter};
}

/// Exchange `T` payloads derived from the pattern's gids through `method`
/// and compare byte-for-byte against the scalar (host-computed) reference.
template <class T, class ValueOf>
void verify_typed(int nodes, int rpn, const GlobalPattern& pat, Method method,
                  ValueOf value_of) {
  Engine eng(Machine({.num_nodes = nodes, .regions_per_node = 1,
                      .ranks_per_region = rpn}),
             CostParams::lassen());
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    RankArgs a = pattern::rank_args(pat, r);  // reuse the pattern metadata
    std::vector<T> sendbuf(a.send_idx.size());
    std::vector<T> recvbuf(a.recv_idx.size());
    std::vector<T> expected(a.recv_idx.size());
    DistGraph g = co_await dist_graph_create_adjacent(
        ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);
    // Build the typed arguments in a helper returning a prvalue — never as
    // a braced temporary inline in the co_await'd call, which g++ 12
    // miscompiles (see the neighbor.hpp warning).
    auto targs = [&] {
      return AlltoallvArgsT<T>{.sendbuf = sendbuf,
                               .sendcounts = a.sendcounts,
                               .sdispls = a.sdispls,
                               .recvbuf = recvbuf,
                               .recvcounts = a.recvcounts,
                               .rdispls = a.rdispls,
                               .send_idx = a.send_idx,
                               .recv_idx = a.recv_idx};
    };
    auto proto = co_await neighbor_alltoallv_init(ctx, g, targs(), method);
    for (int it = 0; it < 3; ++it) {
      for (std::size_t k = 0; k < sendbuf.size(); ++k)
        sendbuf[k] = value_of(a.send_idx[k], it);
      for (std::size_t k = 0; k < expected.size(); ++k)
        expected[k] = value_of(a.recv_idx[k], it);
      std::fill(recvbuf.begin(), recvbuf.end(), value_of(-12345, 99));
      co_await proto->start(ctx);
      co_await proto->wait(ctx);
      EXPECT_TRUE(recvbuf.empty() ||
                  std::memcmp(recvbuf.data(), expected.data(),
                              recvbuf.size() * sizeof(T)) == 0)
          << to_string(method) << " rank " << r << " iter " << it;
    }
    co_return;
  });
}

}  // namespace

TEST(TypedPayload, IntHaloThroughEveryMethod) {
  for (unsigned seed : {1u, 4u}) {
    GlobalPattern pat = pattern::random_pattern(16, seed);
    for (Method m : kAllMethods)
      verify_typed<int>(4, 4, pat, m, int_value_of);
  }
}

TEST(TypedPayload, TwelveByteStructThroughEveryMethod) {
  GlobalPattern pat = pattern::random_pattern(12, 5);
  for (Method m : kAllMethods)
    verify_typed<Particle>(3, 4, pat, m, particle_value_of);
}

TEST(TypedPayload, GidxPayloadMatchesIndices) {
  // Send each value's own index: what arrives must equal recv_idx itself.
  GlobalPattern pat = pattern::random_pattern(8, 9);
  verify_typed<gidx>(2, 4, pat, Method::locality_dedup,
                     [](gidx g, int) { return g; });
}
