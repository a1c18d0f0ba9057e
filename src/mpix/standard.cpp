/// \file standard.cpp
/// \brief Standard persistent neighbor alltoallv: p2p wrap (Algorithms 1-3).

#include "mpix/detail.hpp"
#include "mpix/impl.hpp"
#include "mpix/reliable.hpp"

namespace mpix {

namespace {

using simmpi::Context;
using simmpi::Task;

class StandardNeighbor final : public NeighborAlltoallv {
 public:
  StandardNeighbor(Context& ctx, const simmpi::DistGraph& graph,
                   AlltoallvArgs args, const Options& opts)
      : args_(std::move(args)) {
    detail::validate_args(graph, args_, /*need_idx=*/false);
    const simmpi::Comm& comm = graph.comm;
    const std::size_t es = args_.element_size;
    const int tag = ctx.engine().next_coll_tag(comm);
    // Ack traffic gets its own tag, minted unconditionally when the
    // feature is on so every rank's tag sequence stays uniform.
    const int ack_tag =
        opts.reliability.enabled ? ctx.engine().next_coll_tag(comm) : -1;
    channels_ = impl::ChannelSet(comm, opts.reliability, ack_tag);
    channels_.reserve(graph.destinations.size(), graph.sources.size());
    const auto& machine = ctx.engine().machine();
    const int my_region = machine.region_of(comm.global(comm.rank()));

    for (std::size_t i = 0; i < graph.destinations.size(); ++i) {
      const int dst = graph.destinations[i];
      channels_.send(
          args_.sendbuf.subspan(args_.sdispls[i] * es, args_.sendcounts[i] * es),
          dst, tag);
      const bool global = machine.region_of(comm.global(dst)) != my_region;
      if (global) {
        ++stats_.global_msgs;
        stats_.global_values += args_.sendcounts[i];
        stats_.max_global_msg_values = std::max(
            stats_.max_global_msg_values,
            static_cast<long>(args_.sendcounts[i]));
        detail::count_link_crossing(machine, comm.global(comm.rank()),
                                    comm.global(dst), stats_);
      } else {
        ++stats_.local_msgs;
        stats_.local_values += args_.sendcounts[i];
      }
    }
    for (std::size_t i = 0; i < graph.sources.size(); ++i)
      channels_.recv(
          args_.recvbuf.subspan(args_.rdispls[i] * es, args_.recvcounts[i] * es),
          graph.sources[i], tag);
  }

  Task<> start(Context& ctx) override {
    channels_.start(ctx);
    co_return;
  }

  Task<> wait(Context& ctx) override { return channels_.finish(ctx); }

  NeighborStats stats() const override { return stats_; }

 private:
  AlltoallvArgs args_;
  impl::ChannelSet channels_;
  NeighborStats stats_;
};

}  // namespace

std::unique_ptr<NeighborAlltoallv> impl::make_standard(
    Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    const Options& opts) {
  return std::make_unique<StandardNeighbor>(ctx, graph, std::move(args), opts);
}

}  // namespace mpix
