#include "harness/measure.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <type_traits>

#include "sparse/stencil.hpp"

namespace harness {

using simmpi::Context;
using simmpi::Engine;
using simmpi::Machine;
using simmpi::Task;

namespace {

/// Deterministic test value for global row id `g`.
double x_value(long g) { return 0.5 * static_cast<double>(g) + 1.0; }

/// The pattern runner behind measure_pattern{,_dense}: `method` is an
/// mpix::Method (neighbor path over the pattern's adjacency) or an
/// mpix::AlltoallMethod (dense alltoallv path).  Init charges the setup to
/// the clock, then the blocking and overlapped windows run and verify.
template <class M>
PatternMeasurement run_pattern(const patterns::Workload& wl, M method,
                               const MeasureConfig& cfg,
                               std::size_t element_size) {
  constexpr bool dense = std::is_same_v<M, mpix::AlltoallMethod>;
  const int p = wl.nranks;
  const Machine machine = machine_for(p, cfg);
  enum { kInit, kBlocking, kOverlapped, kWindows };
  WindowTimes times(kWindows, p);
  std::vector<mpix::NeighborStats> stats(p);
  std::vector<std::vector<Engine::LinkStats>> link_stats(p);
  std::vector<Engine::FaultStats> fault_block(p), fault_overlap(p);

  simulate(machine, cfg, [&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    patterns::RankBuffers buf = patterns::make_buffers(wl, r, element_size);
    mpix::AlltoallvArgs args =
        dense ? patterns::dense_args_view(wl, r, buf, element_size)
              : patterns::args_view(wl, r, buf, element_size);
    mpix::Options mopts{.lpt_balance = cfg.lpt_balance,
                        .reliability = cfg.reliability};

    co_await ctx.engine().sync_reset(ctx);
    std::unique_ptr<mpix::NeighborAlltoallv> coll;
    if constexpr (dense) {
      coll = co_await mpix::alltoallv_init(ctx, ctx.world(), std::move(args),
                                           method, std::move(mopts));
    } else {
      const patterns::RankExchange& ex = wl.ranks[r];
      simmpi::DistGraph g = co_await simmpi::dist_graph_create_adjacent(
          ctx, ctx.world(), ex.sources, ex.destinations,
          simmpi::GraphAlgo::handshake);
      coll = co_await mpix::neighbor_alltoallv_init(ctx, g, std::move(args),
                                                    method, std::move(mopts));
    }
    times.stamp(kInit, r, ctx.now());
    stats[r] = coll->stats();

    auto check = [&](const char* window) {
      const long bad = patterns::verify_recv(wl, r, buf, element_size);
      if (bad != 0)
        throw simmpi::SimError(
            std::string(dense ? "measure_pattern_dense" : "measure_pattern") +
            ": " + wl.pattern + " " + window + " window delivered " +
            std::to_string(bad) + " bad byte(s) on rank " + std::to_string(r));
    };

    // Blocking window: communication completes before the compute runs.
    co_await ctx.engine().sync_reset(ctx);
    co_await coll->start(ctx);
    co_await coll->wait(ctx);
    ctx.compute(wl.overlap_seconds);
    times.stamp(kBlocking, r, ctx.now());
    check("blocking");
    // Blocking-window link and fault footprint: the barrier commits this
    // rank's journaled sends (and their link charges) before the next
    // sync_reset clears the stats.  It shifts phase alignment entering the
    // next window, so it runs only when the link cap or a fault plan makes
    // a footprint worth capturing: runs with neither keep the original
    // program, and their series, bit for bit (byte-inertness).
    if (cfg.cost.use_link_cap || cfg.faults) {
      co_await simmpi::coll::barrier(ctx, ctx.world());
      const auto& rs = ctx.engine().stats(r);
      if (cfg.cost.use_link_cap)
        link_stats[r].assign(rs.link.begin(), rs.link.end());
      fault_block[r] = rs.faults;
    }
    patterns::clear_recv(buf);

    // Overlapped window: the same compute is charged between start and
    // wait, hiding transfer time behind it.
    co_await ctx.engine().sync_reset(ctx);
    co_await coll->start(ctx);
    ctx.compute(wl.overlap_seconds);
    co_await coll->wait(ctx);
    times.stamp(kOverlapped, r, ctx.now());
    check("overlapped");

    co_await simmpi::coll::barrier(ctx, ctx.world());
    // Own counters only: this rank's sends were committed before its
    // waits completed, so the post-barrier read is settled.
    fault_overlap[r] = ctx.engine().stats(r).faults;
    co_return;
  });

  const int tiers = machine.num_link_tiers();
  PatternMeasurement out;
  static_cast<StatsSummary&>(out) = reduce(stats, tiers);
  out.init_seconds = times.max(kInit);
  out.blocking_seconds = times.max(kBlocking);
  out.overlapped_seconds = times.max(kOverlapped);
  out.overlap_seconds = wl.overlap_seconds;
  out.link_seconds.assign(tiers, 0.0);
  out.max_link_backlog_seconds.assign(tiers, 0.0);
  for (const auto& ls : link_stats)
    for (std::size_t t = 0; t < ls.size(); ++t) {
      out.link_seconds[t] += ls[t].busy_seconds;
      out.max_link_backlog_seconds[t] =
          std::max(out.max_link_backlog_seconds[t], ls[t].max_backlog_seconds);
    }
  for (const auto* window : {&fault_block, &fault_overlap})
    for (const Engine::FaultStats& f : *window) {
      out.drops += static_cast<long>(f.drops);
      out.retransmits += static_cast<long>(f.retransmits);
      out.timeouts += static_cast<long>(f.timeouts);
    }
  return out;
}

}  // namespace

Machine machine_for(int nranks, const MeasureConfig& cfg) {
  for (const auto& [field, value] :
       {std::pair{"ranks_per_region", cfg.ranks_per_region},
        std::pair{"regions_per_node", cfg.regions_per_node}})
    if (value < 1)
      throw simmpi::SimError(std::string("MeasureConfig::") + field +
                             " must be >= 1 (got " + std::to_string(value) +
                             ")");
  if (cfg.regions_per_node == 1) {
    Machine m = Machine::with_region_size(nranks, cfg.ranks_per_region);
    if (cfg.switch_levels.empty()) return m;
    simmpi::MachineConfig mc = m.config();
    mc.switch_levels = cfg.switch_levels;
    return Machine(mc);
  }
  const int per_node = cfg.regions_per_node * cfg.ranks_per_region;
  if (nranks % per_node != 0)
    throw simmpi::SimError(
        "MeasureConfig: nranks must be a multiple of regions_per_node * "
        "ranks_per_region (" +
        std::to_string(nranks) + " % " + std::to_string(per_node) + " != 0)");
  return Machine({.num_nodes = nranks / per_node,
                  .regions_per_node = cfg.regions_per_node,
                  .ranks_per_region = cfg.ranks_per_region,
                  .switch_levels = cfg.switch_levels});
}

void simulate(const Machine& machine, const MeasureConfig& cfg,
              const Engine::RankProgram& program) {
  Engine eng(machine, cfg.cost, Engine::Options{.threads = cfg.threads});
  if (cfg.faults) eng.set_fault_plan(*cfg.faults);
  eng.run(program);
}

StatsSummary reduce(std::span<const mpix::NeighborStats> ranks,
                    int link_tiers) {
  StatsSummary out;
  out.sum_link_msgs.assign(static_cast<std::size_t>(link_tiers), 0);
  for (const mpix::NeighborStats& s : ranks) {
    out.sum_local_msgs += s.local_msgs;
    out.sum_global_msgs += s.global_msgs;
    out.sum_local_values += s.local_values;
    out.sum_global_values += s.global_values;
    out.max_local_msgs = std::max(out.max_local_msgs, s.local_msgs);
    out.max_global_msgs = std::max(out.max_global_msgs, s.global_msgs);
    out.max_local_values = std::max(out.max_local_values, s.local_values);
    out.max_global_values = std::max(out.max_global_values, s.global_values);
    out.max_global_msg_values =
        std::max(out.max_global_msg_values, s.max_global_msg_values);
    for (std::size_t t = 0; t < s.link_msgs.size(); ++t)
      out.sum_link_msgs[t] += s.link_msgs[t];
  }
  return out;
}

PatternMeasurement measure_pattern(const patterns::Workload& wl,
                                   mpix::Method method,
                                   const MeasureConfig& cfg,
                                   std::size_t element_size) {
  return run_pattern(wl, method, cfg, element_size);
}

PatternMeasurement measure_pattern_dense(const patterns::Workload& wl,
                                         mpix::AlltoallMethod method,
                                         const MeasureConfig& cfg,
                                         std::size_t element_size) {
  return run_pattern(wl, method, cfg, element_size);
}

std::vector<LevelMeasurement> measure_protocol(const amg::DistHierarchy& dh,
                                               Protocol protocol,
                                               const MeasureConfig& cfg) {
  const int p = dh.nranks;
  const int nlevels = dh.num_levels();
  const Machine machine = machine_for(p, cfg);
  // Windows 2l and 2l+1: level l's init and its Start+Wait.
  WindowTimes times(2 * nlevels, p);
  std::vector<std::vector<mpix::NeighborStats>> stats(
      nlevels, std::vector<mpix::NeighborStats>(p));

  simulate(machine, cfg, [&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    // One test vector reused across levels: level 0 is the largest, so the
    // first resize fixes the capacity and the per-level loop stays off the
    // heap (same buffer-hoisting rule as the engine hot path).
    std::vector<double> x;
#ifndef NDEBUG
    std::size_t x_cap = 0;
#endif
    for (int l = 0; l < nlevels; ++l) {
      const auto& lvl = dh.levels[l];
      const auto& halo = lvl.halo.ranks[r];
      const long first = lvl.A.row_part[r];
      const long nloc = lvl.A.row_part[r + 1] - first;
      x.resize(nloc);
#ifndef NDEBUG
      if (l == 0) x_cap = x.capacity();
      assert(x.capacity() == x_cap);  // levels shrink; no regrowth
#endif
      for (long i = 0; i < nloc; ++i) x[i] = x_value(first + i);

      // Init cost: topology creation + collective initialization.
      co_await ctx.engine().sync_reset(ctx);
      auto ex = co_await make_halo_exchange(ctx, ctx.world(), protocol, halo,
                                            {.lpt_balance = cfg.lpt_balance});
      times.stamp(2 * l, r, ctx.now());
      stats[l][r] = ex->stats();

      // One Start+Wait (deterministic, so one execution is exact).
      co_await ctx.engine().sync_reset(ctx);
      co_await ex->start(ctx, x);
      co_await ex->wait(ctx);
      times.stamp(2 * l + 1, r, ctx.now());

      auto xe = ex->x_ext();
      for (std::size_t k = 0; k < xe.size(); ++k)
        if (xe[k] != x_value(halo.recv_gids[k]))
          throw simmpi::SimError(
              "measure_protocol: halo verification failed (protocol " +
              std::string(to_string(protocol)) + ", level " +
              std::to_string(l) + ")");
      // Drain any asymmetric completion before the next level's reset.
      co_await simmpi::coll::barrier(ctx, ctx.world());
    }
    co_return;
  });

  std::vector<LevelMeasurement> out(nlevels);
  for (int l = 0; l < nlevels; ++l) {
    static_cast<StatsSummary&>(out[l]) =
        reduce(stats[l], machine.num_link_tiers());
    out[l].level = l;
    out[l].rows = dh.levels[l].n();
    out[l].init_seconds = times.max(2 * l);
    out[l].start_wait_seconds = times.max(2 * l + 1);
  }
  return out;
}

double measure_graph_creation(const amg::DistHierarchy& dh,
                              simmpi::GraphAlgo algo,
                              const MeasureConfig& cfg) {
  const int p = dh.nranks;
  // One window holding each rank's sum over levels: the figure reports the
  // max of those sums, not the sum of per-level maxima.
  WindowTimes times(1, p);
  simulate(machine_for(p, cfg), cfg, [&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    double total = 0.0;
    for (int l = 0; l < dh.num_levels(); ++l) {
      const auto& halo = dh.levels[l].halo.ranks[r];
      co_await ctx.engine().sync_reset(ctx);
      auto g = co_await simmpi::dist_graph_create_adjacent(
          ctx, ctx.world(), halo.recv_ranks, halo.send_ranks, algo);
      total += ctx.now();
      (void)g;
      co_await simmpi::coll::barrier(ctx, ctx.world());
    }
    times.stamp(0, r, total);
    co_return;
  });
  return times.max(0);
}

double total_time(const std::vector<LevelMeasurement>& self,
                  const std::vector<LevelMeasurement>* baseline) {
  double t = 0.0;
  for (std::size_t l = 0; l < self.size(); ++l) {
    double v = self[l].start_wait_seconds;
    if (baseline) v = std::min(v, (*baseline)[l].start_wait_seconds);
    t += v;
  }
  return t;
}

int crossover_iterations(double base_init, double base_iter, double opt_init,
                         double opt_iter, int max_iters) {
  for (int k = 0; k <= max_iters; ++k) {
    if (opt_init + k * opt_iter < base_init + k * base_iter) return k;
  }
  return -1;
}

amg::Hierarchy paper_hierarchy(long rows) {
  int nx = 0, ny = 0;
  sparse::factor_grid(rows, nx, ny);
  return amg::Hierarchy::build(sparse::paper_problem(nx, ny));
}

amg::DistHierarchy paper_dist_hierarchy(long rows, int nranks) {
  return amg::distribute_hierarchy(paper_hierarchy(rows), nranks);
}

}  // namespace harness
