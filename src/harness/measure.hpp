#pragma once
/// \file measure.hpp
/// \brief Experiment runner: reproduces the measurements behind Figures
/// 6-13 on the simulated machine.
///
/// Timing methodology (paper Section 4): the paper times 1000 Start/Wait
/// calls and averages, min over 3 runs, to suppress machine noise.  The
/// simulator is deterministic — for every `MeasureConfig::threads` width —
/// so a single simulated execution is exact; reported times are the
/// maximum rank-local elapsed virtual time.
///
/// Every driver here (and `run_distributed_amg`) is one rank program over
/// the same plumbing, each decision made in one place: `simulate` builds
/// the engine, `WindowTimes` stamps per-window rank times and reports their
/// max, `reduce` folds per-rank `mpix::NeighborStats` into the
/// `StatsSummary` both measurement structs inherit, and `cache_key`
/// (exchange.hpp) keys every cached plan.  Dense alltoall sweeps run the
/// `patterns::uniform_dense` workload through `measure_pattern_dense`.
///
/// Two in-process caches amortize repeated runs: `MeasureConfig::plans`
/// (locality setup per halo pattern, see harness::PlanCache) and the
/// single-entry `paper_hierarchy` / `paper_dist_hierarchy` memos, so a
/// binary that measures one hierarchy many times builds it once.

#include <algorithm>
#include <span>
#include <vector>

#include "amg/distribute.hpp"
#include "amg/hierarchy.hpp"
#include "harness/exchange.hpp"
#include "mpix/alltoall.hpp"
#include "patterns/pattern.hpp"
#include "simmpi/engine.hpp"

namespace harness {

/// Sender-side message counters (mpix::NeighborStats) of one collective,
/// reduced over all ranks of the simulated machine.
struct StatsSummary {
  long sum_local_msgs = 0;         ///< intra-region messages, all ranks
  long sum_global_msgs = 0;        ///< network messages, all ranks
  long sum_local_values = 0;
  long sum_global_values = 0;
  long max_local_msgs = 0;         ///< max per rank (Figure 8)
  long max_global_msgs = 0;        ///< max per rank (Figure 9)
  long max_local_values = 0;       ///< max per-rank local value total
  long max_global_values = 0;      ///< max per-rank global value total
  long max_global_msg_values = 0;  ///< largest single network message (Fig. 10)
  /// Network messages crossing each link tier, summed over ranks: one
  /// entry per machine link tier (empty on flat machines) — a static
  /// property of the method's plan, counted whether or not the link cap
  /// charges for them.
  std::vector<long> sum_link_msgs;
};

/// Sums and maxima of `ranks` (one entry per rank); `sum_link_msgs` gets
/// `link_tiers` entries (simmpi::Machine::num_link_tiers).
StatsSummary reduce(std::span<const mpix::NeighborStats> ranks,
                    int link_tiers);

/// Measurements of one protocol on one AMG level.
struct LevelMeasurement : StatsSummary {
  int level = 0;
  long rows = 0;
  double init_seconds = 0.0;        ///< topology + collective init (max rank)
  double start_wait_seconds = 0.0;  ///< one Start+Wait (max rank)
};

/// Configuration of a measurement run.
struct MeasureConfig {
  int ranks_per_region = 16;  ///< the paper's Lassen setting
  /// NUMA regions per node of the simulated machine.  1 (the default)
  /// keeps the paper's one-region-per-node layout and allows a single
  /// partially filled region; >1 requires nranks to be a multiple of
  /// regions_per_node * ranks_per_region.
  int regions_per_node = 1;
  /// Switch hierarchy of the simulated machine (fat-tree core),
  /// bottom-up; see simmpi::MachineConfig::switch_levels.  Empty (the
  /// default) keeps the flat core.  Pair with `cost.use_link_cap` to
  /// charge shared up/down links; the shape alone changes nothing.
  std::vector<simmpi::SwitchLevel> switch_levels;
  simmpi::CostParams cost = simmpi::CostParams::lassen();
  /// Scheduler width of the simulation engine (simmpi::Engine::Options
  /// ::threads: 0 = auto via COLLOM_SIM_THREADS / hardware concurrency).
  /// Any value produces the same measured virtual times.
  int threads = 0;
  bool lpt_balance = true;  ///< leader assignment (ablation knob)
  /// Optional locality-plan reuse (see harness::PlanCache): the runners
  /// key each level's exchanges by the global halo fingerprint, so a solve
  /// or measurement repeated on the same hierarchy re-binds cached plans
  /// instead of redoing the aggregation setup communication.
  PlanCache* plans = nullptr;
  /// Optional fault schedule attached to the engine of every driver before
  /// its run (see simmpi::FaultPlan and `simulate`).  nullptr — the
  /// default — keeps the engine's byte-inert fault-free hot path, so series
  /// without a plan are bit-identical to builds that predate fault
  /// injection.  Every event applies to the whole run.  A plan that drops
  /// messages completes only where `reliability` is forwarded (the pattern
  /// runners): `measure_protocol` and `run_distributed_amg` forward none,
  /// so a dropped message there ends the run in the engine's deadlock
  /// SimError.
  const simmpi::FaultPlan* faults = nullptr;
  /// Reliable-delivery knobs forwarded to every collective the pattern
  /// runners initialize (mpix::Options::reliability).  Off by default;
  /// required for completion when `faults` drops messages.
  mpix::Reliability reliability{};
};

/// The simulated machine of a measurement: `nranks` ranks in cfg's
/// region, node and switch shape.  Throws SimError naming the field when
/// `cfg.ranks_per_region` or `cfg.regions_per_node` is below 1, and when
/// `cfg.regions_per_node > 1` and nranks is not a multiple of
/// regions_per_node * ranks_per_region.
simmpi::Machine machine_for(int nranks, const MeasureConfig& cfg);

/// The one engine of every harness driver: runs `program` on every rank of
/// `machine` under `cfg.cost` and `cfg.threads`, with `cfg.faults`
/// attached.
void simulate(const simmpi::Machine& machine, const MeasureConfig& cfg,
              const simmpi::Engine::RankProgram& program);

/// Per-window, per-rank virtual-time stamps of one simulated run: rank r
/// stamps its elapsed time in window w, and each window reports the max
/// over ranks (the timing rule of the file brief).  Ranks write disjoint
/// slots, so concurrent stamping from the engine's workers is safe.
class WindowTimes {
 public:
  WindowTimes(int windows, int nranks)
      : nranks_(nranks),
        t_(static_cast<std::size_t>(windows) * nranks, 0.0) {}
  void stamp(int window, int rank, double seconds) {
    t_[static_cast<std::size_t>(window) * nranks_ + rank] = seconds;
  }
  double max(int window) const {
    const auto first =
        t_.begin() + static_cast<std::ptrdiff_t>(window) * nranks_;
    return *std::max_element(first, first + nranks_);
  }

 private:
  int nranks_;
  std::vector<double> t_;
};

/// Measure one protocol across every level of a distributed hierarchy.
/// Runs the full simulated machine; returns one entry per level.
std::vector<LevelMeasurement> measure_protocol(const amg::DistHierarchy& dh,
                                               Protocol protocol,
                                               const MeasureConfig& cfg = {});

/// Measurements of one generated workload (patterns layer) under one
/// method.  Three simulated windows, each bracketed by `Engine::sync_reset`
/// and reported as the max rank-local elapsed virtual time:
///  * init — topology + collective init (plan-cache-aware),
///  * blocking — start; wait; then the workload's overlap window of
///    simulated compute (communication and compute serialize),
///  * overlapped — start; compute; wait (compute hides transfer time).
/// With a non-zero overlap window, overlapped <= blocking always, and the
/// gap is the pattern's exploitable overlap.
struct PatternMeasurement : StatsSummary {
  double init_seconds = 0.0;
  double blocking_seconds = 0.0;
  double overlapped_seconds = 0.0;
  double overlap_seconds = 0.0;  ///< simulated compute charged per window
  /// Shared-link contention of the blocking window, one entry per link
  /// tier (empty on flat machines): occupancy summed over all ranks, and
  /// the worst per-rank queue backlog.  All zeros while
  /// `MeasureConfig::cost.use_link_cap` is off.
  std::vector<double> link_seconds;
  std::vector<double> max_link_backlog_seconds;
  /// Fault-injection and reliability activity of the two measured windows
  /// (blocking + overlapped), summed over ranks
  /// (simmpi::Engine::FaultStats).  All zeros without
  /// MeasureConfig::faults.
  long drops = 0;
  long retransmits = 0;
  long timeouts = 0;
};

/// Run one generated workload through a sparse neighbor method
/// (`mpix::neighbor_alltoallv_init` over the pattern's adjacency).  Both
/// windows' delivered bytes are checked against the pattern's gid scheme.
/// `cfg.plans` caches locality plans keyed by (workload fingerprint,
/// method, machine shape).
PatternMeasurement measure_pattern(const patterns::Workload& wl,
                                   mpix::Method method,
                                   const MeasureConfig& cfg = {},
                                   std::size_t element_size = sizeof(double));

/// Run one generated workload through a dense alltoallv method (counts
/// expanded to one entry per rank, zero for non-neighbors).  On
/// `patterns::uniform_dense` this is the dense alltoall: its
/// `blocking_seconds` is one Start+Wait.
PatternMeasurement measure_pattern_dense(
    const patterns::Workload& wl, mpix::AlltoallMethod method,
    const MeasureConfig& cfg = {}, std::size_t element_size = sizeof(double));

/// Figure 6: cost of creating the per-level topology communicators
/// (dist_graph_create_adjacent once per level), for one graph algorithm:
/// the max over ranks of each rank's sum over levels.
double measure_graph_creation(const amg::DistHierarchy& dh,
                              simmpi::GraphAlgo algo,
                              const MeasureConfig& cfg = {});

/// Sum of per-level Start+Wait times (Figures 12/13), optionally taking the
/// cheaper of `self` and `baseline` per level ("maximum possible
/// improvement" selection of Section 4.2).
double total_time(const std::vector<LevelMeasurement>& self,
                  const std::vector<LevelMeasurement>* baseline = nullptr);

/// Smallest iteration count at which `opt` (init + k * iter) beats `base`;
/// -1 if never within `max_iters` (Figure 7 crossovers).
int crossover_iterations(double base_init, double base_iter, double opt_init,
                         double opt_iter, int max_iters = 100000);

/// Build (and memoize per rows) the canonical hierarchy of the paper's
/// rotated anisotropic diffusion problem with `rows` unknowns.  The
/// construction width is amg::Options::threads' auto default
/// (COLLOM_BUILD_THREADS, else COLLOM_SIM_THREADS, else hardware); it never
/// changes the built hierarchy.
const amg::Hierarchy& paper_hierarchy(long rows);

/// Single-entry memo of
/// `amg::distribute_hierarchy(paper_hierarchy(rows), nranks)`.
const amg::DistHierarchy& paper_dist_hierarchy(long rows, int nranks);

}  // namespace harness
