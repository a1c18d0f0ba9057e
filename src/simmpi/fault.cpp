#include "simmpi/fault.hpp"

#include <string>

namespace simmpi {

const char* to_string(FaultSpec::Kind k) {
  switch (k) {
    case FaultSpec::Kind::link_brownout: return "link_brownout";
    case FaultSpec::Kind::msg_drop: return "msg_drop";
  }
  return "?";
}

namespace {

[[noreturn]] void fail_range(std::size_t i, const char* name,
                             const std::string& constraint, double got) {
  throw SimError("FaultPlan: events[" + std::to_string(i) + "]." + name +
                 " must be " + constraint + " (got " + std::to_string(got) +
                 ")");
}

}  // namespace

void validate_fault_plan(const FaultPlan& plan) {
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultSpec& e = plan.events[i];
    switch (e.kind) {
      case FaultSpec::Kind::link_brownout:
        if (!(e.severity > 0.0 && e.severity <= 1.0))
          fail_range(i, "severity", "in (0, 1]", e.severity);
        break;
      case FaultSpec::Kind::msg_drop:
        if (!(e.rate >= 0.0 && e.rate <= 1.0))
          fail_range(i, "rate", "in [0, 1]", e.rate);
        break;
    }
    // Two events of one kind would stack ambiguously (which severity
    // applies?  do rates add?) — reject, like MachineConfig rejects shapes
    // it would have to guess about.
    for (std::size_t j = 0; j < i; ++j)
      if (plan.events[j].kind == e.kind)
        throw SimError("FaultPlan: events[" + std::to_string(j) + "] and "
                       "events[" + std::to_string(i) + "] repeat kind " +
                       to_string(e.kind) + "; give each kind at most once");
  }
}

namespace {

/// SplitMix64 finalizer: the standard avalanche, applied counter-mode.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

double fault_uniform(std::uint64_t seed, const ChannelKey& key,
                     std::uint64_t seq) {
  std::uint64_t h = splitmix64(seed);
  h = splitmix64(h ^ ((static_cast<std::uint64_t>(key.ctx) << 32) |
                      static_cast<std::uint32_t>(key.tag)));
  h = splitmix64(
      h ^ ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.src))
            << 32) |
           static_cast<std::uint32_t>(key.dst)));
  h = splitmix64(h ^ seq);
  // 53 high bits -> [0, 1): every double in the range is reachable and
  // the map is exact (no rounding), so thresholds compare reproducibly.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace simmpi
