// workloads.hpp — the three workloads and the set-up helper they share.
#pragma once

#include <functional>
#include <memory>

#include "bench.hpp"
#include "core/cluster.hpp"

namespace perfbench {

/// stream-sum: whole-file `sum` over striped files of tens of MiB, AS on
/// two one-core nodes — bound by bytes (PFS fill, stream_extent, kernel).
Outcome run_stream_sum(const Args& args, SpanLog& spans);

/// mixed-small: small Zipf-skewed reads (sum / minmax / gaussian2d) and
/// whole-file writes under DOSAS with a result cache smaller than the key
/// set — bound by per-request overhead.
Outcome run_mixed_small(const Args& args, SpanLog& spans);

/// contention-virtual: scale::run_scale under its VirtualClock, open-loop
/// two-tenant Poisson traffic past the crossover — bound by CE decisions.
Outcome run_contention_virtual(const Args& args, SpanLog& spans);

/// Build and populate `rounds` times (all but the last cluster are torn
/// down) and report the medians; `populate` returns the seconds spent in
/// the program's write calls.
struct SetupTimes {
  double setup_s = 0.0, build_s = 0.0, populate_s = 0.0;
};
SetupTimes timed_setups(int rounds, const dosas::core::ClusterConfig& config,
                        const std::function<double(dosas::core::Cluster&)>& populate,
                        std::unique_ptr<dosas::core::Cluster>& kept);

/// Enable the obs registry for a traced phase, starting from empty
/// histograms so the phase's stages do not mix with earlier ones.
void begin_traced_phase();

}  // namespace perfbench
