#include "workloads.hpp"

#include "obs/metrics.hpp"

namespace perfbench {

using namespace dosas;

SetupTimes timed_setups(int rounds, const core::ClusterConfig& config,
                        const std::function<double(core::Cluster&)>& populate,
                        std::unique_ptr<core::Cluster>& kept) {
  std::vector<double> total, build, fill;
  for (int r = 0; r < rounds; ++r) {
    kept.reset();  // the previous round's cluster is torn down outside the timing
    const double t0 = now_s();
    kept = std::make_unique<core::Cluster>(config);
    const double b = now_s() - t0;
    const double p = populate(*kept);
    build.push_back(b);
    fill.push_back(p);
    total.push_back(b + p);
  }
  return {median(total), median(build), median(fill)};
}

void begin_traced_phase() {
  obs::MetricsRegistry::global().clear();
  obs::MetricsRegistry::global().set_enabled(true);
}

}  // namespace perfbench
