// stream-sum: closed loop of one client issuing whole-file
// read_ex(..., "sum") over four 32 MiB files striped in 1 MiB strips
// across two one-core AS nodes. No result cache, stalls or link model:
// nearly all the work is the PFS fill, stream_extent and the sum kernel.
#include "obs/metrics.hpp"
#include "pfs/client.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dosas;

namespace {

// Two nodes, not four: four busy node workers and the client on a 4-vCPU
// guest left no CPU for anything else, and ran slower and less steadily.
constexpr std::uint32_t kNodes = 2;
constexpr std::size_t kFiles = 4;
constexpr std::size_t kFileItems = (32u << 20) / sizeof(double);
// Fraction of the windows whose wall-clock figures count (see WindowLog).
constexpr double kKeptWindows = 0.2;
constexpr int kSetups = 5;  // setup_s is their median

struct Phase {
  explicit Phase(double seconds) : log(1, seconds, kKeptWindows) {}
  WindowLog log;
  std::uint64_t attempted = 0, failed = 0, mismatched = 0;
  double cpu_s = 0.0;  // process CPU time of the phase
};

/// One client on the calling thread. It already keeps both nodes busy
/// through its two-leg fan-out; a second client added only queueing,
/// whose tail did not repeat from run to run.
Phase run_phase(core::Cluster& cluster, const std::vector<pfs::FileMeta>& files,
                const std::vector<Reference>& refs, std::uint64_t seed, double seconds,
                SpanLog& spans) {
  Phase p(seconds);
  Rng rng(seed * 1000);
  const double c0 = process_cpu_s();
  const double t0 = now_s();
  while (now_s() < t0 + seconds) {
    const std::size_t f = rng.below(files.size());
    const auto req = spans.next_request();
    const double r0 = spans.now_us();
    const double s0 = now_s();
    auto pending = cluster.asc().read_ex_async(files[f], 0, files[f].size, "sum");
    const double r1 = spans.now_us();
    auto result = pending.wait();
    const double s1 = now_s();
    const double r2 = spans.now_us();
    spans.record("client.read_ex_async", "client", r0, r1, req, 1);
    spans.record("client.wait", "client", r1, r2, req, 2);
    spans.record("client.read_ex", "client", r0, r2, req);
    ++p.attempted;
    if (!result.is_ok()) {
      ++p.failed;
      continue;
    }
    if (!result_matches("sum", result.value(), refs[f])) ++p.mismatched;
    p.log.add(0, s1 - t0, (s1 - s0) * 1e3, static_cast<double>(files[f].size), true);
  }
  p.cpu_s = process_cpu_s() - c0;
  p.log.finish();
  return p;
}

}  // namespace

Outcome run_stream_sum(const Args& args, SpanLog& spans) {
  core::ClusterConfig cfg;
  cfg.storage_nodes = kNodes;
  cfg.strip_size = 1_MiB;
  cfg.cores_per_node = 1;
  cfg.scheme = core::SchemeKind::kActive;

  std::vector<Reference> refs(kFiles);
  std::vector<pfs::FileMeta> files(kFiles);
  bool first = true;
  auto populate = [&](core::Cluster& cluster) {
    double spent = 0.0;
    for (std::size_t f = 0; f < kFiles; ++f) {
      const auto image = file_image(args.seed, f, kFileItems);
      if (first) {
        refs[f] = reference_of(
            std::span(reinterpret_cast<const double*>(image.data()), kFileItems), false);
      }
      const double t0 = now_s();
      auto meta = pfs::write_file(cluster.pfs_client(), "/stream/f" + std::to_string(f), image);
      spent += now_s() - t0;
      if (!meta.is_ok()) std::abort();
      files[f] = meta.value();
    }
    first = false;
    return spent;
  };
  std::unique_ptr<core::Cluster> cluster;
  const SetupTimes setup = timed_setups(kSetups, cfg, populate, cluster);

  Outcome out;
  SpanLog quiet(false);
  if (!args.trace) {
    const Phase p = run_phase(*cluster, files, refs, args.seed, args.seconds, quiet);
    out.correct = p.mismatched == 0;
    out.attempted = p.attempted;
    out.failed = p.failed;
    out.metrics["setup_s"] = setup.setup_s;
    out.metrics["cpu_ms_per_op"] = p.cpu_s * 1e3 / static_cast<double>(p.attempted);
    print_wall_figures("stream-sum", p.attempted, p.failed, args.seconds, p.log.figures());
    return out;
  }

  // Traced: an untraced half for the overhead base, then a traced half.
  const Phase base = run_phase(*cluster, files, refs, args.seed, args.seconds / 2, quiet);
  begin_traced_phase();
  const Counters before = snapshot(*cluster);
  const Phase traced =
      run_phase(*cluster, files, refs, args.seed + 1, args.seconds / 2, spans);
  const Counters after = snapshot(*cluster);
  out.correct = base.mismatched == 0 && traced.mismatched == 0;
  out.attempted = base.attempted + traced.attempted;
  out.failed = base.failed + traced.failed;
  auto& m = out.metrics;
  counter_metrics(before, after, 0, m);
  registry_metrics("sum", m);
  obs::MetricsRegistry::global().set_enabled(false);
  m["core.cluster_build_s"] = setup.build_s;
  m["core.populate_s"] = setup.populate_s;
  const ClosedLoopFigures wall = base.log.figures();
  wall_metrics(wall, m);
  const double traced_p50 = traced.log.figures().read_p50_ms;
  const double base_p50 = wall.read_p50_ms;
  m["obs.tracing_overhead_frac"] = traced_p50 / base_p50 - 1.0;
  std::printf("tracing overhead: read_ex p50 traced %.4f ms / untraced %.4f ms - 1\n",
              traced_p50, base_p50);
  probe_layers(*cluster, files, /*client_writes=*/true, spans, m);
  return out;
}

}  // namespace perfbench
