#include "probes.hpp"

#include "common/arena.hpp"
#include "obs/metrics.hpp"
#include "pfs/client.hpp"

namespace perfbench {

using namespace dosas;

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "core.cluster_build_s",
      "core.populate_s",
      "common.memcpy_gbps",
      "common.bytes_copied_per_read",
      "common.dispatch_cas_retries_per_req",
      "common.ring_parks_per_req",
      "pfs.read_ref_gbps",
      "pfs.read_ref_p50_us",
      "pfs.write_p50_us",
      "kernels.sum_gbps",
      "kernels.sum_roofline_frac",
      "kernels.gaussian2d_gbps",
      "rpc.roundtrip_p50_us",
      "rpc.transport_p50_us",
      "rpc.inflight_hwm",
      "rpc.bytes_charged_per_read",
      "server.queue_wait_p50_us",
      "server.queue_wait_p99_us",
      "server.kernel_exec_p50_us",
      "server.cache_hit_ratio",
      "server.cache_invalidations_per_write",
      "server.ce_decision_p50_us",
      "server.rejected_per_req",
      "server.interrupted_per_req",
      "sched.solver_p50_us",
      "sched.demotion_rate",
      "sched.makespan_vs_best_static",
      "sched.p99_vs_best_static",
      "client.fanout_legs_per_read",
      "client.raw_bytes_per_read",
      "client.result_bytes_per_read",
      "client.local_kernel_runs_per_read",
      "client.local_kernel_p50_us",
      "client.unaccounted_p50_us",
      "client.write_p50_ms",
      "client.write_p99_ms",
      "client.ops_per_s",
      "client.active_gbps",
      "client.read_ex_p50_ms",
      "client.read_ex_p99_ms",
      "obs.tracing_overhead_frac",
      "scale.generator_late_max_ms",
      "scale.virtual_makespan_s",
  };
  return names;
}

Counters snapshot(core::Cluster& cluster) {
  Counters c;
  c.client = cluster.asc().stats();
  c.transport = cluster.asc().transport_stats();
  c.bytes_copied = data_bytes_copied();
  for (std::uint32_t i = 0; i < cluster.storage_node_count(); ++i) {
    auto& s = cluster.storage_server(i);
    const auto st = s.stats();
    c.server.active_completed += st.active_completed;
    c.server.active_rejected += st.active_rejected;
    c.server.active_interrupted += st.active_interrupted;
    c.server.active_failed += st.active_failed;
    c.server.cache_hits += st.cache_hits;
    c.server.cache_misses += st.cache_misses;
    c.server.cache_invalidations += st.cache_invalidations;
    c.dispatch += s.dispatch_ring_stats();
  }
  return c;
}

namespace {

/// Set m[name] = num / den and print the ratio with its base.
void put_ratio(Metrics& m, const std::string& name, double num, double den) {
  m[name] = ratio(num, den);
  std::printf("  %-38s %14.6g = %.6g / %.6g\n", name.c_str(), m[name], num, den);
}

double d(std::uint64_t after, std::uint64_t before) {
  return static_cast<double>(after - before);
}

bool has_histogram(const std::string& name) {
  const auto names = obs::MetricsRegistry::global().histogram_names();
  return std::binary_search(names.begin(), names.end(), name);
}

obs::Histogram::Summary summary_of(const std::string& name) {
  if (!has_histogram(name)) return {};
  return obs::MetricsRegistry::global().histogram(name).summary();
}

}  // namespace

void counter_metrics(const Counters& b, const Counters& a, std::uint64_t writes, Metrics& m) {
  const double reads = d(a.client.reads_ex, b.client.reads_ex);
  const double legs = d(a.server.active_completed, b.server.active_completed) +
                      d(a.server.active_rejected, b.server.active_rejected) +
                      d(a.server.active_interrupted, b.server.active_interrupted) +
                      d(a.server.active_failed, b.server.active_failed);
  std::printf("per-layer ratios (value = numerator / base):\n");
  put_ratio(m, "common.bytes_copied_per_read", d(a.bytes_copied, b.bytes_copied), reads);
  put_ratio(m, "common.dispatch_cas_retries_per_req",
            d(a.dispatch.push_cas_retries + a.dispatch.pop_cas_retries,
              b.dispatch.push_cas_retries + b.dispatch.pop_cas_retries),
            reads);
  put_ratio(m, "common.ring_parks_per_req",
            d(a.dispatch.producer_parks + a.dispatch.consumer_parks,
              b.dispatch.producer_parks + b.dispatch.consumer_parks),
            reads);
  m["rpc.inflight_hwm"] = static_cast<double>(a.transport.inflight_hwm);
  put_ratio(m, "rpc.bytes_charged_per_read", d(a.transport.bytes_charged, b.transport.bytes_charged),
            reads);
  const double hits = d(a.server.cache_hits, b.server.cache_hits);
  put_ratio(m, "server.cache_hit_ratio", hits,
            hits + d(a.server.cache_misses, b.server.cache_misses));
  put_ratio(m, "server.cache_invalidations_per_write",
            d(a.server.cache_invalidations, b.server.cache_invalidations),
            static_cast<double>(writes));
  put_ratio(m, "server.rejected_per_req", d(a.server.active_rejected, b.server.active_rejected),
            reads);
  put_ratio(m, "server.interrupted_per_req",
            d(a.server.active_interrupted, b.server.active_interrupted), reads);
  put_ratio(m, "sched.demotion_rate",
            d(a.client.demoted + a.client.resumed_local, b.client.demoted + b.client.resumed_local),
            reads);
  put_ratio(m, "client.fanout_legs_per_read", legs, reads);
  put_ratio(m, "client.raw_bytes_per_read", d(a.client.raw_bytes_read, b.client.raw_bytes_read),
            reads);
  put_ratio(m, "client.result_bytes_per_read",
            d(a.client.result_bytes_received, b.client.result_bytes_received), reads);
  put_ratio(m, "client.local_kernel_runs_per_read",
            d(a.client.local_kernel_runs, b.client.local_kernel_runs), reads);
}

void registry_metrics(const std::string& cls, Metrics& m) {
  const auto transport = summary_of("stage.transport_us." + cls);
  const auto queue = summary_of("stage.queue_wait_us." + cls);
  const auto kernel = summary_of("stage.kernel_exec_us." + cls);
  const auto e2e = summary_of("stage.e2e_us." + cls);
  m["rpc.transport_p50_us"] = transport.p50;
  m["server.queue_wait_p50_us"] = queue.p50;
  m["server.queue_wait_p99_us"] = queue.p99;
  m["server.kernel_exec_p50_us"] = kernel.p50;
  m["server.ce_decision_p50_us"] = summary_of("ce.decision_us").p50;
  m["client.local_kernel_p50_us"] = summary_of("client.local_kernel_us").p50;
  // The solver histogram is per strategy; report the busiest one.
  obs::Histogram::Summary solver;
  for (const auto& name : obs::MetricsRegistry::global().histogram_names()) {
    if (name.rfind("sched.solver_us.", 0) != 0) continue;
    const auto s = obs::MetricsRegistry::global().histogram(name).summary();
    if (s.count > solver.count) solver = s;
  }
  m["sched.solver_p50_us"] = solver.p50;
  m["client.unaccounted_p50_us"] =
      e2e.count == 0 ? 0.0 : e2e.p50 - (transport.p50 + queue.p50 + kernel.p50);
  std::printf("stage p50s for class %s (us): e2e %.1f = transport %.1f + queue %.1f + "
              "kernel %.1f + unaccounted %.1f  (samples: e2e %zu, queue %zu)\n",
              cls.c_str(), e2e.p50, transport.p50, queue.p50, kernel.p50,
              m["client.unaccounted_p50_us"], e2e.count, queue.count);
}

void probe_layers(core::Cluster& cluster, const std::vector<pfs::FileMeta>& files,
                  bool client_writes, SpanLog& spans, Metrics& m) {
  auto& pfs = cluster.pfs_client();

  // pfs.read_ref bandwidth over the workload's own files.
  {
    std::size_t bytes = 0;
    const double t0 = now_s();
    do {
      for (const auto& f : files) {
        const auto req = spans.next_request();
        ScopedSpan span(spans, "pfs.read_ref", "pfs", req);
        auto r = pfs.read_ref(f, 0, f.size);
        if (!r.is_ok()) std::abort();
        bytes += r.value().size();
      }
    } while (now_s() - t0 < 0.25);
    m["pfs.read_ref_gbps"] = static_cast<double>(bytes) / (now_s() - t0) / 1e9;
  }

  // One small object: read_ref, write, and a 4 KiB kRead round trip.
  constexpr std::size_t kSmall = 4096;
  constexpr int kCalls = 400;
  pfs::StripingParams one;
  one.strip_size = kSmall;
  one.server_count = 1;
  auto small = pfs::write_file(pfs, "/perfbench/probe-small", std::vector<std::uint8_t>(kSmall, 7));
  if (!small.is_ok()) std::abort();
  const pfs::FileMeta meta = small.value();
  std::vector<double> read_us, write_us, rtt_us;
  const std::vector<std::uint8_t> payload(kSmall, 9);
  for (int i = 0; i < kCalls; ++i) {
    const auto req = spans.next_request();
    double t0 = now_s();
    {
      ScopedSpan span(spans, "pfs.read_ref", "pfs", req);
      if (!pfs.read_ref(meta, 0, kSmall).is_ok()) std::abort();
    }
    read_us.push_back((now_s() - t0) * 1e6);
    t0 = now_s();
    {
      ScopedSpan span(spans, "pfs.write", "pfs", req, 1);
      if (!pfs.write(meta, 0, payload).is_ok()) std::abort();
    }
    write_us.push_back((now_s() - t0) * 1e6);
    rpc::Envelope env;
    env.target = 0;
    env.kind = rpc::OpKind::kRead;
    env.read.handle = meta.handle;
    env.read.object_offset = 0;
    env.read.length = kSmall;
    t0 = now_s();
    {
      ScopedSpan span(spans, "rpc.submit_wait", "rpc", req, 2);
      const rpc::Reply reply = cluster.asc().transport().submit(std::move(env)).wait();
      if (!reply.status().is_ok() || reply.read.data.size() != kSmall) std::abort();
    }
    rtt_us.push_back((now_s() - t0) * 1e6);
  }
  m["pfs.read_ref_p50_us"] = median(read_us);
  m["pfs.write_p50_us"] = median(write_us);
  m["rpc.roundtrip_p50_us"] = median(rtt_us);

  if (client_writes) {
    constexpr std::size_t kItems = (64 << 10) / sizeof(double);
    auto target = pfs::write_file(pfs, "/perfbench/probe-write",
                                  std::vector<std::uint8_t>(kItems * sizeof(double), 0));
    if (!target.is_ok()) std::abort();
    std::vector<double> ms;
    for (int i = 0; i < 200; ++i) {
      const auto data = BufferRef::adopt(file_image(11, 11, kItems, i));
      const auto req = spans.next_request();
      const double t0 = now_s();
      {
        ScopedSpan span(spans, "client.write", "client", req);
        if (!cluster.asc().write(target.value(), 0, data).is_ok()) std::abort();
      }
      ms.push_back((now_s() - t0) * 1e3);
    }
    m["client.write_p50_ms"] = median(ms);
    m["client.write_p99_ms"] = percentile(ms, 99.0);
  }
}

void roofline_metrics(const Roofline& r, Metrics& m) {
  m["common.memcpy_gbps"] = r.memcpy_gbps;
  m["kernels.sum_gbps"] = r.sum_gbps;
  m["kernels.sum_roofline_frac"] = ratio(r.sum_gbps, r.memcpy_gbps);
  m["kernels.gaussian2d_gbps"] = r.gaussian2d_gbps;
}

void wall_metrics(const ClosedLoopFigures& f, Metrics& m) {
  m["client.ops_per_s"] = f.ops_per_s;
  m["client.active_gbps"] = f.gbps;
  m["client.read_ex_p50_ms"] = f.read_p50_ms;
  m["client.read_ex_p99_ms"] = f.read_p99_ms;
}

void print_wall_figures(const char* workload, std::uint64_t attempted, std::uint64_t failed,
                        double seconds, const ClosedLoopFigures& f) {
  std::printf("%s: %llu operations (%llu failed) in %.0f s; wall clock over the fastest %zu of "
              "%zu windows: %.1f ops/s, %.3f GB/s, read_ex p50 %.4f ms, p99 %.4f ms (%zu reads); "
              "window rates min %.1f, median %.1f, max %.1f ops/s\n",
              workload, static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), seconds, f.kept, f.windows, f.ops_per_s,
              f.gbps, f.read_p50_ms, f.read_p99_ms, f.reads, f.rate_min, f.rate_p50, f.rate_max);
}

}  // namespace perfbench
