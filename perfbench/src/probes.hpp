// probes.hpp — per-layer metrics of the traced run.
//
// Two sources, both outside the program: timed calls the benchmark makes
// into each module's public functions (pfs, rpc, client, core), and the
// counters and histograms the program already exports (ActiveClient and
// StorageServer stats, transport and dispatch-ring stats, the copy ledger,
// and the stage.* / ce.* / sched.* histograms of the obs registry).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "client/active_client.hpp"
#include "common/ring.hpp"
#include "core/cluster.hpp"
#include "rpc/transport.hpp"
#include "server/storage_server.hpp"

namespace perfbench {

using Metrics = std::map<std::string, double>;

/// Every per-layer metric name, in BENCHMARK.json order. A traced run
/// reports all of them; one a workload does not exercise reads 0.
const std::vector<std::string>& layer_metric_names();

/// Cumulative program counters of one cluster at one instant.
struct Counters {
  dosas::client::ActiveClient::Stats client;
  dosas::server::StorageServer::Stats server;  ///< summed over nodes
  dosas::rpc::TransportStats transport;
  dosas::RingStats dispatch;  ///< summed over nodes
  std::uint64_t bytes_copied = 0;
};
Counters snapshot(dosas::core::Cluster& cluster);

/// Counter-derived per-layer metrics over [before, after] for a phase that
/// completed `writes` writes. Prints each ratio with its base.
void counter_metrics(const Counters& before, const Counters& after, std::uint64_t writes,
                     Metrics& m);

/// Histogram-derived per-layer metrics (stage.*, ce.*, sched.*, client.*)
/// of the registry; `cls` is the stage class the stage metrics are read for.
void registry_metrics(const std::string& cls, Metrics& m);

/// Timed calls into pfs, rpc and the client on `cluster`: read_ref
/// bandwidth over `files`, small-object read_ref / write and a 4 KiB kRead
/// round trip; with `client_writes`, also ActiveClient::write latency of a
/// 64 KiB file.
void probe_layers(dosas::core::Cluster& cluster, const std::vector<dosas::pfs::FileMeta>& files,
                  bool client_writes, SpanLog& spans, Metrics& m);

/// Roofline metrics of the same run (common.memcpy_gbps, kernels.*).
void roofline_metrics(const Roofline& r, Metrics& m);

/// Wall-clock figures of an untraced closed-loop phase, as per-layer
/// metrics: client.ops_per_s, client.active_gbps, client.read_ex_p50_ms
/// and client.read_ex_p99_ms.
void wall_metrics(const ClosedLoopFigures& f, Metrics& m);

/// One line with a closed-loop phase's counts and wall-clock figures.
void print_wall_figures(const char* workload, std::uint64_t attempted, std::uint64_t failed,
                        double seconds, const ClosedLoopFigures& f);

}  // namespace perfbench
