// mixed-small: closed loop, one client thread keeping a window of 16
// active reads outstanding, over 320 single-strip files of 64-256 KiB
// and 16 striped 1 MiB files on four one-core DOSAS nodes. Keys are
// Zipf-skewed; reads mix sum / minmax / gaussian2d; one operation in five
// is a whole-file ActiveClient::write that installs a new version. The
// per-node result cache (32 entries) is smaller than the key set, so hits,
// evictions and invalidations all occur. Few bytes move per request: the
// rpc envelope, the CE decision, admission, the cache and client fan-out
// set the pace.
#include <deque>
#include <thread>

#include "common/arena.hpp"
#include "obs/metrics.hpp"
#include "pfs/client.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dosas;

namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::size_t kSingle = 320;  // single-strip files; the writable ones
constexpr std::size_t kStriped = 16;
constexpr std::size_t kFiles = kSingle + kStriped;
// One thread with 16 outstanding reads, not four with 4 each: every
// request then wakes fewer sleeping threads, whose wake-ups cost more CPU
// the busier the shared host is (CPU per operation spread 4% against 15%).
constexpr std::size_t kClients = 1;
constexpr std::size_t kWindow = 16;
constexpr double kWriteShare = 0.2;
constexpr double kZipfTheta = 0.9;
constexpr std::size_t kReadbackEvery = 16;  // sampled write read-back
constexpr int kSetups = 7;  // setup_s is their median
// Fraction of the windows whose wall-clock figures count (see WindowLog).
constexpr double kKeptWindows = 0.2;

/// 64, 128, 192 or 256 KiB (whole gaussian rows); striped files are 1 MiB.
std::size_t file_items(std::size_t f) {
  const std::size_t bytes = f < kSingle ? (64u << 10) * (1 + f % 4) : (1u << 20);
  return bytes / sizeof(double);
}

const std::string& read_operation(Rng& rng) {
  static const std::string sum = "sum", minmax = "minmax";
  const double u = rng.uniform();
  return u < 0.5 ? sum : u < 0.75 ? minmax : kGaussOp;
}

/// Version bookkeeping of one file: a write of version v bumps `started`
/// to v before it is submitted and `committed` to v once it returns, so
/// any read that overlaps it may see v-1 or v.
struct Versions {
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> committed{0};
};

struct Inputs {
  std::vector<pfs::FileMeta> files;
  std::vector<Reference> refs;                  // version 0
  std::vector<std::vector<std::uint16_t>> base;  // version-0 items, writable files
  std::unique_ptr<Versions[]> versions{new Versions[kFiles]};
};

struct Counts {
  std::uint64_t attempted = 0, failed = 0, mismatched = 0, writes = 0;
};

struct Phase {
  explicit Phase(double seconds) : log(kClients, seconds, kKeptWindows) {}
  WindowLog log;  // reads and writes
  Counts counts;
  double cpu_s = 0.0;  // process CPU time of the phase
};

struct Inflight {
  client::ActiveClient::PendingReadEx pending;
  std::size_t file = 0;
  const std::string* operation = nullptr;
  std::uint64_t lowest_version = 0;
  double t0 = 0.0, span_t0 = 0.0;
  std::uint64_t request = 0;
};

Phase run_phase(core::Cluster& cluster, Inputs& in, std::uint64_t seed, double seconds,
                SpanLog& spans) {
  // Rank orders whose size class per rank is the same for every seed (a
  // striped file at every 21st rank, single-strip sizes cycling), so the
  // bytes a read moves do not depend on which file the seed makes hot.
  std::vector<std::uint64_t> order, write_order(kSingle);
  for (std::size_t r = 0, single = 0, striped = kSingle; r < kFiles; ++r) {
    order.push_back(r % 21 == 20 ? striped++ : single++);
  }
  for (std::size_t f = 0; f < kSingle; ++f) write_order[f] = f;
  auto size_class = [](std::uint64_t f) { return f < kSingle ? f % 4 : 4; };
  const Zipf zipf(shuffle_within_classes(order, size_class, seed), kZipfTheta);
  const Zipf write_zipf(shuffle_within_classes(write_order, size_class, seed + 7), kZipfTheta);
  Phase all(seconds);
  std::vector<Counts> per(kClients);
  const double c0 = process_cpu_s();
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Counts& p = per[c];
      Rng rng(seed * 1000 + c);
      std::deque<Inflight> window;

      auto complete_oldest = [&] {
        Inflight op = std::move(window.front());
        window.pop_front();
        const double w0 = spans.now_us();
        auto result = op.pending.wait();
        const double t1 = now_s();
        const double w1 = spans.now_us();
        spans.record("client.wait", "client", w0, w1, op.request, 2);
        spans.record("client.read_ex", "client", op.span_t0, w1, op.request);
        if (!result.is_ok()) {
          ++p.failed;
          return;
        }
        // Some version live between submit and completion must explain it.
        const std::uint64_t highest = in.versions[op.file].started.load();
        bool ok = false;
        for (std::uint64_t v = op.lowest_version; v <= highest && !ok; ++v) {
          ok = result_matches(*op.operation, result.value(), in.refs[op.file].at(v));
        }
        if (!ok) ++p.mismatched;
        all.log.add(c, t1 - t0, (t1 - op.t0) * 1e3, static_cast<double>(in.files[op.file].size),
                    true);
      };

      auto write_one = [&] {
        // Thread c owns the writable files f with (f / 4) % kClients == c (every
        // size class), so a file never has two writers and its versions
        // stay ordered.
        std::size_t f = write_zipf.sample(rng);
        f = f - (f / 4 % kClients) * 4 + c * 4;
        Versions& ver = in.versions[f];
        const std::uint64_t v = ver.started.load() + 1;
        const auto& base = in.base[f];
        std::vector<std::uint8_t> bytes(base.size() * sizeof(double));
        for (std::size_t i = 0; i < base.size(); ++i) {
          const double x = static_cast<double>(base[i]) + static_cast<double>(v);
          std::memcpy(bytes.data() + i * sizeof(double), &x, sizeof x);
        }
        const BufferRef payload = BufferRef::adopt(std::move(bytes));
        ver.started.store(v);
        const auto req = spans.next_request();
        const double s0 = spans.now_us();
        const double w0 = now_s();
        auto meta = cluster.asc().write(in.files[f], 0, payload);
        const double w1 = now_s();
        spans.record("client.write", "client", s0, spans.now_us(), req);
        ++p.attempted;
        if (!meta.is_ok()) {
          ++p.failed;
          return;
        }
        ver.committed.store(v);
        ++p.writes;
        all.log.add(c, w1 - t0, (w1 - w0) * 1e3, 0.0, false);
        if (p.writes % kReadbackEvery == 0) {
          auto back = cluster.pfs_client().read_ref(in.files[f], 0, in.files[f].size);
          if (!back.is_ok() || back.value().size() != payload.size() ||
              std::memcmp(back.value().data(), payload.data(), payload.size()) != 0) {
            ++p.mismatched;
          }
        }
      };

      while (now_s() < deadline) {
        if (rng.uniform() < kWriteShare) {
          write_one();
          continue;
        }
        Inflight op;
        op.file = zipf.sample(rng);
        op.operation = &read_operation(rng);
        op.lowest_version = in.versions[op.file].committed.load();
        op.request = spans.next_request();
        op.span_t0 = spans.now_us();
        op.t0 = now_s();
        const auto& meta = in.files[op.file];
        op.pending = cluster.asc().read_ex_async(meta, 0, meta.size, *op.operation);
        spans.record("client.read_ex_async", "client", op.span_t0, spans.now_us(), op.request,
                     1);
        ++p.attempted;
        window.push_back(std::move(op));
        if (window.size() >= kWindow) complete_oldest();
      }
      while (!window.empty()) complete_oldest();
    });
  }
  for (auto& t : threads) t.join();
  all.cpu_s = process_cpu_s() - c0;
  all.log.finish();
  for (const auto& p : per) {
    all.counts.attempted += p.attempted;
    all.counts.failed += p.failed;
    all.counts.mismatched += p.mismatched;
    all.counts.writes += p.writes;
  }
  return all;
}

}  // namespace

Outcome run_mixed_small(const Args& args, SpanLog& spans) {
  core::ClusterConfig cfg;
  cfg.storage_nodes = kNodes;
  cfg.strip_size = 64_KiB;
  cfg.cores_per_node = 1;
  // One chunk holds a whole single-strip file, so a kernel (and an
  // interruption's checkpoint) always sees one version of it.
  cfg.server_chunk_size = 256_KiB;
  cfg.client_chunk_size = 256_KiB;
  cfg.scheme = core::SchemeKind::kDosas;
  cfg.result_cache_entries = 32;

  Inputs in;
  in.files.resize(kFiles);
  in.refs.resize(kFiles);
  in.base.resize(kSingle);
  bool first = true;
  auto populate = [&](core::Cluster& cluster) {
    double spent = 0.0;
    for (std::size_t f = 0; f < kFiles; ++f) {
      const std::size_t items = file_items(f);
      const auto image = file_image(args.seed, f, items);
      if (first) {
        const std::span values(reinterpret_cast<const double*>(image.data()), items);
        in.refs[f] = reference_of(values, true);
        if (f < kSingle) in.base[f].assign(values.begin(), values.end());
      }
      pfs::StripingParams striping;
      if (f < kSingle) {
        striping.strip_size = image.size();
        striping.server_count = 1;
        striping.base_server = static_cast<std::uint32_t>(f % kNodes);
      } else {
        striping.strip_size = 64_KiB;
        striping.server_count = kNodes;
      }
      const double t0 = now_s();
      auto meta = cluster.pfs_client().create("/mixed/f" + std::to_string(f), striping);
      if (!meta.is_ok()) std::abort();
      auto written = cluster.pfs_client().write(meta.value(), 0, image);
      spent += now_s() - t0;
      if (!written.is_ok()) std::abort();
      in.files[f] = written.value();
    }
    first = false;
    return spent;
  };
  std::unique_ptr<core::Cluster> cluster;
  const SetupTimes setup = timed_setups(kSetups, cfg, populate, cluster);

  Outcome out;
  SpanLog quiet(false);
  if (!args.trace) {
    const Phase p = run_phase(*cluster, in, args.seed, args.seconds, quiet);
    out.correct = p.counts.mismatched == 0;
    out.attempted = p.counts.attempted;
    out.failed = p.counts.failed;
    out.metrics["setup_s"] = setup.setup_s;
    out.metrics["cpu_ms_per_op"] = p.cpu_s * 1e3 / static_cast<double>(p.counts.attempted);
    const ClosedLoopFigures fig = p.log.figures();
    print_wall_figures("mixed-small", p.counts.attempted, p.counts.failed, args.seconds, fig);
    std::printf("mixed-small: writes p50 %.4f ms, p99 %.4f ms over %zu in the kept windows\n",
                fig.write_p50_ms, fig.write_p99_ms, fig.writes);
    return out;
  }

  const Phase base = run_phase(*cluster, in, args.seed, args.seconds / 2, quiet);
  begin_traced_phase();
  const Counters before = snapshot(*cluster);
  const Phase traced = run_phase(*cluster, in, args.seed + 1, args.seconds / 2, spans);
  const Counters after = snapshot(*cluster);
  out.correct = base.counts.mismatched == 0 && traced.counts.mismatched == 0;
  out.attempted = base.counts.attempted + traced.counts.attempted;
  out.failed = base.counts.failed + traced.counts.failed;
  auto& m = out.metrics;
  const ClosedLoopFigures traced_fig = traced.log.figures();
  counter_metrics(before, after, traced.counts.writes, m);
  registry_metrics("sum", m);
  obs::MetricsRegistry::global().set_enabled(false);
  m["core.cluster_build_s"] = setup.build_s;
  m["core.populate_s"] = setup.populate_s;
  m["client.write_p50_ms"] = traced_fig.write_p50_ms;
  m["client.write_p99_ms"] = traced_fig.write_p99_ms;
  const ClosedLoopFigures wall = base.log.figures();
  wall_metrics(wall, m);
  const double traced_p50 = traced_fig.read_p50_ms;
  const double base_p50 = wall.read_p50_ms;
  m["obs.tracing_overhead_frac"] = traced_p50 / base_p50 - 1.0;
  std::printf("tracing overhead: read_ex p50 traced %.4f ms / untraced %.4f ms - 1\n",
              traced_p50, base_p50);
  probe_layers(*cluster, in.files, /*client_writes=*/false, spans, m);
  return out;
}

}  // namespace perfbench
