// bench.hpp — shared scaffolding of the runtime benchmark: arguments,
// seeded input generators, the independent result oracles, sample
// statistics, the benchmark's own span log and the host record.
//
// Everything here is the benchmark's own code. Inputs are generated from
// the --seed argument alone, and the oracles recompute every expected
// kernel result without calling into the program, so a change to the
// program can neither change its inputs nor vouch for its own outputs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "obs/trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics
/// of an untraced run or the per-layer metrics of a traced one; run.py
/// checks the names against BENCHMARK.json and attaches the units.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
};

// ---------------------------------------------------------------- inputs

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded generator for op sequences (xorshift-multiply over splitmix).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(splitmix64(seed) | 1) {}
  std::uint64_t next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545f4914f6cdd1dULL;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
  double exponential(double rate) { return -std::log1p(-uniform()) / rate; }

 private:
  std::uint64_t s_;
};

/// Zipf-skewed key sampler: rank r has weight 1/(r+1)^theta and is drawn
/// as key_of_rank[r].
class Zipf {
 public:
  Zipf(std::vector<std::uint64_t> key_of_rank, double theta)
      : cdf_(key_of_rank.size()), key_of_rank_(std::move(key_of_rank)) {
    double total = 0.0;
    for (std::size_t r = 0; r < cdf_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::uint64_t sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    const auto rank = std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                            cdf_.size() - 1);
    return key_of_rank_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint64_t> key_of_rank_;
};

/// A rank order for Zipf: `order` with keys shuffled by the seed only among
/// ranks whose keys share a class. The seed decides which key is hot; the
/// class of the key at each rank (its size, its node) stays fixed, so the
/// load each class receives is the same for every seed.
template <typename ClassOf>
std::vector<std::uint64_t> shuffle_within_classes(std::vector<std::uint64_t> order,
                                                  ClassOf&& class_of, std::uint64_t seed) {
  std::map<std::uint64_t, std::vector<std::size_t>> ranks;  // class -> ranks
  for (std::size_t r = 0; r < order.size(); ++r) ranks[class_of(order[r])].push_back(r);
  Rng rng(seed ^ 0x5a17f00dULL);
  for (const auto& [cls, rs] : ranks) {
    for (std::size_t i = rs.size(); i > 1; --i) {
      std::swap(order[rs[i - 1]], order[rs[rng.below(i)]]);
    }
  }
  return order;
}

/// Item i of file `file` at version 0: an integer in [0, 1023]. Version v
/// of a file holds base + v, so every kernel result over it has a closed
/// form in v (see Reference::at).
inline double base_value(std::uint64_t seed, std::uint64_t file, std::uint64_t i) {
  return static_cast<double>(splitmix64(seed * 0x100000001b3ULL ^ (file << 40) ^ i) >> 54);
}

/// Doubles of one file version, as the byte image the program stores.
inline std::vector<std::uint8_t> file_image(std::uint64_t seed, std::uint64_t file,
                                            std::size_t items, std::uint64_t version = 0) {
  std::vector<std::uint8_t> bytes(items * sizeof(double));
  for (std::size_t i = 0; i < items; ++i) {
    const double v = base_value(seed, file, i) + static_cast<double>(version);
    std::memcpy(bytes.data() + i * sizeof(double), &v, sizeof v);
  }
  return bytes;
}

// --------------------------------------------------------------- oracles

/// Expected results over one file, computed naively from the generator.
/// All inputs are small integers, so sum, min, max and the 3x3 filter's
/// outputs (multiples of 1/16) are exact in any summation order: a correct
/// program must match these bit for bit.
struct Reference {
  std::uint64_t count = 0;
  double sum = 0.0, min = 0.0, max = 0.0;
  // gaussian2d digest (width kGaussWidth, edge-clamped columns).
  std::uint64_t g_rows = 0, g_count = 0;
  double g_sum = 0.0, g_min = 0.0, g_max = 0.0;

  /// The same file at version v (every item shifted by v; the filter's
  /// weights sum to 16, so each filtered value shifts by v as well).
  Reference at(std::uint64_t v) const {
    const double dv = static_cast<double>(v);
    Reference r = *this;
    r.sum += dv * static_cast<double>(count);
    r.min += dv;
    r.max += dv;
    r.g_sum += dv * static_cast<double>(g_count);
    r.g_min += dv;
    r.g_max += dv;
    return r;
  }
};

inline constexpr std::size_t kGaussWidth = 128;
inline const std::string kGaussOp = "gaussian2d:width=128";

Reference reference_of(std::span<const double> items, bool with_gaussian);

/// Does the encoded result of `operation` equal the reference? Decodes the
/// wire format with the kernels' own decoders; the values compared against
/// come from the oracle.
bool result_matches(const std::string& operation, std::span<const std::uint8_t> result,
                    const Reference& ref);

// ------------------------------------------------------------ statistics

/// Interpolated percentile over raw samples, p in [0, 100].
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Seconds on the physical clock (benchmark timing is wall time on purpose).
inline double now_s() { return dosas::wall_clock().now(); }

/// CPU seconds this process has run, over all its threads. Time its
/// threads spend blocked or waiting to run does not count; instructions
/// that run slower on a busy host (shared caches, memory bandwidth) do.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// End-to-end figures of a closed-loop phase, from its kept windows.
struct ClosedLoopFigures {
  double ops_per_s = 0.0;  ///< median kept-window rate, reads and writes
  double gbps = 0.0;       ///< median kept-window rate of file bytes reduced
  double read_p50_ms = 0.0, read_p99_ms = 0.0;    ///< pooled over kept windows
  double write_p50_ms = 0.0, write_p99_ms = 0.0;  ///< pooled over kept windows
  std::size_t reads = 0, writes = 0;              ///< samples in kept windows
  std::size_t windows = 0, kept = 0;
  double rate_min = 0.0, rate_p50 = 0.0, rate_max = 0.0;  ///< over all windows
};

/// The completions of a closed-loop phase, cut into 0.5 s windows as the
/// run goes. Each window's rate runs from its first completion to its last.
/// Only the `keep` fraction of the windows with the highest rates keeps its
/// samples: the host is shared with other tenants, whose bursts slow whole
/// seconds of a run, and the fastest windows are the ones it disturbed
/// least. The log's memory is that of the kept windows, not of the whole
/// run, so a faster program does not raise the benchmark's own RSS.
///
/// Thread `t` of `threads` records through add(t, ...); finish() after the
/// threads have joined. Completions after `seconds` (the drain) are dropped.
class WindowLog {
 public:
  static constexpr double kWindow = 0.5;

  WindowLog(std::size_t threads, double seconds, double keep)
      : slots_(threads),
        windows_(static_cast<long>(seconds / kWindow)),
        keep_(std::max<std::size_t>(
            1, static_cast<std::size_t>(std::ceil(keep * static_cast<double>(windows_))))) {}

  void add(std::size_t t, double at, double latency_ms, double bytes, bool read) {
    const long w = static_cast<long>(at / kWindow);
    if (w >= windows_) return;
    Slot& s = slots_[t];
    if (w != s.window) hand_in(s, w);
    Partial& p = s.part;
    if (p.count == 0 || at < p.first) {
      p.first = at;
      p.first_bytes = bytes;
    }
    p.last = std::max(p.last, at);
    ++p.count;
    p.bytes += bytes;
    (read ? p.read_ms : p.write_ms).push_back(static_cast<float>(latency_ms));
  }

  void finish() {
    for (Slot& s : slots_) hand_in(s, windows_);
  }

  ClosedLoopFigures figures() const {
    ClosedLoopFigures f;
    std::vector<double> ops, bytes, read_ms, write_ms;
    for (const Window& w : kept_) {
      ops.push_back(w.ops);
      bytes.push_back(w.bytes);
      read_ms.insert(read_ms.end(), w.read_ms.begin(), w.read_ms.end());
      write_ms.insert(write_ms.end(), w.write_ms.begin(), w.write_ms.end());
    }
    f.ops_per_s = median(ops);
    f.gbps = median(bytes) / 1e9;
    f.read_p50_ms = median(read_ms);
    f.read_p99_ms = percentile(read_ms, 99.0);
    f.write_p50_ms = median(write_ms);
    f.write_p99_ms = percentile(write_ms, 99.0);
    f.reads = read_ms.size();
    f.writes = write_ms.size();
    f.windows = rates_.size();
    f.kept = kept_.size();
    if (!rates_.empty()) {
      f.rate_min = *std::min_element(rates_.begin(), rates_.end());
      f.rate_p50 = median(rates_);
      f.rate_max = *std::max_element(rates_.begin(), rates_.end());
    }
    return f;
  }

 private:
  struct Partial {
    std::size_t count = 0;
    double first = 0.0, last = 0.0, first_bytes = 0.0, bytes = 0.0;
    std::vector<float> read_ms, write_ms;
    void merge(Partial&& o) {
      if (o.count == 0) return;
      if (count == 0 || o.first < first) {
        first = o.first;
        first_bytes = o.first_bytes;
      }
      last = count == 0 ? o.last : std::max(last, o.last);
      count += o.count;
      bytes += o.bytes;
      read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
      write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
    }
  };
  struct alignas(64) Slot {
    long window = 0;
    Partial part;
  };
  struct Window {
    double ops = 0.0, bytes = 0.0;
    std::vector<float> read_ms, write_ms;
  };

  /// Thread slot `s` moves on to window `next`: its partial joins the
  /// shared one of its window, and every window that all threads have
  /// passed is closed.
  void hand_in(Slot& s, long next) {
    std::lock_guard lock(*mu_);
    if (s.part.count > 0) open_[s.window].merge(std::move(s.part));
    s.part = Partial{};
    s.window = next;
    long oldest = next;
    for (const Slot& o : slots_) oldest = std::min(oldest, o.window);
    while (!open_.empty() && open_.begin()->first < oldest) {
      close(std::move(open_.begin()->second));
      open_.erase(open_.begin());
    }
  }

  void close(Partial&& p) {
    if (p.count < 2 || p.last <= p.first) return;
    const double span = p.last - p.first;
    Window w;
    w.ops = static_cast<double>(p.count - 1) / span;
    w.bytes = (p.bytes - p.first_bytes) / span;
    w.read_ms = std::move(p.read_ms);
    w.write_ms = std::move(p.write_ms);
    rates_.push_back(w.ops);
    const auto slower = [](const Window& a, const Window& b) { return a.ops > b.ops; };
    if (kept_.size() < keep_) {
      kept_.push_back(std::move(w));
      std::push_heap(kept_.begin(), kept_.end(), slower);
    } else if (w.ops > kept_.front().ops) {
      std::pop_heap(kept_.begin(), kept_.end(), slower);
      kept_.back() = std::move(w);
      std::push_heap(kept_.begin(), kept_.end(), slower);
    }
  }

  std::vector<Slot> slots_;
  long windows_;
  std::size_t keep_;
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();  // keeps the log movable
  std::map<long, Partial> open_;
  std::vector<Window> kept_;  ///< min-heap on rate: the slowest kept window first
  std::vector<double> rates_;
};

// --------------------------------------------------------------- tracing

/// The benchmark's own spans around its calls into each layer. Off in
/// untraced runs (record() returns at once); in traced runs spans are kept
/// in memory, up to a cap, and written as a Chrome trace when the run ends.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 60000;

  explicit SpanLog(bool on) : on_(on), epoch_(now_s()) { tracer_.set_enabled(on); }
  bool on() const { return on_; }
  double now_us() const { return (now_s() - epoch_) * 1e6; }

  /// One finished span of request `request`; `span` and `parent` are small
  /// per-request indices (0 = root), turned into ids unique per request.
  void record(const char* name, const char* layer, double t0_us, double t1_us,
              std::uint64_t request, std::uint64_t span = 0, std::uint64_t parent = 0) {
    if (!on_ || recorded_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) return;
    dosas::obs::TraceContext ctx;
    ctx.trace_id = request + 1;
    ctx.span_id = (request + 1) * 16 + span;
    ctx.parent_span_id = span == 0 ? 0 : (request + 1) * 16 + parent;
    tracer_.complete(name, layer, t0_us, t1_us - t0_us, ctx);
  }

  /// Fresh request id for a span tree.
  std::uint64_t next_request() { return next_request_.fetch_add(1, std::memory_order_relaxed); }

  /// Write the spans to `path` (no-op when tracing is off or path empty).
  void write(const std::string& path) const {
    if (!on_ || path.empty()) return;
    if (auto st = tracer_.write(path); !st.is_ok()) {
      std::fprintf(stderr, "perfbench: cannot write trace %s: %s\n", path.c_str(),
                   st.message().c_str());
    } else {
      std::printf("trace: %zu span(s) written to %s\n", tracer_.event_count(), path.c_str());
    }
  }

 private:
  bool on_;
  double epoch_;
  dosas::obs::Tracer tracer_;
  std::atomic<std::size_t> recorded_{0};
  std::atomic<std::uint64_t> next_request_{0};
};

/// Times one call into a layer as a span of `request` (no-op when off).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, const char* layer, std::uint64_t request,
             std::uint64_t span = 0, std::uint64_t parent = 0)
      : log_(log), name_(name), layer_(layer), request_(request), span_(span), parent_(parent),
        t0_(log.on() ? log.now_us() : 0.0) {}
  ~ScopedSpan() {
    if (log_.on()) log_.record(name_, layer_, t0_, log_.now_us(), request_, span_, parent_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  const char* layer_;
  std::uint64_t request_, span_, parent_;
  double t0_;
};

// ------------------------------------------------------------ host record

/// CPU model, logical CPUs, compiler and build type, printed by every run.
void print_host_record();

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Same-run roofline: memcpy bandwidth and one-core kernel rates (GB/s).
struct Roofline {
  double memcpy_gbps = 0.0;
  double sum_gbps = 0.0;
  double gaussian2d_gbps = 0.0;
};
Roofline measure_roofline();
void print_roofline(const Roofline& r);

}  // namespace perfbench
