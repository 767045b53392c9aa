#include "bench.hpp"

#include <cpuid.h>
#include <sys/resource.h>

#include <thread>

#include "kernels/gaussian2d.hpp"
#include "kernels/minmax.hpp"
#include "kernels/registry.hpp"
#include "kernels/sum.hpp"

namespace perfbench {

Reference reference_of(std::span<const double> items, bool with_gaussian) {
  Reference r;
  r.count = items.size();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double v = items[i];
    r.sum += v;
    r.min = i == 0 ? v : std::min(r.min, v);
    r.max = i == 0 ? v : std::max(r.max, v);
  }
  if (!with_gaussian) return r;
  // Naive 3x3 Gaussian (1-2-1 / 2-4-2 / 1-2-1, / 16) over rows of
  // kGaussWidth items; an output row per input row that has both vertical
  // neighbours, columns clamped at the edges. A trailing partial row is
  // not part of the image.
  const std::size_t w = kGaussWidth;
  const std::size_t rows = items.size() / w;
  auto at = [&](std::size_t y, std::size_t x) { return items[y * w + x]; };
  for (std::size_t y = 1; y + 1 < rows; ++y) {
    ++r.g_rows;
    for (std::size_t x = 0; x < w; ++x) {
      const std::size_t xl = x == 0 ? 0 : x - 1;
      const std::size_t xr = x + 1 == w ? x : x + 1;
      const double acc = at(y - 1, xl) + 2 * at(y - 1, x) + at(y - 1, xr) +
                         2 * at(y, xl) + 4 * at(y, x) + 2 * at(y, xr) + at(y + 1, xl) +
                         2 * at(y + 1, x) + at(y + 1, xr);
      const double v = acc / 16.0;
      r.g_min = r.g_count == 0 ? v : std::min(r.g_min, v);
      r.g_max = r.g_count == 0 ? v : std::max(r.g_max, v);
      r.g_sum += v;
      ++r.g_count;
    }
  }
  return r;
}

bool result_matches(const std::string& operation, std::span<const std::uint8_t> result,
                    const Reference& ref) {
  using namespace dosas::kernels;
  if (operation == "sum") {
    auto d = SumResult::decode(result);
    return d.is_ok() && d.value().count == ref.count && d.value().sum == ref.sum;
  }
  if (operation == "minmax") {
    auto d = MinMaxResult::decode(result);
    return d.is_ok() && d.value().count == ref.count && d.value().min == ref.min &&
           d.value().max == ref.max;
  }
  if (operation == kGaussOp) {
    auto d = GaussianDigest::decode(result);
    return d.is_ok() && d.value().rows == ref.g_rows && d.value().count == ref.g_count &&
           d.value().sum == ref.g_sum && d.value().min == ref.g_min &&
           d.value().max == ref.g_max;
  }
  return false;
}

void print_host_record() {
  char brand[49] = {};
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::memcpy(brand, regs, sizeof regs);
  }
  std::string cpu(brand);
  cpu.erase(0, cpu.find_first_not_of(' '));
  std::printf("host: cpu=\"%s\" nproc=%u compiler=\"%s\" build=%s\n",
              cpu.empty() ? "unknown" : cpu.c_str(), std::thread::hardware_concurrency(),
              __VERSION__, PERFBENCH_BUILD_TYPE);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

/// Median GB/s of `reps` passes of `pass` over `bytes` bytes.
template <typename Pass>
double median_gbps(std::size_t bytes, int reps, Pass&& pass) {
  std::vector<double> rates;
  pass();  // warm: page in, size caches
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    pass();
    rates.push_back(static_cast<double>(bytes) / (now_s() - t0) / 1e9);
  }
  return median(rates);
}

double kernel_gbps(const std::string& operation, const std::vector<std::uint8_t>& data,
                   int reps) {
  const auto registry = dosas::kernels::Registry::with_builtins();
  auto kernel = registry.create(operation);
  if (!kernel.is_ok()) return 0.0;
  auto& k = *kernel.value();
  constexpr std::size_t kChunk = 1 << 20;
  return median_gbps(data.size(), reps, [&] {
    k.reset();
    for (std::size_t off = 0; off < data.size(); off += kChunk) {
      k.consume(std::span(data).subspan(off, std::min(kChunk, data.size() - off)));
    }
    const auto out = k.finalize();
    if (out.empty()) std::abort();  // keeps the pass observable
  });
}

}  // namespace

Roofline measure_roofline() {
  Roofline r;
  {
    constexpr std::size_t kBytes = 32 << 20;
    std::vector<std::uint8_t> src(kBytes, 1), dst(kBytes, 0);
    r.memcpy_gbps = median_gbps(kBytes, 5, [&] {
      std::memcpy(dst.data(), src.data(), kBytes);
      src[dst[kBytes / 2] & 1] ^= 1;  // the copy is read, so it cannot be elided
    });
  }
  const auto sum_data = file_image(7, 7, (32 << 20) / sizeof(double));
  r.sum_gbps = kernel_gbps("sum", sum_data, 5);
  const std::vector<std::uint8_t> gauss_data(sum_data.begin(), sum_data.begin() + (4 << 20));
  r.gaussian2d_gbps = kernel_gbps(kGaussOp, gauss_data, 3);
  return r;
}

void print_roofline(const Roofline& r) {
  std::printf("roofline: memcpy %.3f GB/s, one-core sum %.3f GB/s (%.3f of memcpy), "
              "one-core %s %.3f GB/s\n",
              r.memcpy_gbps, r.sum_gbps, ratio(r.sum_gbps, r.memcpy_gbps), kGaussOp.c_str(),
              r.gaussian2d_gbps);
}

}  // namespace perfbench
