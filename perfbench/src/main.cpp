// perfbench — the runtime benchmark's binary. run.py builds and invokes it:
//
//   perfbench --workload <stream-sum|mixed-small|contention-virtual>
//             --seed <n> --seconds <s> --trace <0|1>
//
// It prints the host record, the same-run roofline and workload details,
// then one line "PERFBENCH_RESULT {json}" with correct / attempted / failed
// and the metrics: the end-to-end ones untraced, the per-layer ones traced.
// A result that disagrees with the benchmark's oracles exits 1.
#include <cstdlib>
#include <cstring>
#include <string>

#include "probes.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      a.trace = std::strcmp(value, "1") == 0;
      if (!a.trace && std::strcmp(value, "0") != 0) return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 && a.seconds <= 600.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <stream-sum|mixed-small|contention-virtual> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  print_host_record();
  SpanLog spans(args.trace);
  Outcome out;
  if (args.workload == "stream-sum") {
    out = run_stream_sum(args, spans);
  } else if (args.workload == "mixed-small") {
    out = run_mixed_small(args, spans);
  } else if (args.workload == "contention-virtual") {
    out = run_contention_virtual(args, spans);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Read before the roofline's buffers exist: the peak is the workload's.
  const double rss = peak_rss_mib();
  const Roofline roofline = measure_roofline();
  print_roofline(roofline);

  if (args.trace) {
    for (const auto& name : layer_metric_names()) out.metrics.try_emplace(name, 0.0);
    roofline_metrics(roofline, out.metrics);
    const char* path = std::getenv("DOSAS_TRACE_OUT");
    spans.write(path != nullptr ? path : "");
  } else {
    out.metrics["peak_rss_mib"] = rss;
  }

  std::string json = "{\"correct\":" + std::string(out.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(out.attempted) +
                     ",\"failed\":" + std::to_string(out.failed) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += (first ? "\"" : ",\"") + name + "\":" + buf;
    first = false;
  }
  json += "}}";
  std::printf("PERFBENCH_RESULT %s\n", json.c_str());
  std::fflush(stdout);
  if (!out.correct) {
    std::fprintf(stderr, "perfbench: a result disagreed with the oracle\n");
    return 1;
  }
  return 0;
}
