// perfbench — one workload run of the repository benchmark.
//
//   perfbench --workload service_day|planning|sla_risk --seed N --seconds S
//             --trace 0|1 [--panel K] [--trace-file PATH]
//
// Prints notes and the end-to-end numbers, then, as its last stdout line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced, the per-layer metrics traced. Output-check
// failures are counted in "failed" and never stop the run; the exit code is
// non-zero only for a harness error (bad arguments, an exception, a span
// closed out of order, a trace that cannot be written).
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

void note(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "service_day|planning|sla_risk --seed N --seconds S --trace 0|1 "
               "[--panel K] [--trace-file PATH]\n",
               why);
  return 2;
}

bool parse_uint(const char* s, unsigned long long& out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    unsigned long long n = 0;
    if (v == nullptr) return usage(("missing value for " + a).c_str());
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed" && parse_uint(v, n)) {
      opt.seed = n;
      have_seed = true;
    } else if (a == "--seconds" && parse_uint(v, n) && n >= 1 && n <= 3600) {
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace" && parse_uint(v, n) && n <= 1) {
      opt.trace = n == 1;
      have_trace = true;
    } else if (a == "--panel" && parse_uint(v, n) && n <= 1000) {
      opt.panel = static_cast<int>(n);
    } else if (a == "--trace-file") {
      opt.trace_file = v;
    } else {
      return usage(("bad argument " + a + " " + v).c_str());
    }
    ++i;
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  void (*run)(const RunOptions&, Tracer&, Report&) = nullptr;
  if (opt.workload == "service_day") run = run_service_day;
  if (opt.workload == "planning") run = run_planning;
  if (opt.workload == "sla_risk") run = run_sla_risk;
  if (run == nullptr) return usage("unknown workload");

  const std::string run_id = opt.workload + "-seed" + std::to_string(opt.seed) +
                             "-panel" + std::to_string(opt.panel) +
                             (opt.trace ? "-traced" : "");
  Tracer tracer(opt.trace, run_id);
  Report report;
  try {
    note("perfbench: run %s, %.0f s", run_id.c_str(), opt.seconds);
    run(opt, tracer, report);
    for (const MetricSpec& m : metric_catalog()) {
      if (m.kind == Kind::EndToEnd) {
        note("e2e %-12s %.6g %s%s", m.name, report.get(m.name), m.unit,
             opt.trace ? " (traced)" : "");
      }
    }
    note("failure share %.4f (%llu of %llu operations)",
         report.tally.failure_share(),
         static_cast<unsigned long long>(report.tally.failed),
         static_cast<unsigned long long>(report.tally.attempted));
    for (const std::string& f : report.failed_checks()) note("CHECK FAILED: %s", f.c_str());
    if (opt.trace) {
      if (tracer.nesting_errors() != 0) {
        std::fprintf(stderr, "perfbench: %zu spans closed out of order\n",
                     tracer.nesting_errors());
        return 3;
      }
      for (const auto& [layer, us] : layer_self_us(tracer.spans())) {
        note("self time %-6s %.3f ms", layer.c_str(), 1e-3 * us);
      }
      if (!opt.trace_file.empty()) {
        if (!tracer.write_json(opt.trace_file)) {
          std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_file.c_str());
          return 3;
        }
        note("trace: %zu spans written to %s", tracer.spans().size(),
             opt.trace_file.c_str());
      }
    }
    const std::string line =
        report.json_line(opt.trace ? Kind::PerLayer : Kind::EndToEnd);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: harness error: %s\n", e.what());
    return 3;
  }
  return 0;
}
