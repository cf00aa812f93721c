// The three workloads. Each takes the run options, records spans on the
// tracer (a no-op when untraced), and fills the report: every end-to-end
// metric, the per-layer metrics it can measure when traced, the operation
// tally and the run-level output checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Which pinned catalog member the timed work replays; 0 is the catalog
  /// shape, 1 the held-out member for claim checks (README "Seeds").
  int panel = 0;
  std::string trace_file;
};

void run_service_day(const RunOptions& opt, Tracer& tracer, Report& report);
void run_planning(const RunOptions& opt, Tracer& tracer, Report& report);
void run_sla_risk(const RunOptions& opt, Tracer& tracer, Report& report);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// num ÷ den, 0 when nothing was counted.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Lines a run prints before its JSON result (all to stdout).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
