// Harness-side arithmetic and the result report of one benchmark run.
//
// Everything here is independent of the ovnes library so the self-tests
// (tests/selftest.cpp) can pin it without building the solver stack:
//   * exact percentiles over raw samples (never histogram buckets),
//   * metric-name / unit validation against the BENCHMARK.json grammar,
//   * failure-share accounting (failures are counted, never aborted on),
//   * the metric catalog every run reports, and the final JSON line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Percentile `q` in [0, 1] of raw samples: sort, then interpolate
/// linearly between the two closest ranks (q·(n−1), the "type 7" rule).
/// Throws std::invalid_argument on an empty sample set or q outside [0, 1].
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// BENCHMARK.json metric-name grammar: 1–64 characters of letters, digits,
/// '_', '.', '-', starting with a letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// Unit grammar: 1–16 characters of letters, digits, '_', '/', '%', '.', '-'.
[[nodiscard]] bool valid_unit(std::string_view unit);

/// Operations attempted and failed. A failed output check is one failed
/// operation; the run goes on and the share is reported.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void add(std::uint64_t ops, std::uint64_t failures) {
    attempted += ops;
    failed += failures;
  }
  /// failed ÷ attempted, 0 when nothing was attempted.
  [[nodiscard]] double failure_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

enum class Kind { EndToEnd, PerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  Kind kind;
};

/// Every metric the benchmark can report, in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricSpec>& metric_catalog();

/// The result of one run: metric values by name plus the run-level verdict.
class Report {
 public:
  /// Record a metric. Throws std::invalid_argument for a name that is not
  /// in metric_catalog() (a harness bug, not an output failure).
  void set(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;

  /// A run-level output check (determinism digests, replay agreement).
  /// A failed check makes the run incorrect and counts one failed op.
  void check(bool ok, const std::string& what);

  Tally tally;
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] const std::vector<std::string>& failed_checks() const {
    return failed_checks_;
  }

  /// The final JSON line: `kind` selects which catalog metrics it carries.
  /// Per-layer metrics the workload never touched report 0 (that layer did
  /// no work); a missing end-to-end metric throws (harness bug).
  [[nodiscard]] std::string json_line(Kind kind) const;

 private:
  std::map<std::string, double> values_;
  bool correct_ = true;
  std::vector<std::string> failed_checks_;
};

/// Shortest decimal text that reads back as exactly `v`.
[[nodiscard]] std::string format_number(double v);

}  // namespace perfbench
