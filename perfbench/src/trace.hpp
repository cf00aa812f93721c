// In-memory span recorder for the traced (--trace 1) runs.
//
// A span is one call the benchmark makes into a layer: a name whose prefix
// before the first '.' is the layer ("svc.drain.tick" -> svc), a start and
// end in microseconds since the tracer was made, and the span that was open
// when it began (its parent). Every span of one workload run shares the
// tracer's run id. Spans are only ever opened from the benchmark's main
// thread, and must close in the reverse order they opened; a close out of
// order is recorded as a nesting error and reported as a harness failure.
//
// The tracer keeps everything in memory and writes it out once, at the end
// of the run (write_json). A disabled tracer records nothing and costs one
// branch per call, so untraced runs go through the same code.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;  ///< a string literal; "layer.call"
  double start_us;
  double end_us;
  int parent;        ///< index into Tracer::spans(), -1 for a root span
};

class Tracer {
 public:
  Tracer(bool enabled, std::string run_id);

  [[nodiscard]] const std::string& run_id() const { return run_id_; }

  /// Open a span under the innermost open span; returns its index (-1 when
  /// disabled). `name` must outlive the tracer (pass a literal).
  int open(const char* name);
  /// Close span `id`, which must be the innermost open span.
  void close(int id);
  /// Record an already-timed leaf span under the innermost open span.
  void leaf(const char* name, double start_us, double end_us);
  /// Microseconds since the tracer was made (the spans' clock).
  [[nodiscard]] double now_us() const;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t nesting_errors() const { return nesting_errors_; }

  /// Write {"run_id", "spans": [...]} to `path`. False if it cannot be written.
  bool write_json(const std::string& path) const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

 private:
  bool enabled_;
  std::string run_id_;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::size_t nesting_errors_ = 0;
};

/// Length of the union of [start, end) intervals.
[[nodiscard]] double covered_length(std::vector<std::pair<double, double>> iv);

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover.
[[nodiscard]] double self_time_us(const std::vector<Span>& spans, int id);

/// Σ self time per layer (the span-name prefix before the first '.').
[[nodiscard]] std::map<std::string, double> layer_self_us(
    const std::vector<Span>& spans);

/// "svc" for "svc.drain.tick"; the whole name when it has no '.'.
[[nodiscard]] std::string_view layer_of(std::string_view span_name);

}  // namespace perfbench
