// Self-tests of the benchmark harness: exact percentiles, metric-name and
// unit validation, failure-share accounting, span nesting and self time,
// and the shape of the result line. Run: ctest --test-dir <build dir>.
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest.cpp:%d: FAILED %s\n", line, what);
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b)); }

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

using namespace perfbench;

void test_percentile() {
  EXPECT(near(percentile({5.0}, 0.99), 5.0));
  EXPECT(near(median({3.0, 1.0, 2.0}), 2.0));
  EXPECT(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
  EXPECT(near(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0));
  EXPECT(near(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0), 5.0));
  EXPECT(near(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0));
  // 1..100: rank 0.99·99 = 98.01 -> between 99 and 100.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(near(percentile(v, 0.99), 99.01));
  EXPECT(near(percentile(v, 0.50), 50.5));
  // Exact, not bucketed: two values 10% apart stay 10% apart.
  EXPECT(near(percentile({1.0, 1.1}, 1.0) / percentile({1.0, 1.1}, 0.0), 1.1));
  EXPECT(throws([] { (void)percentile({}, 0.5); }));
  EXPECT(throws([] { (void)percentile({1.0}, 1.5); }));
}

void test_names() {
  EXPECT(valid_metric_name("setup_s"));
  EXPECT(valid_metric_name("svc.handle_arrival_us_p99"));
  EXPECT(valid_metric_name("9lives-x.y_z"));
  EXPECT(!valid_metric_name(""));
  EXPECT(!valid_metric_name("_leading"));
  EXPECT(!valid_metric_name(".leading"));
  EXPECT(!valid_metric_name("has space"));
  EXPECT(!valid_metric_name("slash/no"));
  EXPECT(!valid_metric_name(std::string(65, 'a')));
  EXPECT(valid_metric_name(std::string(64, 'a')));
  EXPECT(valid_unit("1/s"));
  EXPECT(valid_unit("%"));
  EXPECT(valid_unit("ms"));
  EXPECT(!valid_unit(""));
  EXPECT(!valid_unit("m s"));
  EXPECT(!valid_unit(std::string(17, 'u')));
  // The catalog obeys the grammar and names each metric once.
  std::set<std::string> seen;
  for (const MetricSpec& m : metric_catalog()) {
    EXPECT(valid_metric_name(m.name));
    EXPECT(valid_unit(m.unit));
    EXPECT(seen.insert(m.name).second);
  }
  EXPECT(seen.count("setup_s") == 1);
}

void test_tally() {
  Tally t;
  EXPECT(t.failure_share() == 0.0);
  t.record(true);
  t.record(false);
  t.record(true);
  t.record(true);
  EXPECT(t.attempted == 4 && t.failed == 1);
  EXPECT(near(t.failure_share(), 0.25));
  t.add(96, 3);
  EXPECT(t.attempted == 100 && t.failed == 4);
  EXPECT(near(t.failure_share(), 0.04));

  // A failed run-level check counts once and marks the run incorrect, but
  // the run goes on and still reports its metrics.
  Report r;
  r.tally.add(10, 0);
  r.check(true, "fine");
  EXPECT(r.correct());
  r.check(false, "digest mismatch");
  EXPECT(!r.correct());
  EXPECT(r.tally.attempted == 12 && r.tally.failed == 1);
  EXPECT(r.failed_checks().size() == 1);
  EXPECT(throws([&] { r.set("not_a_metric", 1.0); }));
  EXPECT(throws([&] { r.set("setup_s", std::nan("")); }));
}

void test_result_line() {
  Report r;
  EXPECT(throws([&] { (void)r.json_line(Kind::EndToEnd); }));  // unset e2e
  for (const MetricSpec& m : metric_catalog()) {
    if (m.kind == Kind::EndToEnd) r.set(m.name, 1.5);
  }
  r.tally.add(3, 1);
  const std::string line = r.json_line(Kind::EndToEnd);
  EXPECT(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 1, ", 0) == 0);
  EXPECT(line.find("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}") != std::string::npos);
  EXPECT(line.find("svc.") == std::string::npos);
  // Per-layer metrics a workload never touched report 0.
  const std::string layers = r.json_line(Kind::PerLayer);
  EXPECT(layers.find("\"svc.full_resolves\": {\"value\": 0, \"unit\": \"count\"}") !=
         std::string::npos);
  EXPECT(layers.find("setup_s") == std::string::npos);
  EXPECT(format_number(0.1) == "0.1");
  EXPECT(format_number(123456.789) == "123456.789");
}

void test_spans() {
  // Hand-built trace: root [0,100) with children [10,30) and [20,50)
  // (overlapping, e.g. two lanes) and [60,70); grandchild [12,18).
  std::vector<Span> s = {
      {"bench.root", 0, 100, -1},
      {"svc.a", 10, 30, 0},
      {"svc.b", 20, 50, 0},
      {"acrr.c", 60, 70, 0},
      {"solver.d", 12, 18, 1},
  };
  EXPECT(near(covered_length({{10, 30}, {20, 50}, {60, 70}}), 50.0));
  EXPECT(near(covered_length({{5, 5}, {7, 3}}), 0.0));
  EXPECT(near(self_time_us(s, 0), 50.0));  // 100 − |[10,50) ∪ [60,70)|
  EXPECT(near(self_time_us(s, 1), 14.0));  // 20 − 6
  EXPECT(near(self_time_us(s, 4), 6.0));
  const auto layers = layer_self_us(s);
  EXPECT(near(layers.at("bench"), 50.0));
  EXPECT(near(layers.at("svc"), 14.0 + 30.0));
  EXPECT(near(layers.at("acrr"), 10.0));
  EXPECT(near(layers.at("solver"), 6.0));
  EXPECT(layer_of("svc.drain.tick") == "svc");
  EXPECT(layer_of("plain") == "plain");

  // Recorded spans nest: parents are the innermost open span, children
  // lie inside their parent, and self times sum to the root's duration.
  Tracer t(true, "selftest");
  {
    Tracer::Scope root(t, "bench.root");
    {
      Tracer::Scope a(t, "svc.a");
      Tracer::Scope b(t, "solver.b");
    }
    const double x0 = t.now_us();
    const double x1 = t.now_us();
    t.leaf("acrr.leaf", x0, x1);
    Tracer::Scope c(t, "scn.c");
  }
  const auto& sp = t.spans();
  EXPECT(sp.size() == 5);
  EXPECT(sp[0].parent == -1);
  EXPECT(sp[1].parent == 0 && sp[2].parent == 1);
  EXPECT(sp[3].parent == 0 && sp[4].parent == 0);
  for (const Span& x : sp) {
    EXPECT(x.end_us >= x.start_us);
    if (x.parent >= 0) {
      const Span& p = sp[static_cast<std::size_t>(x.parent)];
      EXPECT(x.start_us >= p.start_us && x.end_us <= p.end_us);
    }
  }
  EXPECT(t.nesting_errors() == 0);
  double total_self = 0.0;
  for (int i = 0; i < 5; ++i) total_self += self_time_us(sp, i);
  EXPECT(near(total_self, sp[0].end_us - sp[0].start_us));

  // Closing out of order is a nesting error, not a crash: closing the
  // outer span first drops the inner one, and closing that again is a
  // second error.
  Tracer bad(true, "bad");
  const int outer = bad.open("bench.outer");
  const int inner = bad.open("svc.inner");
  bad.close(outer);
  EXPECT(bad.nesting_errors() == 1);
  bad.close(inner);
  EXPECT(bad.nesting_errors() == 2);

  // A disabled tracer records nothing.
  Tracer off(false, "off");
  {
    Tracer::Scope x(off, "svc.x");
    off.leaf("svc.y", 0, 1);
  }
  EXPECT(off.spans().empty());
}

}  // namespace

int main() {
  test_percentile();
  test_names();
  test_tally();
  test_result_line();
  test_spans();
  if (failures != 0) {
    std::fprintf(stderr, "%d selftest failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}
