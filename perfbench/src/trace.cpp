#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "report.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled, std::string run_id)
    : enabled_(enabled),
      run_id_(std::move(run_id)),
      t0_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const double t = now_us();
  spans_.push_back({name, t, t, parent});
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != id) {
    ++nesting_errors_;
    // Recover: close everything up to and including `id` if it is open.
    const auto it = std::find(open_.begin(), open_.end(), id);
    if (it == open_.end()) return;
    open_.erase(it, open_.end());
  } else {
    open_.pop_back();
  }
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
}

void Tracer::leaf(const char* name, double start_us, double end_us) {
  if (!enabled_) return;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, start_us, end_us, parent});
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"run_id\": \"%s\", \"spans\": [\n", run_id_.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %s, "
                 "\"end_us\": %s, \"parent\": %d}%s\n",
                 i, s.name, format_number(s.start_us).c_str(),
                 format_number(s.end_us).c_str(), s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double covered_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (hi <= lo) continue;
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

namespace {

/// Children of every span, built once per query over the whole trace.
std::vector<std::vector<int>> children_of(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0) kids[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
  }
  return kids;
}

double self_time(const std::vector<Span>& spans,
                 const std::vector<std::vector<int>>& kids, int id) {
  const Span& s = spans[static_cast<std::size_t>(id)];
  std::vector<std::pair<double, double>> iv;
  for (const int k : kids[static_cast<std::size_t>(id)]) {
    const Span& c = spans[static_cast<std::size_t>(k)];
    iv.emplace_back(std::max(c.start_us, s.start_us),
                    std::min(c.end_us, s.end_us));
  }
  return (s.end_us - s.start_us) - covered_length(std::move(iv));
}

}  // namespace

double self_time_us(const std::vector<Span>& spans, int id) {
  return self_time(spans, children_of(spans), id);
}

std::string_view layer_of(std::string_view span_name) {
  const auto dot = span_name.find('.');
  return dot == std::string_view::npos ? span_name : span_name.substr(0, dot);
}

std::map<std::string, double> layer_self_us(const std::vector<Span>& spans) {
  const auto kids = children_of(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[std::string(layer_of(spans[i].name))] +=
        self_time(spans, kids, static_cast<int>(i));
  }
  return out;
}

}  // namespace perfbench
