// In-memory span recorder for the benchmark's traced runs.
//
// A span covers one call the benchmark makes into a layer of the library
// ("engine.step", "partition.build", ...). Spans nest: the span open when
// another one starts is its parent. Spans of one job or query share an
// id. Nothing is written until the run ends; with tracing off every
// Scope is a single null check.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <string>
#include <utility>
#include <vector>

namespace grbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  std::string name;  // "<layer>.<call>"
  double start = 0.0;  // seconds since the recorder was created
  double end = 0.0;
  int parent = -1;  // index into the recorder, -1 = root
  std::uint64_t id = 0;  // job or query id (0 = not tied to one)

  std::string layer() const { return name.substr(0, name.find('.')); }
  double duration() const { return end - start; }
};

class SpanLog {
 public:
  int open(std::string name, std::uint64_t id) {
    Span span;
    span.name = std::move(name);
    span.start = seconds_since(origin_);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.id = id;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    spans_[index].end = seconds_since(origin_);
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start, end, parent, id.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << std::fixed << std::setprecision(9);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"index\":" << i << ",\"name\":\"" << s.name
          << "\",\"start\":" << s.start << ",\"end\":" << s.end
          << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}\n";
    }
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when `log` is null (untraced runs).
class Scope {
 public:
  Scope(SpanLog* log, std::string name, std::uint64_t id = 0) : log_(log) {
    if (log_ != nullptr) index_ = log_->open(std::move(name), id);
  }
  ~Scope() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int index_ = -1;
};

}  // namespace grbench
