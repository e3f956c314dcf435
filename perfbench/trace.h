// In-memory span tracer of the benchmark harness: spans around the
// benchmark's own calls into the program, written out at the end as Chrome
// trace-event JSON (opens in Perfetto / chrome://tracing).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <time.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Wall-clock seconds on a monotonic clock.
inline double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds the calling thread has used.
inline double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// Spans kept in memory: name, start, end, parent and trace id (one trace id
/// per stack run). A disabled tracer records nothing and costs one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(WallSeconds()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its handle (-1 when disabled).
  int Begin(const std::string& name, int trace_id, int parent) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, WallSeconds() - origin_, -1.0, parent,
                          trace_id});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int span) {
    if (span < 0) return;
    spans_[static_cast<size_t>(span)].end_s = WallSeconds() - origin_;
  }

  int NewTraceId() { return next_trace_id_++; }

  size_t size() const { return spans_.size(); }

  /// Writes every closed span as a complete ("X") trace event; the thread
  /// lane is the trace id, so each stack run gets its own row.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_s < 0) continue;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                   "\"parent\":%d,\"trace_id\":%d}}",
                   first ? "" : ",\n", s.name.c_str(), s.trace_id,
                   s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent,
                   s.trace_id);
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    int parent;
    int trace_id;
  };

  bool enabled_;
  double origin_;
  int next_trace_id_ = 1;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int trace_id,
             int parent)
      : tracer_(tracer), id_(tracer->Begin(name, trace_id, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
