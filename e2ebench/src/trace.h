// Span recorder for the traced run. Spans are opened by the benchmark's
// own code around each call into a layer's public functions; nothing under
// src/ is instrumented.
//
// A span has a name, start, end, the span that caused it (the enclosing
// span on the same thread) and the trace id of the operation it served.
// Every thread records into its own log without locks: per-name totals
// (count, total and self time) for every span, raw spans up to a fixed
// capacity. Read the totals and write the file only after every recording
// thread has been joined or is quiescent.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/status.h"

namespace e2ebench {

class Tracer {
 public:
  using NameId = uint32_t;

  struct Totals {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    // Total minus the time covered by child spans on the same thread.
    uint64_t self_ns = 0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  // Registers a span name (idempotent). Call before recording starts.
  NameId Intern(std::string_view name);

  // Tags spans the calling thread opens from now on.
  static void SetTraceId(uint64_t trace_id);

  Totals TotalsFor(NameId name) const;
  Totals TotalsFor(std::string_view name) const;
  uint64_t spans_dropped() const;

  // Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  stcomp::Status WriteJson(const std::string& path) const;

 private:
  friend class ScopedSpan;
  struct ThreadLog;

  ThreadLog* LogForThisThread();
  void Close(NameId name, int64_t start_ns, int64_t end_ns);

  const uint64_t id_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // Guards names_ and logs_ (the vectors only).
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

// Opens a span on construction and closes it on destruction. A null tracer
// records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Tracer::NameId name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Tracer::NameId name_;
  int64_t start_ns_ = 0;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
