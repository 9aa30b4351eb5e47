#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"

namespace e2ebench {

namespace {

// Raw spans kept per thread for the span file; totals cover every span.
constexpr size_t kRawSpansPerThread = size_t{1} << 15;

struct OpenSpan {
  uint64_t id = 0;
  uint64_t child_ns = 0;
};

struct RawSpan {
  Tracer::NameId name = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Per-thread recording state. `owner` (a tracer's unique id, never its
// address, which a later tracer may reuse) lets one thread record for
// several tracers over its life (tests build one tracer per case).
struct ThreadState {
  uint64_t owner = 0;
  void* log = nullptr;
  std::vector<OpenSpan> stack;
  uint64_t trace_id = 0;
};

thread_local ThreadState tls;
std::atomic<uint64_t> next_tracer_id{1};

}  // namespace

struct Tracer::ThreadLog {
  size_t thread_index = 0;
  uint64_t next_id = 1;
  std::vector<Totals> totals;  // Indexed by NameId.
  std::vector<RawSpan> raw;
  uint64_t dropped = 0;
};

Tracer::Tracer()
    : id_(next_tracer_id.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() {
  if (tls.owner == id_) {
    tls = ThreadState();
  }
}

Tracer::NameId Tracer::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<NameId>(i);
    }
  }
  names_.emplace_back(name);
  return static_cast<NameId>(names_.size() - 1);
}

void Tracer::SetTraceId(uint64_t trace_id) { tls.trace_id = trace_id; }

Tracer::ThreadLog* Tracer::LogForThisThread() {
  if (tls.owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    auto log = std::make_unique<ThreadLog>();
    log->thread_index = logs_.size();
    log->totals.resize(names_.size());
    log->raw.reserve(kRawSpansPerThread);
    tls = ThreadState();
    tls.owner = id_;
    tls.log = log.get();
    logs_.push_back(std::move(log));
  }
  return static_cast<ThreadLog*>(tls.log);
}

void Tracer::Close(NameId name, int64_t start_ns, int64_t end_ns) {
  ThreadLog* log = LogForThisThread();
  STCOMP_CHECK(!tls.stack.empty());
  const OpenSpan open = tls.stack.back();
  tls.stack.pop_back();
  const uint64_t duration = static_cast<uint64_t>(end_ns - start_ns);
  if (!tls.stack.empty()) {
    tls.stack.back().child_ns += duration;
  }
  if (name >= log->totals.size()) {
    log->totals.resize(name + 1);
  }
  Totals& totals = log->totals[name];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - std::min(duration, open.child_ns);
  if (log->raw.size() < kRawSpansPerThread) {
    log->raw.push_back({name, open.id,
                        tls.stack.empty() ? 0 : tls.stack.back().id,
                        tls.trace_id, start_ns, end_ns});
  } else {
    ++log->dropped;
  }
}

Tracer::Totals Tracer::TotalsFor(NameId name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals sum;
  for (const auto& log : logs_) {
    if (name < log->totals.size()) {
      sum.count += log->totals[name].count;
      sum.total_ns += log->totals[name].total_ns;
      sum.self_ns += log->totals[name].self_ns;
    }
  }
  return sum;
}

Tracer::Totals Tracer::TotalsFor(std::string_view name) const {
  NameId id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(names_.begin(), names_.end(), name);
    if (it == names_.end()) {
      return {};
    }
    id = static_cast<NameId>(it - names_.begin());
  }
  return TotalsFor(id);
}

uint64_t Tracer::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t dropped = 0;
  for (const auto& log : logs_) {
    dropped += log->dropped;
  }
  return dropped;
}

stcomp::Status Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return stcomp::IoError("cannot write " + path);
  }
  std::fputs("{\"traceEvents\":[", file);
  bool first = true;
  for (const auto& log : logs_) {
    for (const RawSpan& span : log->raw) {
      // Span ids are per thread; the thread index makes them global.
      std::fprintf(file,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%zu.%llu\","
                   "\"parent\":\"%zu.%llu\",\"trace\":%llu}}",
                   first ? "" : ",", names_[span.name].c_str(),
                   log->thread_index, span.start_ns / 1e3,
                   (span.end_ns - span.start_ns) / 1e3, log->thread_index,
                   static_cast<unsigned long long>(span.id), log->thread_index,
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.trace_id));
      first = false;
    }
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0 ? stcomp::Status()
                                : stcomp::IoError("cannot close " + path);
}

ScopedSpan::ScopedSpan(Tracer* tracer, Tracer::NameId name)
    : tracer_(tracer), name_(name) {
  if (tracer_ == nullptr) {
    return;
  }
  Tracer::ThreadLog* log = tracer_->LogForThisThread();
  tls.stack.push_back({log->next_id++, 0});
  start_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - tracer_->epoch_)
                  .count();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) {
    return;
  }
  const int64_t end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - tracer_->epoch_)
          .count();
  tracer_->Close(name_, start_ns_, end_ns);
}

}  // namespace e2ebench
