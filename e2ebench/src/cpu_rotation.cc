#include "cpu_rotation.h"

#include <filesystem>
#include <string>
#include <system_error>

namespace e2ebench {

namespace {

constexpr std::chrono::milliseconds kRotationPeriod(250);

}  // namespace

CpuRotation::CpuRotation() : next_(std::chrono::steady_clock::now()) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpus_.push_back(cpu);
    }
  }
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    Thread thread;
    thread.tid =
        static_cast<pid_t>(std::stoi(entry.path().filename().string()));
    if (sched_getaffinity(thread.tid, sizeof(thread.original),
                          &thread.original) == 0) {
      threads_.push_back(thread);
    }
  }
  Tick();
}

CpuRotation::~CpuRotation() {
  for (const Thread& thread : threads_) {
    sched_setaffinity(thread.tid, sizeof(thread.original), &thread.original);
  }
}

bool CpuRotation::Tick() {
  const auto now = std::chrono::steady_clock::now();
  if (cpus_.size() < 2 || now < next_) {
    return false;
  }
  next_ = now + kRotationPeriod;
  bool moved = false;
  for (size_t i = 0; i < threads_.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(i + step_) % cpus_.size()], &one);
    // Best effort: a refused move (the thread has exited) only loses the
    // averaging for that thread.
    moved |= sched_setaffinity(threads_[i].tid, sizeof(one), &one) == 0;
  }
  ++step_;
  return moved;
}

}  // namespace e2ebench
