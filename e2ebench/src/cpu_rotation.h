// Moves every thread of the process round the CPUs it may run on, one step
// every 250 ms, so a measurement samples every core.
//
// On a shared virtual machine one core can run 30% slower than its
// neighbours for tens of seconds (a busy sibling on the host), and the
// scheduler tends to leave a thread where it is. Rotating turns that
// per-core luck into an average over the cores. Thread i of the process
// sits on CPU (i + step) mod n, so threads never share a CPU while there
// are at least as many CPUs as threads.

#ifndef E2EBENCH_CPU_ROTATION_H_
#define E2EBENCH_CPU_ROTATION_H_

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <vector>

namespace e2ebench {

class CpuRotation {
 public:
  // Takes the threads alive now; create it after the threads under test.
  CpuRotation();
  // Restores each thread's original CPU mask.
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Takes the next step once 250 ms have passed; cheap otherwise.
  // True when it moved: the threads' caches are cold on their new CPUs.
  bool Tick();

 private:
  struct Thread {
    pid_t tid = 0;
    cpu_set_t original;
  };

  std::chrono::steady_clock::time_point next_;
  std::vector<Thread> threads_;
  std::vector<int> cpus_;  // Allowed to the calling thread.
  size_t step_ = 0;
};

}  // namespace e2ebench

#endif  // E2EBENCH_CPU_ROTATION_H_
