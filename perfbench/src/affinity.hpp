// Rotate the benchmark's main thread over the CPUs it may run on.
//
// On a shared VM the virtual CPUs do not run at the same speed, and the
// scheduler tends to keep a busy thread on one of them for a whole run, so
// serial work timed in one process can read 15% apart from the same work in
// the next. Moving the main thread to the next allowed CPU before each
// repetition makes every run sample all CPUs equally. Only the main thread
// moves; exec-pool workers keep the full mask. A no-op off Linux.
#pragma once

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include <cstddef>
#include <vector>

namespace perfbench {

class CpuRotation {
 public:
  CpuRotation() {
#ifdef __linux__
    if (pthread_getaffinity_np(pthread_self(), sizeof(mask_), &mask_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask_)) cpus_.push_back(c);
    }
#endif
  }
  ~CpuRotation() {
#ifdef __linux__
    if (!cpus_.empty()) pthread_setaffinity_np(pthread_self(), sizeof(mask_), &mask_);
#endif
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin the calling (main) thread to the next CPU in turn.
  void next() {
#ifdef __linux__
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
#endif
  }

 private:
#ifdef __linux__
  cpu_set_t mask_{};
#endif
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

}  // namespace perfbench
