// Counting global operator new/delete for the e2e_bench binary (the
// technique of tests/alloc/test_alloc_guard.cc). Counting is off until
// a traced run turns it on, and then counts every thread's allocations,
// the pool workers' included.

#ifndef E2EBENCH_ALLOC_HOOKS_H_
#define E2EBENCH_ALLOC_HOOKS_H_

#include <cstdint>

namespace e2e {

struct AllocCounts {
  uint64_t allocations = 0;
  uint64_t bytes = 0;
};

void SetAllocCounting(bool on);
AllocCounts AllocTotals();

/// Allocations made between construction and Read().
class AllocMeter {
 public:
  AllocMeter() : start_(AllocTotals()) {}
  AllocCounts Read() const {
    const AllocCounts now = AllocTotals();
    return {now.allocations - start_.allocations, now.bytes - start_.bytes};
  }

 private:
  AllocCounts start_;
};

}  // namespace e2e

#endif  // E2EBENCH_ALLOC_HOOKS_H_
