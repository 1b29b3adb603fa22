// Allocation accounting: the harness replaces the global operator new with a
// counting version.  Counts are per thread, so a rank reads exactly the
// allocations made inside its own timed calls.
#pragma once

#include <cstdint>

namespace perfbench {

/// Number of operator-new calls made so far on the calling thread.
std::uint64_t thread_allocs();

}  // namespace perfbench
