// Always-on invariant check.
//
// CTFLASH_CHECK guards invariants at module boundaries: on failure it
// prints the condition with its file and line to stderr and aborts.
// Internal hot paths use plain assert().
#pragma once

namespace ctflash::util {

/// Prints "CHECK failed: <condition>" with its source location, then aborts.
[[noreturn]] void CheckFailed(const char* condition, const char* file,
                              int line);

}  // namespace ctflash::util

#define CTFLASH_CHECK(cond)                                       \
  do {                                                            \
    if (!(cond)) {                                                \
      ::ctflash::util::CheckFailed(#cond, __FILE__, __LINE__);    \
    }                                                             \
  } while (false)
