#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace ctflash::util {

void CheckFailed(const char* condition, const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  std::fprintf(stderr, "[ERROR %s:%d] CHECK failed: %s\n", base, line,
               condition);
  std::abort();
}

}  // namespace ctflash::util
