#ifndef E2EBENCH_HARNESS_TRACED_H_
#define E2EBENCH_HARNESS_TRACED_H_

#include "harness/util.h"

namespace e2e {

/// `trace` command: the per-layer run (see traced.cc).
int RunTrace(const Flags& flags);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_TRACED_H_
