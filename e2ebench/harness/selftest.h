#ifndef E2EBENCH_HARNESS_SELFTEST_H_
#define E2EBENCH_HARNESS_SELFTEST_H_

#include "harness/util.h"

namespace e2e {

/// `selftest` command: exact-count checks of the counting wrappers.
int RunSelfTest(const Flags& flags);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_SELFTEST_H_
