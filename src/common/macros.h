#ifndef PPDB_COMMON_MACROS_H_
#define PPDB_COMMON_MACROS_H_

#include <cstdlib>
#include <iostream>

#include "common/status.h"

/// Evaluates `expr` (a `Status` expression); returns it from the enclosing
/// function if it is not OK.
#define PPDB_RETURN_NOT_OK(expr)                 \
  do {                                           \
    ::ppdb::Status _ppdb_status = (expr);        \
    if (!_ppdb_status.ok()) return _ppdb_status; \
  } while (false)

/// As PPDB_RETURN_NOT_OK, but prepends `prefix + ": "` to the error
/// message on the failure path, so propagated errors carry call-site
/// context ("load manifest: open failed: ..." instead of "open failed").
#define PPDB_RETURN_NOT_OK_PREPEND(expr, prefix)                   \
  do {                                                             \
    ::ppdb::Status _ppdb_status = (expr);                          \
    if (!_ppdb_status.ok()) return _ppdb_status.WithPrefix(prefix); \
  } while (false)

/// Deliberately discards a `Status` or `Result<T>`. With both types
/// `[[nodiscard]]`, this is the only sanctioned way to drop one; every use
/// should carry a comment saying where the error is recorded instead
/// (e.g. "the failure is recorded in last_checkpoint_status_ and the
/// breaker").
#define PPDB_IGNORE_ERROR(expr) (void)(expr)

#define PPDB_CONCAT_IMPL(x, y) x##y
#define PPDB_CONCAT(x, y) PPDB_CONCAT_IMPL(x, y)

/// Evaluates `rexpr` (a `Result<T>` expression); on error returns its status
/// from the enclosing function, otherwise declares `lhs` bound to the value.
///
///   PPDB_ASSIGN_OR_RETURN(auto table, catalog.GetTable("patients"));
#define PPDB_ASSIGN_OR_RETURN(lhs, rexpr)                            \
  PPDB_ASSIGN_OR_RETURN_IMPL(PPDB_CONCAT(_ppdb_result_, __LINE__), lhs, rexpr)

#define PPDB_ASSIGN_OR_RETURN_IMPL(result, lhs, rexpr) \
  auto result = (rexpr);                               \
  if (!result.ok()) return result.status();            \
  lhs = std::move(result).value()

/// Aborts the process with a message when `condition` is false. Used for
/// programmer errors (broken invariants), not for input validation.
#define PPDB_CHECK(condition)                                             \
  do {                                                                    \
    if (!(condition)) {                                                   \
      std::cerr << "PPDB_CHECK failed at " << __FILE__ << ":" << __LINE__ \
                << ": " #condition << std::endl;                          \
      std::abort();                                                       \
    }                                                                     \
  } while (false)

/// Like PPDB_CHECK but aborts when `expr` (a Status expression) is not OK.
#define PPDB_CHECK_OK(expr)                                                  \
  do {                                                                       \
    ::ppdb::Status _ppdb_check_status = (expr);                              \
    if (!_ppdb_check_status.ok()) {                                          \
      std::cerr << "PPDB_CHECK_OK failed at " << __FILE__ << ":" << __LINE__ \
                << ": " << _ppdb_check_status.ToString() << std::endl;       \
      std::abort();                                                          \
    }                                                                        \
  } while (false)

#endif  // PPDB_COMMON_MACROS_H_
