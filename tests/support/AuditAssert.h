//===- tests/support/AuditAssert.h - Audit reports as gtest assertions ----===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way tests assert that a live structure holds its invariants:
///
///   EXPECT_TRUE(auditsClean(check::auditEngine(Engine))) << context;
///
/// A failure prints every violation's rule id, ids and message, so a
/// broken invariant names itself instead of reading "false".
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_TESTS_SUPPORT_AUDITASSERT_H
#define CCSIM_TESTS_SUPPORT_AUDITASSERT_H

#include "check/AuditReport.h"
#include "check/CacheAuditor.h"

#include "gtest/gtest.h"

namespace ccsim::test {

/// Success when \p Report is clean; otherwise a failure carrying the
/// rendered report.
inline ::testing::AssertionResult
auditsClean(const check::AuditReport &Report) {
  if (Report.clean())
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << Report.size() << " audit violation(s):\n"
         << Report.render();
}

} // namespace ccsim::test

#endif // CCSIM_TESTS_SUPPORT_AUDITASSERT_H
