// Exit-code audit (docs/ROBUSTNESS.md): every bench binary
// resolves its exit status through SweepRunner::exitCode, so this
// table IS the policy — 130 after a SIGINT/SIGTERM drain, 1 when
// any cell failed, 0 only when every cell committed ok.

#include <gtest/gtest.h>

#include "sim/sweep_runner.hh"

using rlr::sim::SweepRunner;

TEST(ExitCodes, Table)
{
    // interrupted, any_failed -> exit status
    EXPECT_EQ(SweepRunner::exitCode(false, false), 0);
    EXPECT_EQ(SweepRunner::exitCode(false, true), 1);
    EXPECT_EQ(SweepRunner::exitCode(true, false), 130);
    // A drain outranks cell failures: the operator pressed ^C, so
    // "interrupted" is the truthful summary of the run.
    EXPECT_EQ(SweepRunner::exitCode(true, true), 130);
}
