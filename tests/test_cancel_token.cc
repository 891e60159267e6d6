/**
 * @file
 * util::CancelToken semantics and the cancellation checkpoints in
 * the core run loop.
 *
 * The checkpoint's cost is pinned by structure, not by wall clock:
 * O3Core::run polls an attached token exactly once every
 * kCancelCheckInterval instructions, so a token cancelled while
 * instruction k is produced is seen after exactly k rounded up to
 * the next multiple of the interval. A poll per instruction, or a
 * missing poll, moves that count whatever the host's speed.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "cpu/core.hh"
#include "sim/experiment.hh"
#include "util/cancel_token.hh"

using namespace rlr;
using util::CancelledError;
using util::CancelToken;

TEST(CancelToken, StartsClear)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelToken::Reason::None);
}

TEST(CancelToken, FirstCancelWins)
{
    CancelToken token;
    token.cancel(CancelToken::Reason::Timeout);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelToken::Reason::Timeout);
    // A later cancel with a different reason must not overwrite.
    token.cancel(CancelToken::Reason::Signal);
    EXPECT_EQ(token.reason(), CancelToken::Reason::Timeout);
}

TEST(CancelToken, ResetRearms)
{
    CancelToken token;
    token.cancel(CancelToken::Reason::Signal);
    token.reset();
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelToken::Reason::None);
    token.cancel(CancelToken::Reason::Other);
    EXPECT_EQ(token.reason(), CancelToken::Reason::Other);
}

TEST(CancelToken, ReasonNames)
{
    EXPECT_STREQ(CancelToken::reasonName(
                     CancelToken::Reason::None),
                 "none");
    EXPECT_STREQ(CancelToken::reasonName(
                     CancelToken::Reason::Timeout),
                 "timeout");
    EXPECT_STREQ(CancelToken::reasonName(
                     CancelToken::Reason::Signal),
                 "signal");
    EXPECT_STREQ(CancelToken::reasonName(
                     CancelToken::Reason::Other),
                 "other");
}

TEST(CancelToken, CancelledErrorCarriesReason)
{
    const CancelledError err(CancelToken::Reason::Timeout);
    EXPECT_EQ(err.reason(), CancelToken::Reason::Timeout);
    EXPECT_NE(std::string(err.what()).find("timeout"),
              std::string::npos);
}

TEST(CancelToken, PreCancelledSimulationThrowsAtFirstCheckpoint)
{
    CancelToken token;
    token.cancel(CancelToken::Reason::Other);
    sim::SimParams params;
    params.warmup_instructions = 10'000;
    params.sim_instructions = 10'000;
    params.cancel = &token;
    EXPECT_THROW(sim::runSingleCore("429.mcf", params),
                 CancelledError);
}

TEST(CancelToken, MidRunCancellationUnwindsPromptly)
{
    CancelToken token;
    sim::SimParams params;
    // Long enough that an uncancelled run takes many seconds.
    params.warmup_instructions = 0;
    params.sim_instructions = 400'000'000;
    params.cancel = &token;

    std::thread canceller([&] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
        token.cancel(CancelToken::Reason::Signal);
    });
    const auto start = std::chrono::steady_clock::now();
    try {
        sim::runSingleCore("429.mcf", params);
        FAIL() << "expected CancelledError";
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.reason(), CancelToken::Reason::Signal);
    }
    canceller.join();
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    // The next checkpoint is at most kCancelCheckInterval
    // instructions away — generously, well under 5 s even on a
    // loaded machine.
    EXPECT_LT(seconds, 5.0);
}

namespace
{

/** Answers every access in one cycle. */
class FlatMemory : public cache::MemoryLevel
{
  public:
    uint64_t
    access(const cache::MemRequest &, uint64_t now) override
    {
        return now + 1;
    }

    const std::string &name() const override { return name_; }

  private:
    std::string name_ = "flat";
};

/** ALU instructions; cancels @p token as it produces the k-th. */
class CancellingSource : public trace::InstructionSource
{
  public:
    CancellingSource(CancelToken &token, uint64_t k)
        : token_(token), k_(k)
    {
    }

    bool
    next(trace::Instruction &out) override
    {
        out = trace::Instruction{};
        out.pc = 0x1000;
        out.kind = trace::InstrKind::Alu;
        if (++produced_ == k_)
            token_.cancel(CancelToken::Reason::Timeout);
        return true;
    }

    void reset() override {}
    const std::string &name() const override { return name_; }

  private:
    CancelToken &token_;
    uint64_t k_;
    uint64_t produced_ = 0;
    std::string name_ = "cancelling";
};

/** @return core.instructions() when run() threw for cancel at @p k. */
uint64_t
instructionsAtCancel(uint64_t k)
{
    FlatMemory mem;
    cpu::O3Core core(cpu::CoreConfig{}, 0, &mem, &mem);
    CancelToken token;
    core.setCancelToken(&token);
    CancellingSource source(token, k);
    try {
        core.run(source, 64 * util::kCancelCheckInterval);
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.reason(), CancelToken::Reason::Timeout);
        return core.instructions();
    }
    ADD_FAILURE() << "run() did not throw for a cancel at " << k;
    return core.instructions();
}

} // namespace

TEST(CancelToken, CheckpointPollsOncePerInterval)
{
    // Structural replacement for a wall-clock overhead bound: the
    // checkpoint is polled at instruction counts 0, I, 2I, ... and
    // nowhere else (I = kCancelCheckInterval), so a cancel raised
    // while instruction k is produced is seen after exactly
    // ceil(k / I) * I instructions.
    constexpr uint64_t I = util::kCancelCheckInterval;
    for (const uint64_t k :
         {uint64_t{1}, uint64_t{2}, I - 1, I, I + 1, 2 * I - 1,
          5 * I, 5 * I + 7}) {
        const uint64_t want = (k + I - 1) / I * I;
        EXPECT_EQ(instructionsAtCancel(k), want) << "k = " << k;
    }
}

TEST(CancelToken, DetachedTokenNeverStopsTheRun)
{
    // A source that cancels a token the core does not hold: the
    // run completes every instruction.
    FlatMemory mem;
    cpu::O3Core core(cpu::CoreConfig{}, 0, &mem, &mem);
    CancelToken token;
    CancellingSource source(token, 1);
    core.run(source, 3 * util::kCancelCheckInterval);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(core.instructions(), 3 * util::kCancelCheckInterval);
}
