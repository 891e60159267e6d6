/**
 * @file
 * Declarative fault injection for sweep robustness testing.
 *
 * A FaultPlan is parsed from a `--faults` spec and consulted by
 * the SweepRunner for every cell. Its faults form a small taxonomy
 * (docs/ROBUSTNESS.md); `throw@<workload>:<policy>` forces one
 * cell to fail:
 *
 *   throw            cell throws a non-retryable error
 *   transient[:N]    cell throws a RETRYABLE error on its first N
 *                    attempts (default 1), then succeeds
 *   hang             cell blocks until its cancel token fires
 *                    (exercises the --cell-timeout watchdog)
 *   abort            the PROCESS is SIGKILLed when the cell starts
 *                    (exercises crash-resume from the journal)
 *   corrupt-journal  the cell runs normally but its journal
 *                    record is truncated after the write
 *                    (exercises corrupt-record recovery)
 *
 * Each entry targets cells by zero-based index (`hang@2`), by
 * `workload:policy` label (`throw@429.mcf:RLR`), or by a
 * deterministic per-cell rate (`transient%0.25`).
 */

#ifndef RLR_SIM_FAULT_PLAN_HH
#define RLR_SIM_FAULT_PLAN_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace rlr::sim
{

/**
 * A cell failure the SweepRunner may re-queue with backoff
 * (injected transient faults; watchdog timeouts are retried via
 * util::CancelledError's Timeout reason instead).
 */
class RetryableError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** What to inject into one cell. */
enum class FaultKind : uint8_t {
    None = 0,
    Throw,
    Transient,
    Hang,
    AbortProcess,
    CorruptJournal,
};

/** @return the spec keyword for @p kind ("throw", "hang", ...). */
const char *faultKindName(FaultKind kind);

/** Resolved fault for one cell. */
struct FaultAction
{
    FaultKind kind = FaultKind::None;
    /** Transient: attempts that fail before success. */
    uint32_t fail_attempts = 1;
};

/** Parsed `--faults` specification. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Parse a comma-separated spec, e.g.
     * "abort@2", "hang@0,throw@429.mcf:RLR", "transient:2%0.5".
     * @throws std::runtime_error on bad syntax
     */
    static FaultPlan parse(const std::string &spec);

    bool empty() const { return entries_.empty(); }

    /**
     * Fault for the cell at @p index with display label
     * "workload:policy" and derived seed @p seed (rate entries
     * hash the seed so selection is deterministic and
     * thread-count independent). First matching entry wins.
     */
    FaultAction actionFor(size_t index, const std::string &label,
                          uint64_t seed) const;

  private:
    struct Entry
    {
        FaultKind kind = FaultKind::None;
        uint32_t fail_attempts = 1;
        /** Exactly one selector is active. */
        bool by_index = false;
        size_t index = 0;
        bool by_rate = false;
        double rate = 0.0;
        std::string label; // when neither index nor rate
    };

    std::vector<Entry> entries_;
};

} // namespace rlr::sim

#endif // RLR_SIM_FAULT_PLAN_HH
