/**
 * @file
 * Belady's optimal replacement (MIN), usable only offline: victims
 * are the lines whose next use lies farthest in the future. As in
 * the paper, Belady runs in the LLC-only offline simulator over a
 * captured access trace (it needs future knowledge), never in the
 * full-hierarchy timing model.
 */

#ifndef RLR_POLICIES_BELADY_HH
#define RLR_POLICIES_BELADY_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/replacement.hh"
#include "trace/trace_io.hh"

namespace rlr::policies
{

/**
 * Future-knowledge index over an LLC trace: for any (line, trace
 * position), the position of the next access to that line.
 */
class BeladyOracle
{
  public:
    /** "Never accessed again." */
    static constexpr uint64_t kNever =
        std::numeric_limits<uint64_t>::max();

    /** Build from a trace in O(n). */
    explicit BeladyOracle(const trace::LlcTrace &trace);

    /**
     * @return the first access position strictly greater than
     * @p seq touching @p line_addr, or kNever.
     */
    uint64_t nextUse(uint64_t line_addr, uint64_t seq) const;

    /** Number of accesses the oracle covers. */
    uint64_t length() const { return length_; }

  private:
    std::unordered_map<uint64_t, std::vector<uint64_t>> positions_;
    uint64_t length_ = 0;
};

/**
 * The MIN policy driven by a BeladyOracle. The driver must call
 * setPosition() with the trace index before each access so the
 * policy knows "now".
 */
class BeladyPolicy : public cache::ReplacementPolicy
{
  public:
    /**
     * @param oracle future-knowledge index (shared with driver)
     * @param allow_bypass skip fills whose next use is farther
     *        than every resident line's (improves on classic MIN
     *        for caches that support bypass)
     */
    explicit BeladyPolicy(std::shared_ptr<const BeladyOracle> oracle,
                          bool allow_bypass = false);

    void bind(const cache::CacheGeometry &geom) override;
    uint32_t
    findVictim(const cache::AccessContext &ctx,
               std::span<const uint64_t> line_addrs) override;
    void onAccess(const cache::AccessContext &ctx) override;
    std::string name() const override { return "Belady"; }
    cache::StorageOverhead overhead() const override;

    /** Set the current trace position (index of the next access). */
    void setPosition(uint64_t seq) { seq_ = seq; }

  private:
    std::shared_ptr<const BeladyOracle> oracle_;
    bool allow_bypass_;
    uint64_t seq_ = 0;
};

} // namespace rlr::policies

#endif // RLR_POLICIES_BELADY_HH
