/**
 * @file
 * In-memory LLC access traces.
 *
 * The paper's flow captures (PC, access type, address) tuples at the
 * LLC under an LRU policy and feeds them to an offline simulator for
 * RL training and the Belady oracle. LlcTrace is that capture.
 */

#ifndef RLR_TRACE_TRACE_IO_HH
#define RLR_TRACE_TRACE_IO_HH

#include <cstdint>
#include <vector>

#include "trace/record.hh"

namespace rlr::trace
{

/** An ordered sequence of LLC accesses. */
class LlcTrace
{
  public:
    LlcTrace() = default;
    explicit LlcTrace(std::vector<LlcAccess> accesses);

    void append(const LlcAccess &access) { accesses_.push_back(access); }
    void clear() { accesses_.clear(); }
    size_t size() const { return accesses_.size(); }
    bool empty() const { return accesses_.empty(); }

    const LlcAccess &operator[](size_t i) const { return accesses_[i]; }
    const std::vector<LlcAccess> &accesses() const { return accesses_; }

    auto begin() const { return accesses_.begin(); }
    auto end() const { return accesses_.end(); }

    /** Count of accesses with the given type. */
    uint64_t countType(AccessType type) const;

  private:
    std::vector<LlcAccess> accesses_;
};

} // namespace rlr::trace

#endif // RLR_TRACE_TRACE_IO_HH
