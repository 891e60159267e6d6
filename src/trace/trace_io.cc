#include "trace/trace_io.hh"

namespace rlr::trace
{

LlcTrace::LlcTrace(std::vector<LlcAccess> accesses)
    : accesses_(std::move(accesses))
{
}

uint64_t
LlcTrace::countType(AccessType type) const
{
    uint64_t n = 0;
    for (const auto &a : accesses_)
        if (a.type == type)
            ++n;
    return n;
}

} // namespace rlr::trace
