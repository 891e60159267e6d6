#include "cpu/branch_predictor.hh"

#include "util/bits.hh"

namespace rlr::cpu
{

GsharePredictor::GsharePredictor(BranchPredictorConfig config)
    : config_(config)
{
    table_.assign(1ULL << config_.index_bits, 1); // weakly not-taken
}

size_t
GsharePredictor::index(uint64_t pc) const
{
    const uint64_t hist =
        history_ & util::mask(config_.history_bits);
    return static_cast<size_t>(((pc >> 2) ^ hist) &
                               util::mask(config_.index_bits));
}

bool
GsharePredictor::predict(uint64_t pc) const
{
    return table_[index(pc)] >= (kCounterMax + 1) / 2;
}

void
GsharePredictor::update(uint64_t pc, bool taken)
{
    uint8_t &ctr = table_[index(pc)];
    if (taken && ctr < kCounterMax)
        ++ctr;
    else if (!taken && ctr > 0)
        --ctr;
    history_ = (history_ << 1) | (taken ? 1 : 0);
}

bool
GsharePredictor::predictAndUpdate(uint64_t pc, bool taken)
{
    ++lookups_;
    const bool correct = predict(pc) == taken;
    if (!correct)
        ++mispredicts_;
    update(pc, taken);
    return correct;
}

} // namespace rlr::cpu
