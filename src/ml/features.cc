#include "ml/features.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rlr::ml
{

namespace
{

/** Normalization caps for counter features. */
constexpr uint32_t kPreuseCap = 256;
constexpr uint32_t kAgeCap = 256;
constexpr uint32_t kCountCap = 256;

/** Scalar (non-per-way) feature slots. */
constexpr size_t kAccessOffsetBase = 0; // 6 bits
constexpr size_t kAccessPreuseIdx = 6;
constexpr size_t kAccessTypeBase = 7; // 4-way one-hot
constexpr size_t kSetNumberIdx = 11;
constexpr size_t kSetAccessesIdx = 12;
constexpr size_t kSetSinceMissIdx = 13;
constexpr size_t kLineBase = 14;
constexpr size_t kLineStride = 20;

/** Per-line slot offsets within a way's 20-feature block. */
constexpr size_t kLineOffsetBase = 0; // 6 bits
constexpr size_t kLineDirtyIdx = 6;
constexpr size_t kLinePreuseIdx = 7;
constexpr size_t kLineAgeInsertIdx = 8;
constexpr size_t kLineAgeLastIdx = 9;
constexpr size_t kLineLastTypeBase = 10; // 4-way one-hot
constexpr size_t kLineCountsBase = 14;   // LD, RFO, PF, WB
constexpr size_t kLineHitsIdx = 18;
constexpr size_t kLineRecencyIdx = 19;

} // namespace

std::string_view
featureGroupName(FeatureGroup group)
{
    switch (group) {
      case FeatureGroup::AccessOffset:
        return "access offset";
      case FeatureGroup::AccessPreuse:
        return "access preuse";
      case FeatureGroup::AccessType:
        return "access type";
      case FeatureGroup::SetNumber:
        return "set number";
      case FeatureGroup::SetAccesses:
        return "set accesses";
      case FeatureGroup::SetAccessesSinceMiss:
        return "set accesses since miss";
      case FeatureGroup::LineOffset:
        return "line offset";
      case FeatureGroup::LineDirty:
        return "line dirty";
      case FeatureGroup::LinePreuse:
        return "line preuse";
      case FeatureGroup::LineAgeInsert:
        return "line age since insertion";
      case FeatureGroup::LineAgeLast:
        return "line age since last access";
      case FeatureGroup::LineLastType:
        return "line last access type";
      case FeatureGroup::LineLdCount:
        return "line LD access count";
      case FeatureGroup::LineRfoCount:
        return "line RFO access count";
      case FeatureGroup::LinePfCount:
        return "line PF access count";
      case FeatureGroup::LineWbCount:
        return "line WB access count";
      case FeatureGroup::LineHits:
        return "line hits since insertion";
      case FeatureGroup::LineRecency:
        return "line recency";
    }
    return "?";
}

FeatureExtractor::FeatureExtractor(uint32_t ways, uint32_t num_sets)
    : ways_(ways), num_sets_(num_sets)
{
    util::ensure(ways_ > 0 && num_sets_ > 0,
                 "FeatureExtractor: bad geometry");
    mask_.fill(true);
}

size_t
FeatureExtractor::stateSize() const
{
    return kLineBase + static_cast<size_t>(ways_) * kLineStride;
}

void
FeatureExtractor::setMask(const std::vector<FeatureGroup> &enabled)
{
    mask_.fill(false);
    for (const auto g : enabled)
        mask_[static_cast<size_t>(g)] = true;
}

void
FeatureExtractor::clearMask()
{
    mask_.fill(true);
}

bool
FeatureExtractor::enabled(FeatureGroup group) const
{
    return mask_[static_cast<size_t>(group)];
}

float
FeatureExtractor::normCount(uint32_t v, uint32_t cap)
{
    return static_cast<float>(std::min(v, cap)) /
           static_cast<float>(cap);
}

std::vector<size_t>
FeatureExtractor::groupIndices(FeatureGroup group) const
{
    std::vector<size_t> out;
    auto per_way = [&](size_t slot, size_t width = 1) {
        for (uint32_t w = 0; w < ways_; ++w)
            for (size_t k = 0; k < width; ++k)
                out.push_back(kLineBase + w * kLineStride + slot +
                              k);
    };
    switch (group) {
      case FeatureGroup::AccessOffset:
        for (size_t k = 0; k < 6; ++k)
            out.push_back(kAccessOffsetBase + k);
        break;
      case FeatureGroup::AccessPreuse:
        out.push_back(kAccessPreuseIdx);
        break;
      case FeatureGroup::AccessType:
        for (size_t k = 0; k < trace::kNumAccessTypes; ++k)
            out.push_back(kAccessTypeBase + k);
        break;
      case FeatureGroup::SetNumber:
        out.push_back(kSetNumberIdx);
        break;
      case FeatureGroup::SetAccesses:
        out.push_back(kSetAccessesIdx);
        break;
      case FeatureGroup::SetAccessesSinceMiss:
        out.push_back(kSetSinceMissIdx);
        break;
      case FeatureGroup::LineOffset:
        per_way(kLineOffsetBase, 6);
        break;
      case FeatureGroup::LineDirty:
        per_way(kLineDirtyIdx);
        break;
      case FeatureGroup::LinePreuse:
        per_way(kLinePreuseIdx);
        break;
      case FeatureGroup::LineAgeInsert:
        per_way(kLineAgeInsertIdx);
        break;
      case FeatureGroup::LineAgeLast:
        per_way(kLineAgeLastIdx);
        break;
      case FeatureGroup::LineLastType:
        per_way(kLineLastTypeBase, trace::kNumAccessTypes);
        break;
      case FeatureGroup::LineLdCount:
        per_way(kLineCountsBase + 0);
        break;
      case FeatureGroup::LineRfoCount:
        per_way(kLineCountsBase + 1);
        break;
      case FeatureGroup::LinePfCount:
        per_way(kLineCountsBase + 2);
        break;
      case FeatureGroup::LineWbCount:
        per_way(kLineCountsBase + 3);
        break;
      case FeatureGroup::LineHits:
        per_way(kLineHitsIdx);
        break;
      case FeatureGroup::LineRecency:
        per_way(kLineRecencyIdx);
        break;
    }
    return out;
}

std::vector<float>
FeatureExtractor::extract(const AccessFeatures &access,
                          const SetFeatures &set,
                          std::span<const LineFeatures> lines) const
{
    util::ensure(lines.size() == ways_,
                 "FeatureExtractor: way count mismatch");
    std::vector<float> state(stateSize(), 0.0f);

    if (enabled(FeatureGroup::AccessOffset)) {
        for (size_t k = 0; k < 6; ++k)
            state[kAccessOffsetBase + k] =
                static_cast<float>((access.address >> k) & 1);
    }
    if (enabled(FeatureGroup::AccessPreuse))
        state[kAccessPreuseIdx] = normCount(access.preuse,
                                            kPreuseCap);
    if (enabled(FeatureGroup::AccessType))
        state[kAccessTypeBase +
              static_cast<size_t>(access.type)] = 1.0f;
    if (enabled(FeatureGroup::SetNumber))
        state[kSetNumberIdx] = static_cast<float>(access.set) /
                               static_cast<float>(num_sets_);
    if (enabled(FeatureGroup::SetAccesses))
        state[kSetAccessesIdx] = normCount(set.accesses, kAgeCap);
    if (enabled(FeatureGroup::SetAccessesSinceMiss))
        state[kSetSinceMissIdx] =
            normCount(set.accesses_since_miss, kAgeCap);

    for (uint32_t w = 0; w < ways_; ++w) {
        const LineFeatures &lf = lines[w];
        const size_t base = kLineBase + w * kLineStride;
        if (!lf.valid)
            continue;
        if (enabled(FeatureGroup::LineOffset)) {
            for (size_t k = 0; k < 6; ++k)
                state[base + kLineOffsetBase + k] =
                    static_cast<float>((lf.address >> (6 + k)) & 1);
        }
        if (enabled(FeatureGroup::LineDirty))
            state[base + kLineDirtyIdx] = lf.dirty ? 1.0f : 0.0f;
        if (enabled(FeatureGroup::LinePreuse))
            state[base + kLinePreuseIdx] =
                normCount(lf.preuse, kPreuseCap);
        if (enabled(FeatureGroup::LineAgeInsert))
            state[base + kLineAgeInsertIdx] =
                normCount(lf.age_insert, kAgeCap);
        if (enabled(FeatureGroup::LineAgeLast))
            state[base + kLineAgeLastIdx] =
                normCount(lf.age_last, kAgeCap);
        if (enabled(FeatureGroup::LineLastType))
            state[base + kLineLastTypeBase +
                  static_cast<size_t>(lf.last_type)] = 1.0f;
        for (size_t t = 0; t < trace::kNumAccessTypes; ++t) {
            const auto group = static_cast<FeatureGroup>(
                static_cast<size_t>(FeatureGroup::LineLdCount) + t);
            if (enabled(group))
                state[base + kLineCountsBase + t] =
                    normCount(lf.type_counts[t], kCountCap);
        }
        if (enabled(FeatureGroup::LineHits))
            state[base + kLineHitsIdx] =
                normCount(lf.hits, kCountCap);
        if (enabled(FeatureGroup::LineRecency))
            state[base + kLineRecencyIdx] =
                static_cast<float>(lf.recency) /
                static_cast<float>(ways_ - 1);
    }
    return state;
}

} // namespace rlr::ml
