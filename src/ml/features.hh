/**
 * @file
 * LLC state featurization for the RL agent — the paper's Table II.
 *
 * The 334-float state vector for a 16-way LLC:
 *   access information (11): 6 offset bits, preuse, type one-hot
 *   set information    (3): set number, set accesses,
 *                           set accesses since miss
 *   per-way line info  (16 x 20): 6 offset bits, dirty, preuse,
 *                           age since insertion, age since last
 *                           access, last type one-hot (4),
 *                           LD/RFO/PF/WB counts, hits since
 *                           insertion, recency
 *
 * Features are grouped into the 18 named groups used by the heat
 * map (Fig. 3) and hill-climbing feature selection; groups can be
 * masked to zero for ablation studies.
 */

#ifndef RLR_ML_FEATURES_HH
#define RLR_ML_FEATURES_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/record.hh"

namespace rlr::ml
{

/** The named feature groups of Table II. */
enum class FeatureGroup : uint8_t
{
    AccessOffset = 0,
    AccessPreuse,
    AccessType,
    SetNumber,
    SetAccesses,
    SetAccessesSinceMiss,
    LineOffset,
    LineDirty,
    LinePreuse,
    LineAgeInsert,
    LineAgeLast,
    LineLastType,
    LineLdCount,
    LineRfoCount,
    LinePfCount,
    LineWbCount,
    LineHits,
    LineRecency,
};

/** Number of feature groups. */
inline constexpr size_t kNumFeatureGroups = 18;

/** @return human-readable group name (heat-map rows). */
std::string_view featureGroupName(FeatureGroup group);

/** Per-line observable state tracked by the offline cache model. */
struct LineFeatures
{
    bool valid = false;
    uint64_t address = 0;
    bool dirty = false;
    /** Set accesses between the last two accesses of the line. */
    uint32_t preuse = 0;
    /** Set accesses since the line was inserted. */
    uint32_t age_insert = 0;
    /** Set accesses since the line was last accessed. */
    uint32_t age_last = 0;
    trace::AccessType last_type = trace::AccessType::Load;
    std::array<uint32_t, trace::kNumAccessTypes> type_counts{};
    uint32_t hits = 0;
    /** Recency rank: 0 = LRU .. ways-1 = MRU. */
    uint32_t recency = 0;
};

/** Per-set observable state. */
struct SetFeatures
{
    uint32_t accesses = 0;
    uint32_t accesses_since_miss = 0;
};

/** Information about the access being served. */
struct AccessFeatures
{
    uint64_t address = 0;
    /** Set accesses since the last access to this address. */
    uint32_t preuse = 0;
    trace::AccessType type = trace::AccessType::Load;
    uint32_t set = 0;
};

/**
 * Builds state vectors from cache/set/access features, honouring
 * an optional per-group mask (hill climbing, ablations).
 */
class FeatureExtractor
{
  public:
    /** @param ways LLC associativity; @param num_sets set count */
    FeatureExtractor(uint32_t ways, uint32_t num_sets);

    /** State vector length (334 for 16 ways). */
    size_t stateSize() const;

    /** Offset of a group's features for way @p way (or access/set
     * scope for the scalar groups). Used by weight analysis. */
    std::vector<size_t> groupIndices(FeatureGroup group) const;

    /** Enable only the listed groups; others read as zero. */
    void setMask(const std::vector<FeatureGroup> &enabled);

    /** Enable every group (default). */
    void clearMask();

    /** @return true when the group is currently enabled. */
    bool enabled(FeatureGroup group) const;

    /** Build the state vector. @p lines has one entry per way. */
    std::vector<float>
    extract(const AccessFeatures &access, const SetFeatures &set,
            std::span<const LineFeatures> lines) const;

  private:
    static float normCount(uint32_t v, uint32_t cap);

    uint32_t ways_;
    uint32_t num_sets_;
    std::array<bool, kNumFeatureGroups> mask_{};
};

} // namespace rlr::ml

#endif // RLR_ML_FEATURES_HH
