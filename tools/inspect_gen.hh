/**
 * @file
 * Trace-inspection report generator: renders a bench --events
 * export (obs::eventsToJson) into a markdown report answering
 * *why* a policy behaved as it did — decision mix, bypass-reason
 * breakdown, Fig-5/6/7-style victim statistics (age per last
 * access type, hit counts at eviction, recency position), victim
 * priority distribution, and per-set access/miss hot spots.
 *
 * Split from the CLI (tools/inspect.cc) so tests can call
 * generateInspect() and victimStats() directly — the latter is
 * the cross-validation surface against the ml offline pipeline's
 * FeatureStats (same units: age in set accesses, recency 0 =
 * LRU).
 */

#ifndef RLR_TOOLS_INSPECT_GEN_HH
#define RLR_TOOLS_INSPECT_GEN_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/events_io.hh"
#include "obs/heartbeat.hh"
#include "trace/record.hh"

namespace rlr::tools
{

/** Rendering options for generateInspect(). */
struct InspectOptions
{
    std::string title = "LLC decision-trace inspection";
    /** Shown as the provenance line ("" = omitted). */
    std::string source;
    /** Hottest sets listed in the heatmap section. */
    size_t top_sets = 8;
};

/**
 * Victim statistics aggregated from a log's eviction events —
 * the production-simulator counterpart of ml::FeatureStats
 * (Figs. 5-7), in the same units.
 */
struct VictimStats
{
    /** Fig. 5: age-at-eviction sums/counts per last access type
     *  (set-access units). */
    std::array<uint64_t, trace::kNumAccessTypes> victim_age_sum{};
    std::array<uint64_t, trace::kNumAccessTypes> victim_count{};

    /** Fig. 6: victims with 0 / 1 / >1 hits. */
    uint64_t victims_zero_hits = 0;
    uint64_t victims_one_hit = 0;
    uint64_t victims_multi_hits = 0;

    /** Fig. 7: victim recency histogram (index 0 = LRU). */
    std::vector<uint64_t> victim_recency;

    uint64_t evictions = 0;

    /** Mean age at eviction for victims of last type @p t. */
    double avgVictimAge(trace::AccessType t) const;
};

/** Aggregate the eviction events of one cell's log. */
VictimStats victimStats(const obs::EventLogData &log);

/**
 * Render the inspection report for an events export.
 * @param events_json output of obs::eventsToJson (bench --events)
 * @throws std::runtime_error on malformed input
 */
std::string generateInspect(const std::string &events_json,
                            const InspectOptions &opts);

/** Same, from already-parsed cells. */
std::string
generateInspect(const std::vector<obs::CellEvents> &cells,
                const InspectOptions &opts);

/**
 * Validate a Chrome trace_event JSON document (as written by
 * --chrome-trace): top-level "traceEvents" array whose members
 * carry name/ph/pid/tid, with numeric ts/dur on every "X" event.
 * @return number of trace events
 * @throws std::runtime_error describing the first violation
 */
size_t checkChromeTrace(const std::string &trace_json);

/**
 * Render one `inspect --top` frame from a parsed heartbeat:
 * sweep totals (done/running/failed, throughput, ETA, RSS) plus
 * one line per busy worker. Workers whose current cell has run
 * longer than max(5s, 3x the median busy-worker age) are flagged
 * as stragglers.
 */
std::string renderTop(const obs::Heartbeat &hb);

} // namespace rlr::tools

#endif // RLR_TOOLS_INSPECT_GEN_HH
