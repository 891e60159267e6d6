/**
 * @file
 * Chrome trace_event exporter: renders a list of timed spans into
 * the JSON Object Format understood by chrome://tracing and
 * Perfetto ("traceEvents" array of ph:"X" complete events with
 * microsecond ts/dur). sim::SweepRunner converts its cells into
 * TraceSpans (one per (workload, policy) cell, packed into lanes)
 * so a whole sweep's schedule is viewable on a timeline.
 *
 * The exporter itself is generic and layering-neutral: it knows
 * nothing about sweeps, only named spans with integer timestamps,
 * so any future component (epoch phases, per-workload segments)
 * can reuse it.
 */

#ifndef RLR_OBS_CHROME_TRACE_HH
#define RLR_OBS_CHROME_TRACE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rlr::obs
{

/** One complete ("X") trace event. */
struct TraceSpan
{
    /** Display name of the slice. */
    std::string name;
    /** Comma-separated categories (trace_event "cat"). */
    std::string category;
    /** Start timestamp in microseconds. */
    uint64_t start_us = 0;
    /** Duration in microseconds. */
    uint64_t duration_us = 0;
    /** Lane; see assignLanes() for automatic packing. */
    uint32_t tid = 0;
    /** Extra "args" members as (key, pre-rendered JSON value) —
     *  values must already be valid JSON (quoted strings, bare
     *  numbers), they are emitted verbatim. */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Pack spans into the smallest number of non-overlapping lanes
 * (first-fit by start time), writing each span's tid. Spans with
 * zero duration (stable-telemetry exports) all fit lane 0.
 */
void assignLanes(std::vector<TraceSpan> &spans);

/**
 * Render spans as a complete trace_event JSON document:
 * an object with "displayTimeUnit" and a "traceEvents" array
 * holding one "M" process_name metadata event (named @p
 * process_name) followed by one "X" event per span, all in
 * process 1.
 */
std::string chromeTraceJson(const std::vector<TraceSpan> &spans,
                            const std::string &process_name);

} // namespace rlr::obs

#endif // RLR_OBS_CHROME_TRACE_HH
