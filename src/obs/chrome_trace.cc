#include "obs/chrome_trace.hh"

#include <algorithm>
#include <numeric>

#include "stats/export.hh"
#include "util/format.hh"

namespace rlr::obs
{

void
assignLanes(std::vector<TraceSpan> &spans)
{
    // First-fit interval partitioning: visit spans by start time,
    // reuse the first lane whose last span has already ended.
    std::vector<size_t> order(spans.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return spans[a].start_us <
                                spans[b].start_us;
                     });
    std::vector<uint64_t> lane_end;
    for (const size_t i : order) {
        TraceSpan &s = spans[i];
        uint32_t lane = 0;
        while (lane < lane_end.size() &&
               lane_end[lane] > s.start_us)
            ++lane;
        if (lane == lane_end.size())
            lane_end.push_back(0);
        lane_end[lane] = s.start_us + s.duration_us;
        s.tid = lane;
    }
}

std::string
chromeTraceJson(const std::vector<TraceSpan> &spans,
                const std::string &process_name)
{
    using stats::json::escape;

    std::string out = "{\n  \"displayTimeUnit\": \"ms\",\n"
                      "  \"traceEvents\": [\n";
    out += util::format(
        "    {{\"name\": \"process_name\", \"ph\": \"M\", "
        "\"pid\": 1, \"tid\": 0, "
        "\"args\": {{\"name\": \"{}\"}}}}",
        escape(process_name));
    for (const TraceSpan &s : spans) {
        out += ",\n";
        out += util::format(
            "    {{\"name\": \"{}\", \"cat\": \"{}\", "
            "\"ph\": \"X\", \"ts\": {}, \"dur\": {}, "
            "\"pid\": 1, \"tid\": {}",
            escape(s.name), escape(s.category), s.start_us,
            s.duration_us, s.tid);
        if (!s.args.empty()) {
            out += ", \"args\": {";
            for (size_t i = 0; i < s.args.size(); ++i) {
                if (i)
                    out += ", ";
                out += util::format("\"{}\": {}",
                                    escape(s.args[i].first),
                                    s.args[i].second);
            }
            out += "}";
        }
        out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
}

} // namespace rlr::obs
