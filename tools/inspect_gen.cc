#include "tools/inspect_gen.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "stats/export.hh"
#include "stats/stats.hh"
#include "util/format.hh"

namespace rlr::tools
{

namespace
{

/** Fixed-precision number; em dash for NaN/inf (missing data). */
std::string
fmt(double v, int prec = 2)
{
    if (!std::isfinite(v))
        return "—";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
}

std::string
fmtPct(uint64_t part, uint64_t whole)
{
    if (whole == 0)
        return "—";
    return fmt(100.0 * static_cast<double>(part) /
               static_cast<double>(whole)) +
           "%";
}

std::string
mdTable(const std::vector<std::string> &header,
        const std::vector<std::vector<std::string>> &rows)
{
    std::string out = "|";
    for (const auto &h : header)
        out += " " + h + " |";
    out += "\n|";
    for (size_t i = 0; i < header.size(); ++i)
        out += "---|";
    out += "\n";
    for (const auto &row : rows) {
        out += "|";
        for (const auto &c : row)
            out += " " + c + " |";
        out += "\n";
    }
    return out;
}

/** Events per kind resident in a log's ring. */
std::array<uint64_t, obs::kNumEventKinds>
kindCounts(const obs::EventLogData &log)
{
    std::array<uint64_t, obs::kNumEventKinds> counts{};
    for (const obs::Event &ev : log.events)
        ++counts[static_cast<size_t>(ev.kind)];
    return counts;
}

/** Bypass events per reason code. */
std::array<uint64_t, cache::kNumBypassReasons>
bypassReasonCounts(const obs::EventLogData &log)
{
    std::array<uint64_t, cache::kNumBypassReasons> counts{};
    for (const obs::Event &ev : log.events)
        if (ev.kind == obs::EventKind::Bypass)
            ++counts[static_cast<size_t>(ev.reason)];
    return counts;
}

void
renderCell(std::string &out, const obs::CellEvents &cell,
           const InspectOptions &opts)
{
    const obs::EventLogData &log = cell.log;
    out += util::format("## {} / {}\n\n", cell.workload,
                        cell.policy);
    out += util::format(
        "Seed {} · ring capacity {} · 1-in-{} set sampling · "
        "{} events recorded ({} overwritten, {} sampled out, "
        "{} resident)\n\n",
        cell.seed, log.config.capacity, log.config.sample_sets,
        log.recorded, log.overwritten, log.sampled_out,
        log.events.size());

    // --- Decision mix -------------------------------------------
    out += "### Decision mix (resident events)\n\n";
    const auto kinds = kindCounts(log);
    {
        std::vector<std::vector<std::string>> rows;
        for (size_t k = 0; k < obs::kNumEventKinds; ++k) {
            rows.push_back(
                {std::string(obs::eventKindName(
                     static_cast<obs::EventKind>(k))),
                 util::format("{}", kinds[k]),
                 fmtPct(kinds[k], log.events.size())});
        }
        out += mdTable({"Event", "Count", "Share"}, rows) + "\n";
    }

    // --- Bypass reasons -----------------------------------------
    const auto reasons = bypassReasonCounts(log);
    const uint64_t bypasses =
        kinds[static_cast<size_t>(obs::EventKind::Bypass)];
    if (bypasses > 0) {
        out += "### Bypass reasons\n\n";
        std::vector<std::vector<std::string>> rows;
        for (size_t r = 0; r < cache::kNumBypassReasons; ++r) {
            if (reasons[r] == 0)
                continue;
            rows.push_back(
                {std::string(obs::bypassReasonName(
                     static_cast<cache::BypassReason>(r))),
                 util::format("{}", reasons[r]),
                 fmtPct(reasons[r], bypasses)});
        }
        out += mdTable({"Reason", "Count", "Share"}, rows) + "\n";
    }

    // --- Victim statistics (paper Figs. 5-7) --------------------
    const VictimStats vs = victimStats(log);
    if (vs.evictions > 0) {
        out += "### Victim age by last access type (Fig. 5 "
               "style)\n\n";
        out += "Age at eviction in set-access units, grouped by "
               "the victim's last access type.\n\n";
        std::vector<std::vector<std::string>> age_rows;
        for (size_t t = 0; t < trace::kNumAccessTypes; ++t) {
            const auto type = static_cast<trace::AccessType>(t);
            age_rows.push_back(
                {std::string(trace::accessTypeName(type)),
                 util::format("{}", vs.victim_count[t]),
                 fmt(vs.avgVictimAge(type))});
        }
        out += mdTable({"Last type", "Victims", "Avg age"},
                       age_rows) +
               "\n";

        out += "### Victim hit counts (Fig. 6 style)\n\n";
        out += mdTable(
                   {"Hits before eviction", "Victims", "Share"},
                   {{"0", util::format("{}", vs.victims_zero_hits),
                     fmtPct(vs.victims_zero_hits, vs.evictions)},
                    {"1", util::format("{}", vs.victims_one_hit),
                     fmtPct(vs.victims_one_hit, vs.evictions)},
                    {">1",
                     util::format("{}", vs.victims_multi_hits),
                     fmtPct(vs.victims_multi_hits,
                            vs.evictions)}}) +
               "\n";

        out += "### Victim recency (Fig. 7 style)\n\n";
        out += "Position in the set's recency order at eviction "
               "(0 = LRU).\n\n";
        {
            std::vector<std::vector<std::string>> rows;
            for (size_t r = 0; r < vs.victim_recency.size(); ++r) {
                if (vs.victim_recency[r] == 0)
                    continue;
                rows.push_back(
                    {util::format("{}", r),
                     util::format("{}", vs.victim_recency[r]),
                     fmtPct(vs.victim_recency[r], vs.evictions)});
            }
            out += mdTable({"Recency", "Victims", "Share"}, rows) +
                   "\n";
        }

        out += "### Victim priority\n\n";
        uint64_t prio_min = ~0ULL, prio_max = 0, prio_sum = 0;
        for (const obs::Event &ev : log.events) {
            if (ev.kind != obs::EventKind::Eviction)
                continue;
            prio_min = std::min(prio_min, ev.priority);
            prio_max = std::max(prio_max, ev.priority);
            prio_sum += ev.priority;
        }
        out += util::format(
            "Policy priority of evicted lines: min {}, mean {}, "
            "max {}.\n\n",
            prio_min,
            fmt(static_cast<double>(prio_sum) /
                static_cast<double>(vs.evictions)),
            prio_max);
    }

    // --- Per-set heatmap ----------------------------------------
    const uint64_t total_accesses =
        std::accumulate(log.set_accesses.begin(),
                        log.set_accesses.end(), uint64_t{0});
    if (total_accesses > 0 && opts.top_sets > 0) {
        out += util::format(
            "### Hottest sets (top {} of {})\n\n", opts.top_sets,
            log.set_accesses.size());
        std::vector<size_t> order(log.set_accesses.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return log.set_accesses[a] >
                                    log.set_accesses[b];
                         });
        std::vector<std::vector<std::string>> rows;
        for (size_t i = 0;
             i < std::min(opts.top_sets, order.size()); ++i) {
            const size_t s = order[i];
            const uint64_t acc = log.set_accesses[s];
            const uint64_t miss =
                s < log.set_misses.size() ? log.set_misses[s] : 0;
            rows.push_back({util::format("{}", s),
                            util::format("{}", acc),
                            util::format("{}", miss),
                            fmtPct(miss, acc)});
        }
        out += mdTable({"Set", "Accesses", "Misses", "Miss rate"},
                       rows) +
               "\n";
    }
}

} // namespace

double
VictimStats::avgVictimAge(trace::AccessType t) const
{
    const auto i = static_cast<size_t>(t);
    return stats::safeDiv(static_cast<double>(victim_age_sum[i]),
                          static_cast<double>(victim_count[i]));
}

VictimStats
victimStats(const obs::EventLogData &log)
{
    VictimStats vs;
    vs.victim_recency.assign(std::max(1u, log.ways), 0);
    for (const obs::Event &ev : log.events) {
        if (ev.kind != obs::EventKind::Eviction)
            continue;
        ++vs.evictions;
        const auto t = static_cast<size_t>(ev.victim_last_type);
        vs.victim_age_sum[t] += ev.victim_age;
        ++vs.victim_count[t];
        if (ev.victim_hits == 0)
            ++vs.victims_zero_hits;
        else if (ev.victim_hits == 1)
            ++vs.victims_one_hit;
        else
            ++vs.victims_multi_hits;
        const size_t r =
            std::min<size_t>(ev.victim_recency,
                             vs.victim_recency.size() - 1);
        ++vs.victim_recency[r];
    }
    return vs;
}

std::string
generateInspect(const std::vector<obs::CellEvents> &cells,
                const InspectOptions &opts)
{
    std::string out = "# " + opts.title + "\n\n";
    if (!opts.source.empty())
        out += "Source: `" + opts.source + "`\n\n";
    out += util::format(
        "{} cell(s). Events are decision points of the production "
        "simulator's LLC (src/obs/ ring buffer); victim "
        "statistics mirror the paper's Figs. 5-7 and are "
        "cross-checkable against the ml offline pipeline.\n\n",
        cells.size());
    for (const obs::CellEvents &cell : cells)
        renderCell(out, cell, opts);
    return out;
}

std::string
generateInspect(const std::string &events_json,
                const InspectOptions &opts)
{
    return generateInspect(obs::eventsFromJson(events_json), opts);
}

size_t
checkChromeTrace(const std::string &trace_json)
{
    using stats::json::Value;
    const Value root = stats::json::parse(trace_json);
    if (!root.isObject())
        throw std::runtime_error(
            "chrome trace: document is not an object");
    const Value *events = root.find("traceEvents");
    if (!events || !events->isArray())
        throw std::runtime_error(
            "chrome trace: missing 'traceEvents' array");
    for (size_t i = 0; i < events->array.size(); ++i) {
        const Value &ev = events->array[i];
        const std::string where =
            util::format("chrome trace: event {}", i);
        if (!ev.isObject())
            throw std::runtime_error(where + " is not an object");
        if (!ev.find("name") || !ev.find("name")->isString())
            throw std::runtime_error(where + " lacks a name");
        const Value *ph = ev.find("ph");
        if (!ph || !ph->isString() || ph->string.empty())
            throw std::runtime_error(where + " lacks a phase");
        if (!ev.find("pid") || !ev.find("pid")->isNumber() ||
            !ev.find("tid") || !ev.find("tid")->isNumber())
            throw std::runtime_error(where + " lacks pid/tid");
        if (ph->string == "X") {
            const Value *ts = ev.find("ts");
            const Value *dur = ev.find("dur");
            if (!ts || !ts->isNumber() || !dur ||
                !dur->isNumber())
                throw std::runtime_error(
                    where + " ('X') lacks numeric ts/dur");
        }
    }
    return events->array.size();
}

namespace
{

std::string
fmtKb(uint64_t kb)
{
    if (kb >= 1024 * 1024) {
        return util::format(
            "{:.1f}GB", static_cast<double>(kb) / (1024.0 * 1024.0));
    }
    if (kb >= 1024)
        return util::format("{:.1f}MB",
                            static_cast<double>(kb) / 1024.0);
    return util::format("{}KB", kb);
}

} // namespace

std::string
renderTop(const obs::Heartbeat &hb)
{
    std::string out = util::format(
        "sweep heartbeat  seq {}  elapsed {:.1f}s{}\n",
        hb.sequence, hb.elapsed_s, hb.done ? "  [DONE]" : "");
    out += util::format(
        "  cells: {}/{} done ({} resumed), {} failed, "
        "{} running\n",
        hb.cells_done + hb.cells_resumed, hb.cells_total,
        hb.cells_resumed, hb.cells_failed, hb.cells_running);
    out += util::format(
        "  throughput {:.2f} cells/s  eta {:.1f}s  rss {} "
        "(peak {})\n",
        hb.throughput, hb.eta_s, fmtKb(hb.rss_kb),
        fmtKb(hb.max_rss_kb));

    if (hb.workers.empty()) {
        out += hb.done ? "  workers: (all finished)\n"
                       : "  workers: (idle)\n";
        return out;
    }

    // Straggler cut: a worker whose current cell has been running
    // much longer than its busy peers (or 5s when all are young).
    std::vector<double> ages;
    ages.reserve(hb.workers.size());
    for (const auto &w : hb.workers)
        ages.push_back(w.age_s);
    std::sort(ages.begin(), ages.end());
    const double median = ages[ages.size() / 2];
    const double straggler_cut = std::max(5.0, 3.0 * median);

    out += "  workers:\n";
    for (const auto &w : hb.workers) {
        out += util::format(
            "    w{:<3} {:<28} {:>7.1f}s{}\n",
            w.worker, w.cell, w.age_s,
            w.age_s > straggler_cut ? "  << STRAGGLER" : "");
    }
    return out;
}

} // namespace rlr::tools
