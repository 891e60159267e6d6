/**
 * @file
 * `inspect`: render a bench --events export into a markdown
 * decision-trace report, and validate --chrome-trace outputs.
 *
 *   ./build/tools/inspect --from events.json [--out INSPECT.md]
 *   ./build/tools/inspect --check-trace sweep_trace.json
 *   ./build/tools/inspect --journal out/journal/sweep-0
 *   ./build/tools/inspect --top out/heartbeat.json
 *   ./build/tools/inspect --profile out/profile.json
 *
 * Any bench binary's --events output works as input; the report
 * covers whatever cells the export contains (eviction-reason
 * breakdowns, Fig-5/6/7-style victim statistics, per-set hot
 * spots). --check-trace verifies a Chrome trace_event JSON file
 * is structurally valid for chrome://tracing / Perfetto.
 * --journal summarizes a sweep journal directory (header
 * identity, per-cell record status and in-flight markers — see
 * docs/ROBUSTNESS.md).
 * --top follows a sweep's --heartbeat file like `top(1)`,
 * redrawing per-worker status until the sweep reports done.
 * --profile renders a --profile JSON export as a call tree
 * (--folded additionally writes flamegraph folded stacks).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "obs/heartbeat.hh"
#include "obs/profiler.hh"
#include "sim/journal.hh"
#include "tools/inspect_gen.hh"
#include "util/args.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"

namespace
{

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        rlr::util::fatal("cannot open input '{}'", path);
    std::string text;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

void
writeFile(const std::string &path, const std::string &text)
{
    rlr::util::atomicWriteFileOrFatal(path, text);
}

} // namespace

int
main(int argc, char **argv)
{
    rlr::util::ArgParser parser(
        "Render a decision-trace inspection report from a bench "
        "--events export");
    parser.addOption("from", "",
                     "Events JSON input path (produced by any "
                     "bench binary's --events flag)");
    parser.addOption("out", "-",
                     "Markdown output path ('-' for stdout)");
    parser.addOption("title", "LLC decision-trace inspection",
                     "Report H1 title");
    parser.addOption("top-sets", "8",
                     "Hottest sets listed per cell");
    parser.addOption("check-trace", "",
                     "Validate a Chrome trace_event JSON file "
                     "(--chrome-trace output) instead of "
                     "rendering a report");
    parser.addOption("journal", "",
                     "Summarize a sweep journal directory "
                     "(--journal output of any bench binary): "
                     "header identity, per-cell records and "
                     "in-flight markers");
    parser.addOption("top", "",
                     "Follow a sweep heartbeat file (--heartbeat "
                     "output of any bench binary) as a live "
                     "status monitor");
    parser.addOption("interval", "0.5",
                     "--top refresh interval in seconds");
    parser.addFlag("once",
                   "With --top: render one frame and exit "
                   "instead of following until done");
    parser.addOption("profile", "",
                     "Render a profile JSON export (--profile "
                     "output of any bench binary) as a call "
                     "tree");
    parser.addOption("folded", "",
                     "With --profile: also write flamegraph "
                     "folded stacks to this path");
    if (!parser.parse(argc, argv))
        return 0;

    const std::string top = parser.get("top");
    if (!top.empty()) {
        const double interval =
            std::max(0.05, parser.getDouble("interval"));
        const bool once = parser.getFlag("once");
        uint64_t last_seq = 0;
        for (;;) {
            rlr::obs::Heartbeat hb;
            try {
                hb = rlr::obs::heartbeatFromJson(readFile(top));
            } catch (const std::exception &e) {
                if (once)
                    rlr::util::fatal("{}: {}", top, e.what());
                // The writer may not have produced the first
                // beat yet, or we raced a replace; retry.
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(interval));
                continue;
            }
            if (hb.sequence != last_seq) {
                last_seq = hb.sequence;
                std::fputs(rlr::tools::renderTop(hb).c_str(),
                           stdout);
                std::fflush(stdout);
            }
            if (once || hb.done)
                return 0;
            std::this_thread::sleep_for(
                std::chrono::duration<double>(interval));
        }
    }

    const std::string profile = parser.get("profile");
    if (!profile.empty()) {
        rlr::obs::ProfileData data;
        try {
            data = rlr::obs::profileFromJson(readFile(profile));
        } catch (const std::exception &e) {
            rlr::util::fatal("{}: {}", profile, e.what());
        }
        std::fputs(rlr::tools::renderProfileTree(data).c_str(),
                   stdout);
        const std::string folded = parser.get("folded");
        if (!folded.empty()) {
            writeFile(folded, rlr::obs::profileFolded(data));
            std::fprintf(stderr, "wrote %s\n", folded.c_str());
        }
        return 0;
    }

    const std::string journal = parser.get("journal");
    if (!journal.empty()) {
        std::fputs(
            rlr::sim::SweepJournal::summarize(journal).c_str(),
            stdout);
        return 0;
    }

    const std::string check = parser.get("check-trace");
    if (!check.empty()) {
        try {
            const size_t n =
                rlr::tools::checkChromeTrace(readFile(check));
            std::fprintf(stderr,
                         "%s: valid trace_event JSON "
                         "(%zu events)\n",
                         check.c_str(), n);
        } catch (const std::exception &e) {
            rlr::util::fatal("{}: {}", check, e.what());
        }
        return 0;
    }

    const std::string from = parser.get("from");
    if (from.empty())
        rlr::util::fatal(
            "--from <events.json> is required (run any bench "
            "binary with --events first)");

    rlr::tools::InspectOptions opts;
    opts.title = parser.get("title");
    opts.source = from;
    opts.top_sets = parser.getUint("top-sets");
    const std::string report =
        rlr::tools::generateInspect(readFile(from), opts);

    const std::string out = parser.get("out");
    if (out == "-") {
        std::fputs(report.c_str(), stdout);
    } else {
        writeFile(out, report);
        std::fprintf(stderr, "wrote %s (%zu bytes)\n",
                     out.c_str(), report.size());
    }
    return 0;
}
