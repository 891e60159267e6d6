#include "sim/dist_runner.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include "obs/heartbeat.hh"
#include "util/atomic_file.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace fs = std::filesystem;

namespace rlr::sim
{

namespace
{

/** How often the supervisor polls its children for exit. */
constexpr std::chrono::milliseconds kChildPollPeriod{200};

bool
readWholeFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool bad = std::ferror(f) != 0;
    std::fclose(f);
    return !bad;
}

} // namespace

DistRunner::DistRunner(Options opts) : opts_(std::move(opts)) {}

std::string
DistRunner::workerHeartbeatPath(const std::string &journal_dir,
                                uint32_t worker_id)
{
    return util::format("{}/worker-{}.heartbeat.json",
                        journal_dir, worker_id);
}

int
DistRunner::exitCode(bool interrupted, bool any_failed)
{
    if (interrupted)
        return 130;
    if (any_failed)
        return 1;
    return 0;
}

std::vector<std::string>
DistRunner::workerArgv(const std::vector<std::string> &argv,
                       uint32_t worker_id)
{
    std::vector<std::string> out;
    out.reserve(argv.size() + 3);
    for (size_t i = 0; i < argv.size(); ++i) {
        const std::string &a = argv[i];
        if (a == "--workers") {
            ++i; // skip the value too
            continue;
        }
        if (a.rfind("--workers=", 0) == 0)
            continue;
        // Workers must not fight over the terminal status line.
        if (a == "--progress")
            continue;
        out.push_back(a);
    }
    out.push_back("--join");
    out.push_back("--worker-id");
    out.push_back(std::to_string(worker_id));
    return out;
}

void
DistRunner::aggregateHeartbeats(uint64_t sequence,
                                bool final) const
{
    if (opts_.heartbeat_path.empty())
        return;
    obs::Heartbeat agg;
    agg.sequence = sequence;
    agg.done = final;
    bool any = false;
    for (uint32_t k = 0; k < opts_.workers; ++k) {
        std::string text;
        if (!readWholeFile(
                workerHeartbeatPath(opts_.journal_dir, k), text)) {
            continue;
        }
        obs::Heartbeat hb;
        try {
            hb = obs::heartbeatFromJson(text);
        } catch (const std::exception &) {
            continue; // mid-write or stale; next poll catches up
        }
        any = true;
        // Every worker counts the SAME sweep: totals agree, and
        // each worker's done count (its own commits + cells it
        // merged from the others) converges to the total — so the
        // aggregate takes the max, never the sum.
        agg.cells_total = std::max(agg.cells_total,
                                   hb.cells_total);
        agg.cells_done = std::max(agg.cells_done, hb.cells_done);
        agg.cells_failed = std::max(agg.cells_failed,
                                    hb.cells_failed);
        agg.cells_resumed = std::max(agg.cells_resumed,
                                     hb.cells_resumed);
        // Liveness, on the other hand, is per worker: sum the
        // in-flight cells and concatenate every worker's rows.
        agg.cells_running += hb.cells_running;
        agg.elapsed_s = std::max(agg.elapsed_s, hb.elapsed_s);
        agg.throughput += hb.throughput;
        agg.eta_s = std::max(agg.eta_s, hb.eta_s);
        agg.rss_kb += hb.rss_kb;
        agg.max_rss_kb += hb.max_rss_kb;
        if (!hb.done)
            agg.done = false;
        for (obs::HeartbeatWorker row : hb.workers) {
            // Re-key thread slots by worker process so rows stay
            // unique in the merged view.
            row.worker = k * 100 + row.worker;
            agg.workers.push_back(std::move(row));
        }
    }
    if (!any && !final)
        return; // nothing to publish yet
    try {
        util::atomicWriteFile(opts_.heartbeat_path,
                              obs::heartbeatToJson(agg));
    } catch (const std::exception &e) {
        util::warn("cannot write supervisor heartbeat '{}': {}",
                   opts_.heartbeat_path, e.what());
    }
}

std::vector<util::ProcExit>
DistRunner::run(const std::vector<std::string> &supervisor_argv)
{
    std::error_code ec;
    fs::create_directories(opts_.journal_dir, ec);
    if (ec) {
        util::fatal("cannot create journal dir '{}': {}",
                    opts_.journal_dir, ec.message());
    }

    std::vector<util::Subprocess> children(opts_.workers);
    for (uint32_t k = 0; k < opts_.workers; ++k) {
        const auto argv = workerArgv(supervisor_argv, k);
        if (!children[k].spawn(argv))
            util::fatal("cannot spawn worker {}", k);
    }

    // Publish the worker pids so external tooling (the e2e
    // harness, operators) can observe or kill them.
    {
        std::string body = "{\n";
        body += "  \"record\": \"rlr-dist-workers\",\n";
        body += util::format("  \"supervisor\": {},\n",
                             static_cast<long>(::getpid()));
        body += "  \"workers\": [";
        for (uint32_t k = 0; k < opts_.workers; ++k) {
            if (k)
                body += ", ";
            body += util::format(
                "{{\"worker\": {}, \"pid\": {}}}", k,
                static_cast<long>(children[k].pid()));
        }
        body += "],\n";
        body += "  \"eor\": 1\n";
        body += "}\n";
        try {
            util::atomicWriteFile(
                opts_.journal_dir + "/workers.json", body);
        } catch (const std::exception &e) {
            util::warn("cannot write workers.json: {}", e.what());
        }
    }

    util::inform("supervising {} sweep workers over journal '{}'",
                 opts_.workers, opts_.journal_dir);

    uint64_t sequence = 0;
    size_t alive = opts_.workers;
    while (alive > 0) {
        alive = 0;
        for (auto &child : children) {
            util::ProcExit status;
            if (!child.poll(status))
                ++alive;
        }
        if (alive == 0)
            break;
        aggregateHeartbeats(++sequence, false);
        std::this_thread::sleep_for(kChildPollPeriod);
    }
    aggregateHeartbeats(++sequence, true);

    std::vector<util::ProcExit> exits;
    exits.reserve(opts_.workers);
    for (uint32_t k = 0; k < opts_.workers; ++k) {
        const util::ProcExit status = children[k].wait();
        exits.push_back(status);
        if (status.signal != 0) {
            util::warn("worker {} (pid {}) was killed by signal "
                       "{} — its cells will be re-issued",
                       k, static_cast<long>(children[k].pid()),
                       status.signal);
        } else if (status.code != 0) {
            util::warn("worker {} (pid {}) exited with status {}",
                       k, static_cast<long>(children[k].pid()),
                       status.code);
        }
    }
    return exits;
}

} // namespace rlr::sim
