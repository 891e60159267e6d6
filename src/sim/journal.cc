#include "sim/journal.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "stats/export.hh"
#include "util/atomic_file.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace fs = std::filesystem;

namespace rlr::sim
{

namespace
{

using stats::json::escape;
using stats::json::number;

/** FNV-1a 64-bit, incremental. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }
    void str(const std::string &s)
    {
        bytes(s.data(), s.size());
        const unsigned char sep = 0;
        bytes(&sep, 1);
    }
    void u64(uint64_t v) { bytes(&v, sizeof(v)); }
};

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        throw std::runtime_error(
            util::format("cannot open '{}'", path));
    }
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad) {
        throw std::runtime_error(
            util::format("read error on '{}'", path));
    }
    return out;
}

/** Parse a decimal-string u64 member ("seed": "42"). */
uint64_t
u64Member(const stats::json::Value &obj, const std::string &key)
{
    const auto *v = obj.find(key);
    if (v == nullptr || !v->isString()) {
        throw std::runtime_error(
            util::format("missing string member '{}'", key));
    }
    char *end = nullptr;
    const uint64_t out =
        std::strtoull(v->string.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
        throw std::runtime_error(util::format(
            "member '{}' is not a decimal u64: '{}'", key,
            v->string));
    }
    return out;
}

bool
boolMember(const stats::json::Value &obj, const std::string &key,
           bool def)
{
    const auto *v = obj.find(key);
    if (v == nullptr)
        return def;
    return v->boolean;
}

} // namespace

uint64_t
sweepConfigHash(const SimParams &params,
                const std::vector<SweepRunner::CellSpec> &specs)
{
    Fnv f;
    f.u64(params.warmup_instructions);
    f.u64(params.sim_instructions);
    f.u64(static_cast<uint64_t>(params.l2_prefetcher));
    f.u64(params.interleave_quantum);
    f.u64(params.llc_events_capacity);
    f.u64(params.llc_events_sample_sets);
    f.u64(params.llc_epoch_length);
    f.u64(params.capture_llc_trace ? 1 : 0);
    f.u64(specs.size());
    for (const auto &s : specs) {
        f.str(s.workload);
        f.str(s.policy);
        f.u64(s.cores.size());
        for (const auto &c : s.cores)
            f.str(c);
    }
    return f.h;
}

uint64_t
SweepJournal::specHash(const SweepRunner::CellSpec &spec,
                       uint64_t seed)
{
    Fnv f;
    f.str(spec.workload);
    f.str(spec.policy);
    f.u64(spec.cores.size());
    for (const auto &c : spec.cores)
        f.str(c);
    f.u64(seed);
    return f.h;
}

std::string
SweepJournal::headerToJson(const JournalHeader &header)
{
    std::string out = "{\n";
    out += "  \"format\": \"rlr-sweep-journal\",\n";
    out += util::format("  \"version\": {},\n", header.version);
    out += util::format("  \"schema\": {},\n", header.schema);
    out += util::format("  \"master_seed\": \"{}\",\n",
                        header.master_seed);
    out += util::format("  \"config_hash\": \"{}\",\n",
                        hex16(header.config_hash));
    out += util::format("  \"build\": \"{}\",\n",
                        escape(header.build));
    out += util::format("  \"writer\": \"{}\",\n",
                        escape(header.writer));
    out += util::format("  \"n_cells\": {}\n", header.n_cells);
    out += "}\n";
    return out;
}

JournalHeader
SweepJournal::headerFromJson(const std::string &text)
{
    const auto root = stats::json::parse(text);
    if (!root.isObject() ||
        root.stringOr("format", "") != "rlr-sweep-journal") {
        throw std::runtime_error(
            "not a sweep journal header (missing "
            "\"format\": \"rlr-sweep-journal\")");
    }
    JournalHeader h;
    h.version =
        static_cast<uint32_t>(root.numberOr("version", 0));
    // Headers predating the schema member are schema 1.
    h.schema = static_cast<uint32_t>(root.numberOr("schema", 1));
    h.master_seed = u64Member(root, "master_seed");
    const auto *hash = root.find("config_hash");
    if (hash == nullptr || !hash->isString()) {
        throw std::runtime_error(
            "missing string member 'config_hash'");
    }
    h.config_hash =
        std::strtoull(hash->string.c_str(), nullptr, 16);
    h.build = root.stringOr("build", "");
    h.writer = root.stringOr("writer", "");
    h.n_cells =
        static_cast<uint64_t>(root.numberOr("n_cells", 0));
    return h;
}

std::string
SweepJournal::cellToJson(const SweepCell &cell)
{
    std::string out = "{\n";
    out += "  \"record\": \"rlr-sweep-cell\",\n";
    out += util::format("  \"workload\": \"{}\",\n",
                        escape(cell.workload));
    out += util::format("  \"policy\": \"{}\",\n",
                        escape(cell.policy));
    out += util::format("  \"seed\": \"{}\",\n", cell.seed);
    out += util::format("  \"attempts\": {},\n", cell.attempts);
    out += util::format("  \"retry_wait_s\": {},\n",
                        number(cell.retry_wait_s));
    out += util::format("  \"start_seconds\": {},\n",
                        number(cell.start_seconds));
    out += util::format("  \"wall_seconds\": {},\n",
                        number(cell.wall_seconds));
    out += util::format("  \"mips\": {},\n", number(cell.mips));
    out += util::format("  \"timed_out\": {},\n",
                        cell.timed_out ? "true" : "false");
    out += util::format("  \"cpu_user_s\": {},\n",
                        number(cell.cpu_user_s));
    out += util::format("  \"cpu_sys_s\": {},\n",
                        number(cell.cpu_sys_s));
    out += util::format("  \"max_rss_kb\": {},\n",
                        cell.max_rss_kb);
    out += util::format("  \"minor_faults\": {},\n",
                        cell.minor_faults);
    out += cell.ok()
               ? "  \"error\": null,\n"
               : util::format("  \"error\": \"{}\",\n",
                              escape(cell.error));
    if (cell.ok()) {
        const RunResult &r = cell.result;
        out += "  \"result\": {\n";
        out += util::format(
            "    \"total_instructions\": {},\n",
            r.total_instructions);
        out += util::format(
            "    \"llc_demand_accesses\": {},\n",
            r.llc_demand_accesses);
        out += util::format("    \"llc_demand_hits\": {},\n",
                            r.llc_demand_hits);
        out += util::format("    \"llc_demand_misses\": {},\n",
                            r.llc_demand_misses);
        out += "    \"cores\": [";
        for (size_t i = 0; i < r.cores.size(); ++i) {
            const CoreResult &c = r.cores[i];
            if (i)
                out += ", ";
            out += util::format(
                "{{\"workload\": \"{}\", \"ipc\": {}, "
                "\"instructions\": {}, \"cycles\": {}}}",
                escape(c.workload), number(c.ipc),
                c.instructions, c.cycles);
        }
        out += "]";
        if (!r.stats.empty()) {
            std::string snap = stats::toJson(r.stats);
            while (!snap.empty() && snap.back() == '\n')
                snap.pop_back();
            out += ",\n    \"stats\": " + snap;
        }
        out += "\n  },\n";
    }
    // End-of-record marker: a truncated file cannot parse as a
    // complete object that still carries this member.
    out += "  \"eor\": 1\n";
    out += "}\n";
    return out;
}

SweepCell
SweepJournal::cellFromJson(const std::string &text)
{
    const auto root = stats::json::parse(text);
    if (!root.isObject() ||
        root.stringOr("record", "") != "rlr-sweep-cell") {
        throw std::runtime_error(
            "not a sweep cell record (missing "
            "\"record\": \"rlr-sweep-cell\")");
    }
    if (root.find("eor") == nullptr)
        throw std::runtime_error("truncated record (no eor)");

    SweepCell cell;
    cell.workload = root.stringOr("workload", "");
    cell.policy = root.stringOr("policy", "");
    cell.seed = u64Member(root, "seed");
    cell.attempts =
        static_cast<uint32_t>(root.numberOr("attempts", 1));
    cell.retry_wait_s = root.numberOr("retry_wait_s", 0.0);
    cell.start_seconds = root.numberOr("start_seconds", 0.0);
    cell.wall_seconds = root.numberOr("wall_seconds", 0.0);
    cell.mips = root.numberOr("mips", 0.0);
    cell.timed_out = boolMember(root, "timed_out", false);
    cell.cpu_user_s = root.numberOr("cpu_user_s", 0.0);
    cell.cpu_sys_s = root.numberOr("cpu_sys_s", 0.0);
    cell.max_rss_kb =
        static_cast<uint64_t>(root.numberOr("max_rss_kb", 0));
    cell.minor_faults =
        static_cast<uint64_t>(root.numberOr("minor_faults", 0));
    const auto *err = root.find("error");
    if (err != nullptr && err->isString())
        cell.error = err->string;

    const auto *res = root.find("result");
    if (cell.ok()) {
        if (res == nullptr || !res->isObject()) {
            throw std::runtime_error(
                "ok record has no 'result' object");
        }
        RunResult &r = cell.result;
        r.total_instructions = static_cast<uint64_t>(
            res->numberOr("total_instructions", 0));
        r.llc_demand_accesses = static_cast<uint64_t>(
            res->numberOr("llc_demand_accesses", 0));
        r.llc_demand_hits = static_cast<uint64_t>(
            res->numberOr("llc_demand_hits", 0));
        r.llc_demand_misses = static_cast<uint64_t>(
            res->numberOr("llc_demand_misses", 0));
        if (const auto *cores = res->find("cores");
            cores != nullptr && cores->isArray()) {
            for (const auto &cv : cores->array) {
                CoreResult c;
                c.workload = cv.stringOr("workload", "");
                c.ipc = cv.numberOr("ipc", 0.0);
                c.instructions = static_cast<uint64_t>(
                    cv.numberOr("instructions", 0));
                c.cycles = static_cast<uint64_t>(
                    cv.numberOr("cycles", 0));
                r.cores.push_back(std::move(c));
            }
        }
        if (const auto *snap = res->find("stats");
            snap != nullptr && snap->isObject()) {
            r.stats = stats::fromJson(*snap);
        }
    }
    return cell;
}

SweepJournal::SweepJournal(std::string dir,
                           const JournalHeader &expect)
    : dir_(std::move(dir)), header_(expect)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        throw std::runtime_error(
            util::format("cannot create journal dir '{}': {}",
                         dir_, ec.message()));
    }

    const std::string header_path = dir_ + "/header.json";
    if (fs::exists(header_path)) {
        JournalHeader found;
        try {
            found = headerFromJson(readFile(header_path));
        } catch (const std::exception &e) {
            throw std::runtime_error(util::format(
                "unreadable journal header '{}': {}", header_path,
                e.what()));
        }
        if (found.version != expect.version) {
            throw std::runtime_error(util::format(
                "journal '{}' has format version {}, this build "
                "writes version {} — delete the directory to "
                "start over",
                dir_, found.version, expect.version));
        }
        if (found.schema != expect.schema) {
            throw std::runtime_error(util::format(
                "journal '{}' uses record schema {} but this "
                "build writes schema {} — refusing to resume "
                "across schema versions (cells would silently "
                "re-run); finish the sweep with the original "
                "build or delete the directory to start over",
                dir_, found.schema, expect.schema));
        }
        if (found.master_seed != expect.master_seed) {
            throw std::runtime_error(util::format(
                "journal '{}' was recorded with master seed {}, "
                "this sweep uses seed {} — not resumable",
                dir_, found.master_seed, expect.master_seed));
        }
        if (found.n_cells != expect.n_cells) {
            throw std::runtime_error(util::format(
                "journal '{}' covers {} cells, this sweep has {} "
                "— not the same sweep",
                dir_, found.n_cells, expect.n_cells));
        }
        if (found.config_hash != expect.config_hash) {
            throw std::runtime_error(util::format(
                "journal '{}' has config hash {}, this sweep "
                "hashes to {} — parameters or cell grid changed, "
                "not resumable",
                dir_, hex16(found.config_hash),
                hex16(expect.config_hash)));
        }
        if (found.build != expect.build) {
            util::warn("journal '{}' was recorded by build '{}' "
                       "(this is '{}'); resuming anyway",
                       dir_, found.build, expect.build);
        }

        // Load every readable cell record; corrupt ones warn and
        // simply re-run.
        for (const auto &entry : fs::directory_iterator(dir_)) {
            const std::string name = entry.path().filename();
            if (name.rfind("cell-", 0) != 0 ||
                name.size() != 5 + 16 + 5 ||
                name.substr(21) != ".json") {
                continue;
            }
            const uint64_t hash = std::strtoull(
                name.substr(5, 16).c_str(), nullptr, 16);
            try {
                records_[hash] =
                    cellFromJson(readFile(entry.path()));
            } catch (const std::exception &e) {
                util::warn("corrupt journal record '{}': {} — "
                           "the cell will re-run",
                           entry.path().string(), e.what());
            }
        }
    } else {
        util::atomicWriteFile(header_path, headerToJson(expect));
    }
}

bool
SweepJournal::load(uint64_t spec_hash,
                   const SweepRunner::CellSpec &spec,
                   uint64_t seed, SweepCell &out) const
{
    const auto it = records_.find(spec_hash);
    if (it == records_.end())
        return false;
    const SweepCell &rec = it->second;
    if (rec.workload != spec.workload ||
        rec.policy != spec.policy || rec.seed != seed) {
        util::warn(
            "journal record {} in '{}' claims cell {}:{} seed {} "
            "but the sweep expects {}:{} seed {} — re-running",
            hex16(spec_hash), dir_, rec.workload, rec.policy,
            rec.seed, spec.workload, spec.policy, seed);
        return false;
    }
    out = rec;
    return true;
}

void
SweepJournal::append(uint64_t spec_hash, const SweepCell &cell,
                     bool corrupt) const
{
    std::string body = cellToJson(cell);
    if (corrupt)
        body.resize(body.size() / 2);
    util::atomicWriteFile(
        dir_ + "/cell-" + hex16(spec_hash) + ".json", body);
    // The cell has a durable outcome now; its liveness marker is
    // no longer meaningful.
    std::error_code ec;
    fs::remove(dir_ + "/inflight-" + hex16(spec_hash) + ".json",
               ec);
}

void
SweepJournal::markInFlight(uint64_t spec_hash,
                           const SweepRunner::CellSpec &spec,
                           uint32_t attempt) const
{
    std::string body = "{\n";
    body += "  \"record\": \"rlr-sweep-inflight\",\n";
    body += util::format("  \"workload\": \"{}\",\n",
                         escape(spec.workload));
    body += util::format("  \"policy\": \"{}\",\n",
                         escape(spec.policy));
    body += util::format("  \"attempt\": {},\n", attempt);
    body += "  \"eor\": 1\n";
    body += "}\n";
    try {
        util::atomicWriteFile(
            dir_ + "/inflight-" + hex16(spec_hash) + ".json",
            body);
    } catch (const std::exception &e) {
        util::warn("cannot mark cell {}:{} in flight: {}",
                   spec.workload, spec.policy, e.what());
    }
}

size_t
SweepJournal::reapStaleMarkers(double ttl_s) const
{
    size_t reaped = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename();
        if (name.rfind("inflight-", 0) != 0 ||
            name.size() != 9 + 16 + 5 ||
            name.substr(25) != ".json") {
            continue;
        }
        const uint64_t hash = std::strtoull(
            name.substr(9, 16).c_str(), nullptr, 16);
        bool stale = records_.count(hash) > 0;
        if (!stale) {
            std::error_code mec;
            const auto mtime =
                fs::last_write_time(entry.path(), mec);
            if (!mec) {
                const double age =
                    std::chrono::duration<double>(
                        fs::file_time_type::clock::now() - mtime)
                        .count();
                stale = age > ttl_s;
            }
        }
        if (!stale)
            continue;
        std::error_code rec;
        if (fs::remove(entry.path(), rec) && !rec)
            ++reaped;
    }
    return reaped;
}

std::string
SweepJournal::summarize(const std::string &dir)
{
    std::string out;
    const std::string header_path = dir + "/header.json";
    try {
        const JournalHeader h =
            headerFromJson(readFile(header_path));
        out += util::format(
            "journal {}\n  version {}  schema {}  master seed "
            "{}  config {}  build '{}'  cells {}\n",
            dir, h.version, h.schema, h.master_seed,
            hex16(h.config_hash), h.build, h.n_cells);
        if (!h.writer.empty())
            out += util::format("  writer {}\n", h.writer);
    } catch (const std::exception &e) {
        out += util::format("journal {}\n  unreadable header: "
                            "{}\n",
                            dir, e.what());
    }

    std::vector<std::string> names;
    std::vector<std::string> inflight;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename();
        if (name.rfind("cell-", 0) == 0)
            names.push_back(name);
        else if (name.rfind("inflight-", 0) == 0)
            inflight.push_back(name);
    }
    std::sort(names.begin(), names.end());
    std::sort(inflight.begin(), inflight.end());
    size_t ok = 0, failed = 0, bad = 0;
    for (const auto &name : names) {
        try {
            const SweepCell cell =
                cellFromJson(readFile(dir + "/" + name));
            if (cell.ok()) {
                ++ok;
                out += util::format(
                    "  {}  {}:{}  ok  attempts {}\n", name,
                    cell.workload, cell.policy, cell.attempts);
            } else {
                ++failed;
                out += util::format(
                    "  {}  {}:{}  ERROR: {}\n", name,
                    cell.workload, cell.policy, cell.error);
            }
        } catch (const std::exception &e) {
            ++bad;
            out += util::format("  {}  UNREADABLE: {}\n", name,
                                e.what());
        }
    }
    // In-flight markers left by running (or crashed) attempts:
    // age comes from the marker's mtime, so a stuck cell is
    // visible even without a heartbeat file.
    for (const auto &name : inflight) {
        const std::string path = dir + "/" + name;
        double age_s = 0.0;
        const auto mtime = fs::last_write_time(path, ec);
        if (!ec) {
            age_s = std::chrono::duration<double>(
                        fs::file_time_type::clock::now() - mtime)
                        .count();
        }
        std::string cell = "?";
        uint32_t attempt = 0;
        try {
            const auto v = stats::json::parse(readFile(path));
            cell = v.stringOr("workload", "?") + ":" +
                   v.stringOr("policy", "?");
            attempt = static_cast<uint32_t>(
                v.numberOr("attempt", 0));
        } catch (const std::exception &) {
            // Torn marker: still list it, age alone is useful.
        }
        out += util::format(
            "  {}  {}  IN-FLIGHT  attempt {}  age {:.1f}s\n",
            name, cell, attempt, age_s);
    }
    out += util::format(
        "  {} records: {} ok, {} failed, {} unreadable",
        names.size(), ok, failed, bad);
    if (!inflight.empty())
        out += util::format(", {} in flight", inflight.size());
    out += "\n";
    return out;
}

} // namespace rlr::sim
