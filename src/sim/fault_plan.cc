#include "sim/fault_plan.hh"

#include <cstdlib>

#include "util/format.hh"

namespace rlr::sim
{

namespace
{

/** FNV-1a 64-bit (matches the sweep seed-derivation hash). */
uint64_t
hash64(uint64_t seed, uint64_t x)
{
    uint64_t h = 1469598103934665603ULL ^ seed;
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

FaultKind
parseKind(const std::string &word)
{
    if (word == "throw")
        return FaultKind::Throw;
    if (word == "transient")
        return FaultKind::Transient;
    if (word == "hang")
        return FaultKind::Hang;
    if (word == "abort")
        return FaultKind::AbortProcess;
    if (word == "corrupt-journal")
        return FaultKind::CorruptJournal;
    throw std::runtime_error(util::format(
        "--faults: unknown fault kind '{}' (expected throw, "
        "transient, hang, abort or corrupt-journal)",
        word));
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None:
        return "none";
      case FaultKind::Throw:
        return "throw";
      case FaultKind::Transient:
        return "transient";
      case FaultKind::Hang:
        return "hang";
      case FaultKind::AbortProcess:
        return "abort";
      case FaultKind::CorruptJournal:
        return "corrupt-journal";
    }
    return "?";
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;

        Entry entry;
        // Split `kind[:N]` from the selector at the FIRST '@' or
        // '%' — labels ("429.mcf:RLR") may contain ':' but never
        // '@' or '%'.
        const size_t at = item.find('@');
        const size_t pct = item.find('%');
        std::string head, selector;
        if (at != std::string::npos &&
            (pct == std::string::npos || at < pct)) {
            head = item.substr(0, at);
            selector = item.substr(at + 1);
        } else if (pct != std::string::npos) {
            head = item.substr(0, pct);
            selector = item.substr(pct + 1);
            entry.by_rate = true;
        } else {
            throw std::runtime_error(util::format(
                "--faults: entry '{}' has no selector (use "
                "kind@index, kind@workload:policy, or kind%rate)",
                item));
        }

        // Optional `:N` attempt count on the kind word.
        const size_t colon = head.find(':');
        if (colon != std::string::npos) {
            const std::string count = head.substr(colon + 1);
            char *end = nullptr;
            const long n = std::strtol(count.c_str(), &end, 10);
            if (end == nullptr || *end != '\0' || n <= 0) {
                throw std::runtime_error(util::format(
                    "--faults: bad attempt count '{}' in '{}'",
                    count, item));
            }
            entry.fail_attempts = static_cast<uint32_t>(n);
            head = head.substr(0, colon);
        }
        entry.kind = parseKind(head);

        if (entry.by_rate) {
            char *end = nullptr;
            entry.rate = std::strtod(selector.c_str(), &end);
            if (end == nullptr || *end != '\0' ||
                !(entry.rate >= 0.0 && entry.rate <= 1.0)) {
                throw std::runtime_error(util::format(
                    "--faults: bad rate '{}' in '{}' (want a "
                    "number in [0,1])",
                    selector, item));
            }
        } else if (!selector.empty() &&
                   selector.find_first_not_of("0123456789") ==
                       std::string::npos) {
            entry.by_index = true;
            entry.index = static_cast<size_t>(
                std::strtoull(selector.c_str(), nullptr, 10));
        } else if (!selector.empty()) {
            entry.label = selector;
        } else {
            throw std::runtime_error(util::format(
                "--faults: empty selector in '{}'", item));
        }
        plan.entries_.push_back(std::move(entry));
    }
    return plan;
}

FaultAction
FaultPlan::actionFor(size_t index, const std::string &label,
                     uint64_t seed) const
{
    for (const auto &e : entries_) {
        bool match = false;
        if (e.by_index) {
            match = e.index == index;
        } else if (e.by_rate) {
            // Deterministic in the cell seed and index, never in
            // scheduling order or thread count.
            const uint64_t h = hash64(seed, index);
            const double u =
                static_cast<double>(h >> 11) * 0x1.0p-53;
            match = u < e.rate;
        } else {
            match = e.label == label;
        }
        if (match)
            return FaultAction{e.kind, e.fail_attempts};
    }
    return FaultAction{};
}

} // namespace rlr::sim
