#include "stats/registry.hh"

#include <stdexcept>

#include "util/format.hh"

namespace rlr::stats
{

uint64_t
HistogramData::total() const
{
    uint64_t n = overflow;
    for (const uint64_t b : buckets)
        n += b;
    return n;
}

HistogramData
HistogramData::from(const util::Histogram &h)
{
    HistogramData d;
    d.bucket_width = h.bucketWidth();
    d.buckets = std::vector<uint64_t>(h.numBuckets());
    for (size_t i = 0; i < h.numBuckets(); ++i)
        d.buckets[i] = h.bucketCount(i);
    d.overflow = h.overflowCount();
    return d;
}

uint64_t
Snapshot::counter(const std::string &path) const
{
    for (const auto &[k, v] : counters)
        if (k == path)
            return v;
    return 0;
}

double
Snapshot::formula(const std::string &path) const
{
    for (const auto &[k, v] : formulas)
        if (k == path)
            return v;
    return 0.0;
}

const HistogramData *
Snapshot::histogram(const std::string &path) const
{
    for (const auto &[k, v] : histograms)
        if (k == path)
            return &v;
    return nullptr;
}

Registry::Entry &
Registry::addEntry(std::string path, Kind kind, std::string description)
{
    if (path.empty())
        throw std::invalid_argument("Registry: empty stat path");
    Entry &e = entries_.emplace_back();
    e.path = std::move(path);
    if (!index_.emplace(e.path, &e).second) {
        const std::string dup = std::move(e.path);
        entries_.pop_back();
        throw std::invalid_argument(util::format(
            "Registry: duplicate stat path '{}'", dup));
    }
    e.description = std::move(description);
    e.kind = kind;
    return e;
}

uint64_t &
Registry::counter(std::string path, std::string description)
{
    return addEntry(std::move(path), Kind::OwnedCounter,
                    std::move(description))
        .owned_counter;
}

void
Registry::bindCounter(std::string path, CounterFn fn,
                      std::string description)
{
    Entry &e = addEntry(std::move(path), Kind::BoundCounter,
                        std::move(description));
    e.counter_fn = std::move(fn);
}

util::Histogram &
Registry::distribution(std::string path, size_t nbuckets,
                       uint64_t bucket_width, std::string description)
{
    Entry &e = addEntry(std::move(path), Kind::OwnedDistribution,
                        std::move(description));
    e.owned_hist =
        std::make_unique<util::Histogram>(nbuckets, bucket_width);
    return *e.owned_hist;
}

void
Registry::bindDistribution(std::string path, const util::Histogram *hist,
                           std::string description)
{
    if (hist == nullptr)
        throw std::invalid_argument("Registry: null histogram");
    Entry &e = addEntry(std::move(path), Kind::BoundDistribution,
                        std::move(description));
    e.bound_hist = hist;
}

void
Registry::formula(std::string path, FormulaFn fn,
                  std::string description)
{
    Entry &e = addEntry(std::move(path), Kind::Formula,
                        std::move(description));
    e.formula_fn = std::move(fn);
}

const Registry::Entry *
Registry::find(const std::string &path) const
{
    const auto it = index_.find(path);
    return it == index_.end() ? nullptr : it->second;
}

bool
Registry::has(const std::string &path) const
{
    return find(path) != nullptr;
}

uint64_t
Registry::counterValue(const std::string &path) const
{
    if (const Entry *e = find(path)) {
        switch (e->kind) {
          case Kind::OwnedCounter:
            return e->owned_counter;
          case Kind::BoundCounter:
            return e->counter_fn();
          default:
            return 0;
        }
    }
    return 0;
}

double
Registry::value(const std::string &path) const
{
    if (const Entry *e = find(path)) {
        if (e->kind == Kind::Formula)
            return e->formula_fn(*this);
    }
    return static_cast<double>(counterValue(path));
}

std::string
Registry::description(const std::string &path) const
{
    const Entry *e = find(path);
    return e ? e->description : "";
}

std::vector<std::string>
Registry::paths() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_)
        out.push_back(e.path);
    return out;
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    snap.counters.reserve(entries_.size());
    for (const Entry &e : entries_) {
        switch (e.kind) {
          case Kind::OwnedCounter:
            snap.counters.emplace_back(e.path, e.owned_counter);
            break;
          case Kind::BoundCounter:
            snap.counters.emplace_back(e.path, e.counter_fn());
            break;
          case Kind::OwnedDistribution:
            snap.histograms.emplace_back(
                e.path, HistogramData::from(*e.owned_hist));
            break;
          case Kind::BoundDistribution:
            snap.histograms.emplace_back(
                e.path, HistogramData::from(*e.bound_hist));
            break;
          case Kind::Formula:
            snap.formulas.emplace_back(e.path, e.formula_fn(*this));
            break;
        }
    }
    return snap;
}

void
bindTouchedCounter(Registry &reg, std::string path,
                   const uint64_t &total, const uint64_t &base)
{
    if (total > 0) {
        reg.bindCounter(std::move(path),
                        [&total, &base] { return total - base; });
    }
}

} // namespace rlr::stats
