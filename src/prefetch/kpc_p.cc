#include "prefetch/kpc_p.hh"

#include "util/bits.hh"

namespace rlr::prefetch
{

namespace
{

/** 4KB pages group the delta streams. */
constexpr unsigned kPageBits = 12;

} // namespace

KpcPPrefetcher::KpcPPrefetcher(KpcPConfig config) : config_(config) {}

void
KpcPPrefetcher::bind(const cache::CacheGeometry &geom)
{
    (void)geom;
    Entry blank;
    blank.confidence = util::SatCounter(config_.confidence_bits);
    table_.assign(config_.table_entries, blank);
}

void
KpcPPrefetcher::observe(uint64_t pc, uint64_t address, bool hit,
                        std::vector<cache::PrefetchRequest> &out)
{
    (void)pc;
    (void)hit;
    if (table_.empty())
        return;

    const uint64_t line = address >> cache::kLineBits;
    const uint64_t page = address >> kPageBits;
    const size_t idx =
        util::foldXor(page, util::ceilLog2(table_.size())) %
        table_.size();
    Entry &e = table_[idx];

    if (!e.valid || e.page_tag != page) {
        e.valid = true;
        e.page_tag = page;
        e.last_line = line;
        e.last_delta = 0;
        e.confidence.reset();
        return;
    }

    const int64_t delta = static_cast<int64_t>(line) -
                          static_cast<int64_t>(e.last_line);
    e.last_line = line;
    if (delta == 0)
        return;

    if (delta == e.last_delta) {
        ++e.confidence;
    } else {
        --e.confidence;
        e.cursor_valid = false;
    }
    e.last_delta = delta;

    const double conf = e.confidence.fraction();
    // Low-confidence prefetches are suppressed entirely; in full
    // KPC-P they would skip L2 but still fill LLC. With a shared
    // recursive fill path we approximate by thresholding here.
    if (!e.confidence.saturated())
        return;

    const auto degree = static_cast<uint32_t>(
        1 + conf * (config_.max_degree - 1));
    for (uint32_t d = 1; d <= degree; ++d) {
        const int64_t target =
            static_cast<int64_t>(line) + delta * static_cast<int64_t>(d);
        if (target <= 0)
            break;
        // Keep prefetches within the page, as KPC-P does.
        const uint64_t target_addr = static_cast<uint64_t>(target)
                                     << cache::kLineBits;
        if ((target_addr >> kPageBits) != page)
            break;
        if (e.cursor_valid &&
            ((delta > 0 && target <= e.pf_cursor) ||
             (delta < 0 && target >= e.pf_cursor)))
            continue;
        e.pf_cursor = target;
        e.cursor_valid = true;
        cache::PrefetchRequest req;
        req.address = target_addr;
        req.confidence = conf;
        ++proposals_;
        out.push_back(req);
    }
}

} // namespace rlr::prefetch
