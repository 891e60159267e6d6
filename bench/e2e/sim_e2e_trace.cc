/**
 * @file
 * sim_e2e_trace: where a sim_e2e workload's host time goes, layer by
 * layer (bench/e2e/README.md).
 *
 *   sim_e2e_trace --workload <name> [--seed S] [--seconds T]
 *                 [--json OUT]
 *
 * Each repetition runs the workload's cells through sim::SweepRunner
 * with a cell body that runs each cell twice, back to back: untraced
 * (runWorkloads), and through a mirror of sim::System whose layer
 * boundaries are timing interposers on the layers' public virtual
 * interfaces: trace::InstructionSource in front of every generator
 * and cache::MemoryLevel in front of L1I, L1D, L2, the LLC and DRAM.
 * A span's self time is its duration minus the time its child spans
 * cover; the measured cost of an empty span is then subtracted from
 * the layers that absorb it. The mirror must reproduce runWorkloads'
 * stats snapshot for every key it exports, or the cell fails.
 *
 * Exit status: 0 when every cell passed, 1 when a cell failed or
 * the mirror disagreed, 2 on a usage or I/O error.
 */

#include <array>
#include <exception>
#include <map>
#include <memory>
#include <unordered_map>

#include "cache/cache.hh"
#include "core/policy_factory.hh"
#include "cpu/core.hh"
#include "e2e.hh"
#include "mem/dram.hh"
#include "policies/lru.hh"
#include "prefetch/ip_stride.hh"
#include "prefetch/next_line.hh"
#include "sim/system.hh"
#include "stats/registry.hh"
#include "trace/workloads.hh"

namespace
{

using namespace rlr;

/** Span owners. kCell is the root: a whole cell. */
enum Layer : size_t
{
    kCell,
    kSetup,
    kSnapshot,
    kCpu,
    kTrace,
    kL1i,
    kL1d,
    kL2,
    kLlc,
    kMem,
    kProbe, ///< calibration only
    kNumLayers
};

/**
 * Layers crossed a few times per cell time every span. The others
 * are crossed once or more per instruction; timing each crossing
 * doubled cell time, and the cost of the clock reads in place (they
 * wait for outstanding loads) strayed up to 20% from any empty-span
 * calibration. So they time about one span in kSamplePeriod, at
 * random spacing, and scale up.
 */
constexpr bool
alwaysTimed(size_t layer)
{
    return layer <= kCpu;
}

constexpr uint64_t kSamplePeriod = 64;

/**
 * One simulated access takes well under a microsecond of host time.
 * A sampled span longer than this was interrupted by the host, and
 * scaled up by the sampling period it would swamp its layer, so it
 * is dropped.
 */
constexpr uint64_t kMaxSampleNs = 100'000;

/** Measured cost of one span around an empty call. */
struct Calibration
{
    /** Added by a timed span, wherever it lands... */
    double timed_ns = 0.0;
    /** ...and the part inside the span's own duration. */
    double inside_ns = 0.0;
    /** Added by a span that skips the clock. */
    double untimed_ns = 0.0;
};

/** Nested spans of one cell; used by one thread at a time. */
class Tracer
{
  public:
    /**
     * @param period mean spacing of timed spans on sampled layers:
     *               1 times every span, 0 none
     */
    explicit Tracer(uint64_t period = kSamplePeriod)
        : period_(period), countdown_(interval())
    {
    }

    template <class F>
    auto
    span(Layer layer, F &&body)
    {
        Edge &e = edges_[current_][layer];
        ++e.calls;
        const size_t parent = current_;
        current_ = layer;
        if (!alwaysTimed(layer)) {
            if (--countdown_ != 0) {
                auto result = body();
                current_ = parent;
                return result;
            }
            countdown_ = interval();
        }
        const auto t0 = e2e::Clock::now();
        auto result = body();
        const auto d = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                e2e::Clock::now() - t0)
                .count());
        if (alwaysTimed(layer) || d <= kMaxSampleNs) {
            e.timed_ns += d;
            ++e.timed;
        }
        current_ = parent;
        return result;
    }

    uint64_t
    calls(size_t layer) const
    {
        uint64_t n = 0;
        for (const auto &from : edges_)
            n += from[layer].calls;
        return n;
    }

    /** Estimated inclusive time of @p layer's spans. */
    double
    inclNs(size_t layer) const
    {
        double ns = 0.0;
        for (const auto &from : edges_)
            ns += estimate(from[layer]);
        return ns;
    }

    /**
     * Self time of @p layer: its inclusive time minus its child
     * spans', less the span costs in both. A timed span carries
     * cal.inside_ns in its own duration (and so in every estimated
     * span of its layer); the rest of each child span's cost lands in
     * this layer.
     */
    double
    selfNs(size_t layer, const Calibration &cal) const
    {
        double ns = inclNs(layer) -
                    static_cast<double>(calls(layer)) * cal.inside_ns;
        for (const Edge &e : edges_[layer]) {
            const auto timed = static_cast<double>(e.timed);
            const auto untimed = static_cast<double>(e.calls - e.timed);
            ns -= estimate(e) + timed * cal.timed_ns +
                  untimed * cal.untimed_ns -
                  static_cast<double>(e.calls) * cal.inside_ns;
        }
        return ns;
    }

  private:
    struct Edge
    {
        uint64_t calls = 0;
        uint64_t timed = 0;
        uint64_t timed_ns = 0;
    };

    /** Inclusive time of all of @p e's calls, from the timed ones. */
    static double
    estimate(const Edge &e)
    {
        return e.timed == 0 ? 0.0
                            : static_cast<double>(e.timed_ns) *
                                  static_cast<double>(e.calls) /
                                  static_cast<double>(e.timed);
    }

    /**
     * Sampled spans until the next timed one: uniform on
     * [1, 2 * period - 1]. Random spacing keeps the choice from
     * locking onto a periodic call pattern.
     */
    uint64_t
    interval()
    {
        if (period_ <= 1)
            return period_ == 1 ? 1 : ~0ULL;
        rng_ ^= rng_ << 13; // xorshift64
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        return 1 + rng_ % (2 * period_ - 1);
    }

    /** [parent][child]; parent kNumLayers is the caller outside any
     *  span. */
    std::array<std::array<Edge, kNumLayers>, kNumLayers + 1> edges_{};
    size_t current_ = kNumLayers;
    uint64_t period_;
    uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
    uint64_t countdown_;
};

class TimedLevel final : public cache::MemoryLevel
{
  public:
    TimedLevel(cache::MemoryLevel &inner, Tracer &tracer, Layer layer)
        : inner_(inner), tracer_(tracer), layer_(layer)
    {
    }

    uint64_t
    access(const cache::MemRequest &req, uint64_t now) override
    {
        return tracer_.span(layer_,
                            [&] { return inner_.access(req, now); });
    }

    const std::string &name() const override { return inner_.name(); }

  private:
    cache::MemoryLevel &inner_;
    Tracer &tracer_;
    Layer layer_;
};

class TimedSource final : public trace::InstructionSource
{
  public:
    TimedSource(std::unique_ptr<trace::InstructionSource> inner,
                Tracer &tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    bool
    next(trace::Instruction &out) override
    {
        return tracer_.span(kTrace, [&] { return inner_->next(out); });
    }

    void reset() override { inner_->reset(); }
    const std::string &name() const override { return inner_->name(); }

  private:
    std::unique_ptr<trace::InstructionSource> inner_;
    Tracer &tracer_;
};

/**
 * sim::System rebuilt from the same constructors, with a timing
 * interposer in front of every level. It repeats system.cc's wiring
 * and runWorkloads' loop, so a change there must be repeated here;
 * the snapshot oracle makes a missed one fail loudly.
 */
class MirrorSystem
{
  public:
    MirrorSystem(const sim::SimParams &p, uint32_t n, Tracer &tr)
    {
        if (p.l2_prefetcher != sim::L2Prefetcher::IpStride ||
            p.capture_llc_trace || p.llc_events_capacity > 0 ||
            p.llc_epoch_length > 0 || p.record_resources) {
            throw std::runtime_error(
                "mirror: SimParams outside the default configuration");
        }
        sim::SystemConfig cfg; // the configuration runWorkloads uses
        dram_ = std::make_unique<mem::Dram>(cfg.dram);
        dram_t_ = std::make_unique<TimedLevel>(*dram_, tr, kMem);

        cache::CacheGeometry llc_geom;
        llc_geom.name = "LLC";
        llc_geom.size_bytes = cfg.llc_size_per_core * n;
        llc_geom.ways = cfg.llc_ways;
        llc_geom.latency = cfg.llc_latency;
        llc_geom.mshrs = 64 * n;
        llc_ = std::make_unique<cache::Cache>(
            llc_geom, core::makePolicy(p.llc_policy, p.seed),
            dram_t_.get());
        llc_->setProfiled(true);
        llc_t_ = std::make_unique<TimedLevel>(*llc_, tr, kLlc);

        for (uint32_t i = 0; i < n; ++i) {
            const std::string cpu = "cpu" + std::to_string(i);
            Core c;
            c.l2 = makeCache(cpu + ".L2", cfg.l2_size, cfg.l2_ways,
                             cfg.l2_latency, 32, llc_t_.get());
            c.l2->setPrefetcher(
                std::make_unique<prefetch::IpStridePrefetcher>());
            c.l2_t = std::make_unique<TimedLevel>(*c.l2, tr, kL2);
            c.l1i = makeCache(cpu + ".L1I", cfg.l1i_size, cfg.l1i_ways,
                              cfg.l1i_latency, 8, c.l2_t.get());
            c.l1i_t = std::make_unique<TimedLevel>(*c.l1i, tr, kL1i);
            c.l1d = makeCache(cpu + ".L1D", cfg.l1d_size, cfg.l1d_ways,
                              cfg.l1d_latency, 16, c.l2_t.get());
            c.l1d->setWritesOnRfo(true);
            if (cfg.l1d_prefetcher) {
                c.l1d->setPrefetcher(
                    std::make_unique<prefetch::NextLinePrefetcher>());
            }
            c.l1d_t = std::make_unique<TimedLevel>(*c.l1d, tr, kL1d);
            c.core = std::make_unique<cpu::O3Core>(
                cfg.core, static_cast<uint8_t>(i), c.l1i_t.get(),
                c.l1d_t.get());
            c.core->setCancelToken(p.cancel);
            cores_.push_back(std::move(c));
        }
    }

    cpu::O3Core &core(uint32_t i) { return *cores_[i].core; }
    cache::Cache &llc() { return *llc_; }

    void
    resetStats()
    {
        dram_->resetStats();
        llc_->resetStats();
        for (auto &c : cores_) {
            c.l2->resetStats();
            c.l1i->resetStats();
            c.l1d->resetStats();
            c.core->beginMeasurement();
        }
    }

    void
    describeStats(stats::Registry &reg)
    {
        dram_->describeStats(reg, "dram");
        llc_->describeStats(reg, "llc");
        for (size_t i = 0; i < cores_.size(); ++i) {
            const std::string core = "core" + std::to_string(i);
            cores_[i].core->describeStats(reg, core);
            cores_[i].l1i->describeStats(reg, core + ".l1i");
            cores_[i].l1d->describeStats(reg, core + ".l1d");
            cores_[i].l2->describeStats(reg, core + ".l2");
        }
        reg.formula(
            "llc.demand_mpki",
            [this](const stats::Registry &) {
                return stats::mpki(llc_->demandMisses(),
                                   measuredInstructions());
            },
            "");
        reg.formula(
            "total_instructions",
            [this](const stats::Registry &) {
                return static_cast<double>(measuredInstructions());
            },
            "");
    }

  private:
    /** Declared in construction order, destroyed in reverse. */
    struct Core
    {
        std::unique_ptr<cache::Cache> l2;
        std::unique_ptr<TimedLevel> l2_t;
        std::unique_ptr<cache::Cache> l1i;
        std::unique_ptr<TimedLevel> l1i_t;
        std::unique_ptr<cache::Cache> l1d;
        std::unique_ptr<TimedLevel> l1d_t;
        std::unique_ptr<cpu::O3Core> core;
    };

    static std::unique_ptr<cache::Cache>
    makeCache(const std::string &name, uint64_t size, uint32_t ways,
              uint32_t latency, uint32_t mshrs, cache::MemoryLevel *next)
    {
        cache::CacheGeometry geom;
        geom.name = name;
        geom.size_bytes = size;
        geom.ways = ways;
        geom.latency = latency;
        geom.mshrs = mshrs;
        return std::make_unique<cache::Cache>(
            geom, std::make_unique<policies::LruPolicy>(), next);
    }

    uint64_t
    measuredInstructions() const
    {
        uint64_t total = 0;
        for (const auto &c : cores_)
            total += c.core->measuredInstructions();
        return total;
    }

    std::unique_ptr<mem::Dram> dram_;
    std::unique_ptr<TimedLevel> dram_t_;
    std::unique_ptr<cache::Cache> llc_;
    std::unique_ptr<TimedLevel> llc_t_;
    std::vector<Core> cores_;
};

/** runWorkloads() on the mirror, inside a kCell span. */
sim::RunResult
runMirror(const std::vector<std::string> &workloads,
          const sim::SimParams &p, Tracer &tr)
{
    return tr.span(kCell, [&] {
        const auto n = static_cast<uint32_t>(workloads.size());
        std::unique_ptr<MirrorSystem> system;
        std::vector<std::unique_ptr<TimedSource>> gens;
        tr.span(kSetup, [&] {
            system = std::make_unique<MirrorSystem>(p, n, tr);
            for (uint32_t i = 0; i < n; ++i) {
                gens.push_back(std::make_unique<TimedSource>(
                    trace::makeGenerator(workloads[i],
                                         p.seed + 0x9e37 * (i + 1)),
                    tr));
            }
            return 0;
        });

        auto run_core = [&](uint32_t i, uint64_t count) {
            tr.span(kCpu, [&] {
                system->core(i).run(*gens[i], count);
                return 0;
            });
        };
        const uint32_t quantum = std::max(1u, p.interleave_quantum);
        auto advance_all = [&](uint64_t target, auto instr_count) {
            if (n == 1) {
                const uint64_t done = instr_count(0);
                if (done < target)
                    run_core(0, target - done);
                return;
            }
            for (;;) {
                uint32_t pick = n;
                uint64_t best_cycle = ~0ULL;
                for (uint32_t i = 0; i < n; ++i) {
                    if (instr_count(i) >= target)
                        continue;
                    if (system->core(i).cycles() < best_cycle) {
                        best_cycle = system->core(i).cycles();
                        pick = i;
                    }
                }
                if (pick == n)
                    break;
                run_core(pick, std::min<uint64_t>(
                                   quantum, target - instr_count(pick)));
            }
        };
        advance_all(p.warmup_instructions, [&](uint32_t i) {
            return system->core(i).instructions();
        });
        system->resetStats();
        advance_all(p.sim_instructions, [&](uint32_t i) {
            return system->core(i).measuredInstructions();
        });

        return tr.span(kSnapshot, [&] {
            sim::RunResult result;
            for (uint32_t i = 0; i < n; ++i) {
                sim::CoreResult cr;
                cr.workload = workloads[i];
                cr.ipc = system->core(i).ipc();
                cr.instructions = system->core(i).measuredInstructions();
                cr.cycles = system->core(i).measuredCycles();
                result.total_instructions += cr.instructions;
                result.cores.push_back(cr);
            }
            result.llc_demand_accesses = system->llc().demandAccesses();
            result.llc_demand_hits = system->llc().demandHits();
            result.llc_demand_misses = system->llc().demandMisses();
            stats::Registry registry;
            system->describeStats(registry);
            result.stats = registry.snapshot();
            return result;
        });
    });
}

/**
 * Where the mirror's result differs from runWorkloads': every key
 * the mirror exports must exist in @p real with an equal value.
 * @return "" when they agree
 */
std::string
oracleError(const sim::RunResult &mirror, const sim::RunResult &real)
{
    auto index = [](const auto &entries) {
        std::unordered_map<std::string, size_t> at;
        for (size_t i = 0; i < entries.size(); ++i)
            at.emplace(entries[i].first, i);
        return at;
    };
    auto compare = [&](const auto &mine, const auto &theirs,
                       const char *kind) -> std::string {
        const auto at = index(theirs);
        for (const auto &[key, value] : mine) {
            const auto it = at.find(key);
            if (it == at.end())
                return std::string(kind) + " " + key +
                       " missing from System's snapshot";
            if (!(theirs[it->second].second == value))
                return std::string(kind) + " " + key + " differs";
        }
        return "";
    };
    std::string err =
        compare(mirror.stats.counters, real.stats.counters, "counter");
    if (err.empty())
        err = compare(mirror.stats.formulas, real.stats.formulas,
                      "formula");
    if (err.empty())
        err = compare(mirror.stats.histograms, real.stats.histograms,
                      "histogram");
    if (err.empty() && mirror.stats.counters.empty())
        err = "mirror exported no counters";
    if (err.empty() && mirror.total_instructions != real.total_instructions)
        err = "total_instructions differs";
    for (size_t i = 0; err.empty() && i < mirror.cores.size(); ++i) {
        if (i >= real.cores.size() ||
            mirror.cores[i].ipc != real.cores[i].ipc ||
            mirror.cores[i].cycles != real.cores[i].cycles)
            err = "core " + std::to_string(i) + " result differs";
    }
    return err.empty() ? "" : "mirror oracle: " + err;
}

class NullLevel final : public cache::MemoryLevel
{
  public:
    uint64_t
    access(const cache::MemRequest &, uint64_t now) override
    {
        return now + 1;
    }
    const std::string &name() const override { return name_; }

  private:
    std::string name_ = "null";
};

/**
 * Time empty calls through a bare level and through interposers
 * that always and never read the clock; the differences are what
 * one span adds. Medians of several trials.
 */
Calibration
calibrate()
{
    constexpr int kCalls = 1 << 18;
    constexpr int kTrials = 15;
    NullLevel null;
    Tracer always(1);
    Tracer never(0);
    TimedLevel timed(null, always, kProbe);
    TimedLevel untimed(null, never, kProbe);
    // Volatile slots keep the compiler from devirtualizing the calls,
    // which it cannot do in the simulator either.
    cache::MemoryLevel *volatile bare_slot = &null;
    cache::MemoryLevel *volatile timed_slot = &timed;
    cache::MemoryLevel *volatile untimed_slot = &untimed;
    auto per_call_ns = [](cache::MemoryLevel *level) {
        const cache::MemRequest req;
        uint64_t now = 0;
        const auto t0 = e2e::Clock::now();
        for (int k = 0; k < kCalls; ++k)
            now = level->access(req, now);
        const double ns = e2e::secondsSince(t0) * 1e9 / kCalls;
        return now == kCalls ? ns : -1.0;
    };
    std::vector<double> bare, with_clock, without_clock, inside;
    for (int t = 0; t < kTrials; ++t) {
        bare.push_back(per_call_ns(bare_slot));
        const double before = always.inclNs(kProbe);
        with_clock.push_back(per_call_ns(timed_slot));
        inside.push_back((always.inclNs(kProbe) - before) / kCalls);
        without_clock.push_back(per_call_ns(untimed_slot));
    }
    const double b = e2e::quantile(bare, 0.5);
    Calibration c;
    c.timed_ns = std::max(0.0, e2e::quantile(with_clock, 0.5) - b);
    c.inside_ns =
        std::clamp(e2e::quantile(inside, 0.5) - b, 0.0, c.timed_ns);
    c.untimed_ns = std::max(0.0, e2e::quantile(without_clock, 0.5) - b);
    return c;
}

/**
 * Measured-window counter @p key of cache @p level ("l1i", "l1d",
 * "l2" summed over cores, or "llc"), or of the core ("" level).
 */
double
counter(const sim::RunResult &r, const std::string &level,
        const std::string &key)
{
    if (level == "llc")
        return static_cast<double>(r.stats.counter("llc." + key));
    const std::string suffix = level.empty() ? key : level + "." + key;
    double total = 0.0;
    for (size_t i = 0; i < r.cores.size(); ++i) {
        total += static_cast<double>(
            r.stats.counter("core" + std::to_string(i) + "." + suffix));
    }
    return total;
}

struct CacheLayer
{
    Layer layer;
    const char *level;
};

constexpr CacheLayer kCaches[] = {
    {kL1i, "l1i"}, {kL1d, "l1d"}, {kL2, "l2"}, {kLlc, "llc"}};

/** One cell as the traced cell body ran it. */
struct PairedCell
{
    Tracer tracer;
    /** Host seconds of runWorkloads and of the mirror. */
    double plain_s = 0.0;
    double traced_s = 0.0;
};

/** Per-layer metrics of one repetition (one sample each). */
void
addRepMetrics(e2e::Report &report, const e2e::Workload &w,
              const e2e::Rep &rep, const std::vector<PairedCell> &paired,
              const Calibration &cal)
{
    std::array<double, kNumLayers> self_ns{};
    std::array<double, kNumLayers> calls{};
    std::map<std::string, std::pair<double, double>> llc_by_policy;
    double plain_s = 0.0;
    double traced_s = 0.0;
    double body_s = 0.0;
    double instructions = 0.0;
    /** Measured-window counters summed over cells, by level.key. */
    std::map<std::string, double> sum;
    for (size_t i = 0; i < rep.cells.size(); ++i) {
        const Tracer &tr = paired[i].tracer;
        for (size_t l = 0; l < kProbe; ++l) {
            self_ns[l] += tr.selfNs(l, cal);
            calls[l] += static_cast<double>(tr.calls(l));
        }
        auto &[llc_ns, llc_calls] = llc_by_policy[w.cells[i].policy];
        llc_ns += tr.selfNs(kLlc, cal);
        llc_calls += static_cast<double>(tr.calls(kLlc));
        plain_s += paired[i].plain_s;
        traced_s += paired[i].traced_s;
        body_s += rep.cell_s[i];
        instructions += e2e::cellInstructions(w, w.cells[i]);

        const sim::RunResult &r = rep.cells[i].result;
        for (const auto &[layer, level] : kCaches) {
            for (const char *key : {"demand_hits", "demand_accesses",
                                    "PF_hit", "PF_access",
                                    "mshr_stalls"}) {
                sum[std::string(level) + "." + key] +=
                    counter(r, level, key);
            }
        }
        sum["branches"] += counter(r, "", "branches");
        sum["branch_mispredicts"] += counter(r, "", "branch_mispredicts");
        sum["row_hits"] +=
            static_cast<double>(r.stats.counter("dram.row_hits"));
        sum["row_misses"] +=
            static_cast<double>(r.stats.counter("dram.row_misses"));
    }

    double total_ns = 0.0;
    for (size_t l = 0; l < kProbe; ++l)
        total_ns += self_ns[l];
    auto timing = [&](Layer layer, const std::string &name) {
        report.add(name + ".share_pct", "%",
                   100.0 * e2e::ratio(self_ns[layer], total_ns));
        report.add(name + ".self_ms", "ms", self_ns[layer] / 1e6);
        report.add(name + ".calls", "count", calls[layer]);
        report.add(name + ".ns_per_call", "ns",
                   e2e::ratio(self_ns[layer], calls[layer]));
    };

    timing(kTrace, "trace");

    report.add("cpu.share_pct", "%",
               100.0 * e2e::ratio(self_ns[kCpu], total_ns));
    report.add("cpu.self_ms", "ms", self_ns[kCpu] / 1e6);
    report.add("cpu.instructions", "count", instructions);
    report.add("cpu.ns_per_instr", "ns",
               e2e::ratio(self_ns[kCpu], instructions));
    report.add("cpu.mispredict_rate", "ratio",
               e2e::ratio(sum["branch_mispredicts"], sum["branches"]));

    for (const auto &[layer, level] : kCaches) {
        const std::string name = std::string("cache.") + level;
        const std::string key = std::string(level) + ".";
        timing(layer, name);
        report.add(name + ".demand_hit_rate", "ratio",
                   e2e::ratio(sum[key + "demand_hits"],
                              sum[key + "demand_accesses"]));
        if (layer == kL1i)
            continue; // no prefetcher feeds the L1I
        report.add(name + ".redundant_pf_ratio", "ratio",
                   e2e::ratio(sum[key + "PF_hit"], sum[key + "PF_access"]));
        report.add(name + ".mshr_stalls", "count",
                   sum[key + "mshr_stalls"]);
    }
    for (const char *policy : {"LRU", "RLR"}) {
        const auto &[ns, n] = llc_by_policy[policy];
        report.add(std::string("cache.llc.ns_per_call.") + policy, "ns",
                   e2e::ratio(ns, n));
    }

    timing(kMem, "mem");
    report.add("mem.row_hit_rate", "ratio",
               e2e::ratio(sum["row_hits"],
                          sum["row_hits"] + sum["row_misses"]));

    const double sim_ns =
        self_ns[kCell] + self_ns[kSetup] + self_ns[kSnapshot];
    report.add("sim.share_pct", "%", 100.0 * e2e::ratio(sim_ns, total_ns));
    report.add("sim.setup_ms", "ms", self_ns[kSetup] / 1e6);
    report.add("sim.snapshot_ms", "ms", self_ns[kSnapshot] / 1e6);
    report.add("sim.schedule_ms", "ms", self_ns[kCell] / 1e6);

    // The engine's cost is whatever the sweep's threads spent outside
    // cell bodies, here bodies that run both systems.
    const double threads_wall =
        static_cast<double>(w.threads) * rep.wall_s;
    report.add("sweep.cells", "count",
               static_cast<double>(rep.cells.size()));
    report.add("sweep.parallel_efficiency", "ratio",
               e2e::ratio(body_s, threads_wall));
    report.add("sweep.engine_ms", "ms", (threads_wall - body_s) * 1e3);

    report.add("tracing.span_ns", "ns", cal.timed_ns);
    report.add("tracing.overhead_pct", "%",
               100.0 * (e2e::ratio(traced_s, plain_s) - 1.0));
    report.add("tracing.coverage", "ratio",
               e2e::ratio(total_ns / 1e9, plain_s));
}

int
run(const e2e::Options &opt)
{
    const e2e::Workload w = e2e::makeWorkload(opt.workload, opt.tiny);
    const auto start = e2e::Clock::now();
    e2e::Report report;
    e2e::CellCheck check;

    std::map<std::pair<std::string, std::string>, size_t> index;
    for (size_t i = 0; i < w.cells.size(); ++i)
        index[{w.cells[i].workload, w.cells[i].policy}] = i;

    // Warm the allocator and the code paths before timing.
    e2e::setupSeconds(w, opt.seed);

    const int reps = e2e::repeatFor(opt, start, [&](int r) {
        const Calibration cal = calibrate();
        // Each cell body runs runWorkloads and the mirror back to
        // back, so both see the same host load, and alternates which
        // goes first so neither always inherits the other's caches.
        // Every index is written by one worker thread only, after its
        // cell has run.
        std::vector<PairedCell> paired(w.cells.size());
        const e2e::Rep rep = e2e::runRep(
            w, opt.seed, e2e::journalDir(opt, "trace", r),
            [&](const e2e::CellSpec &spec, const sim::SimParams &p) {
                const size_t i = index.at({spec.workload, spec.policy});
                PairedCell pc;
                sim::RunResult plain;
                sim::RunResult traced;
                auto run_plain = [&] {
                    const auto t0 = e2e::Clock::now();
                    plain = sim::runWorkloads(spec.cores, p);
                    pc.plain_s = e2e::secondsSince(t0);
                };
                auto run_traced = [&] {
                    const auto t0 = e2e::Clock::now();
                    traced = runMirror(spec.cores, p, pc.tracer);
                    pc.traced_s = e2e::secondsSince(t0);
                };
                if ((i + static_cast<size_t>(r)) % 2 == 0) {
                    run_plain();
                    run_traced();
                } else {
                    run_traced();
                    run_plain();
                }
                const std::string err = oracleError(traced, plain);
                if (!err.empty())
                    throw std::runtime_error(err);
                paired[i] = pc;
                return plain;
            });
        const uint64_t failed_before = check.failed();
        check.check(w, rep);
        if (check.failed() == failed_before)
            addRepMetrics(report, w, rep, paired, cal);
    });

    report.info("repetitions", std::to_string(reps));
    report.info("cells_per_repetition", std::to_string(w.cells.size()));
    return e2e::finish(opt, true, report, check);
}

} // namespace

int
main(int argc, char **argv)
{
    const rlr::e2e::Options opt = rlr::e2e::parseOptions(argc, argv);
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sim_e2e_trace: %s\n", e.what());
        return 2;
    }
}
