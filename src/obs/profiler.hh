/**
 * @file
 * Scoped-span self-profiler: where do the simulator's own cycles
 * go (docs/OBSERVABILITY.md)?
 *
 * Instrumented code brackets a region with
 *
 *   RLR_PROF_SCOPE("sim.llc.access");
 *
 * Each thread accumulates spans into a private call tree (no
 * locks on the hot path) with per-node call counts, inclusive
 * nanoseconds, and a log2-ns latency histogram backing per-call
 * percentiles; a bounded ring buffer additionally keeps the most
 * recent raw spans for timeline export (Chrome trace merge).
 * Profiler::collect() merges every thread's tree into one
 * deterministic, name-sorted ProfileData.
 *
 * Cost model:
 *  - compiled out: defining RLR_PROF_DISABLED turns every macro
 *    into `(void)0` (ctest-enforced < 1% on the cache replay);
 *  - runtime disabled (the default): one relaxed atomic load and
 *    a predicted not-taken branch per scope;
 *  - enabled: two steady_clock reads per *recorded* span. Hot
 *    sites use RLR_PROF_SCOPE_SAMPLED(name, shift) to time only
 *    1-in-2^shift entries; the estimates scale back up by the
 *    accumulated shift along the path. While a sampled scope is
 *    skipped, its children are suppressed too, so the tree stays
 *    coherent (a child is only ever recorded inside a recorded
 *    parent). Enforced < 5% enabled on the tier-1 sweep path.
 *
 * Threading: scope enter/leave is thread-local and lock-free.
 * collect()/reset() take a registry lock and must only run while
 * no instrumented code is executing (quiescent points: between
 * sweeps, after joins).
 */

#ifndef RLR_OBS_PROFILER_HH
#define RLR_OBS_PROFILER_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rlr::stats
{
class Registry;
} // namespace rlr::stats

namespace rlr::obs
{

struct TraceSpan;

namespace profdetail
{
struct ThreadState;
} // namespace profdetail

/** One merged call-tree node (collect() output). */
struct ProfileNode
{
    std::string name;
    /** Spans actually timed (before sampling correction). */
    uint64_t recorded_calls = 0;
    /** Estimated true call count (recorded << path shift). */
    uint64_t calls = 0;
    /** Estimated inclusive nanoseconds. */
    uint64_t total_ns = 0;
    /** Estimated exclusive nanoseconds (total minus children). */
    uint64_t self_ns = 0;
    /**
     * Per-call latency percentiles as power-of-two upper bounds
     * (the histogram buckets log2(ns), so "p99_ns: 4096" reads
     * "99% of calls took under ~4.1us").
     */
    uint64_t p50_ns = 0;
    uint64_t p90_ns = 0;
    uint64_t p99_ns = 0;
    /** Name-sorted children. */
    std::vector<ProfileNode> children;
};

/** One raw ring-buffer span (timeline export). */
struct ProfileSpan
{
    /** Semicolon-joined path from root ("sim.run;sim.llc.access"). */
    std::string path;
    /** Registration index of the recording thread. */
    uint32_t thread = 0;
    /** Start offset from the profile epoch, nanoseconds. */
    uint64_t start_ns = 0;
    uint64_t duration_ns = 0;
};

/** Merged profile of every registered thread. */
struct ProfileData
{
    /** Threads that recorded at least one span. */
    uint64_t threads = 0;
    /** Total spans recorded (post-sampling). */
    uint64_t spans = 0;
    /** Distinct merged tree nodes. */
    uint64_t sites = 0;
    /** Name-sorted merged call trees. */
    std::vector<ProfileNode> roots;
    /** Most recent raw spans, oldest first (bounded per thread). */
    std::vector<ProfileSpan> recent;
};

/** Process-wide profiler registry and switch. */
class Profiler
{
  public:
    static Profiler &instance();

    /** Hot-path gate: is span recording on right now? */
    static bool
    profilingEnabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Turn span recording on/off (scopes in flight complete). */
    void setEnabled(bool on);

    /**
     * Zero every thread's counters, histograms, and ring buffers
     * (tree structure is kept) and re-anchor the span epoch.
     * Quiescent-only: no instrumented code may be running.
     */
    void reset();

    /**
     * Merge every thread's tree into one deterministic profile
     * (threads merge name-sorted, so the result is independent of
     * thread registration order). Quiescent-only.
     */
    ProfileData collect() const;

    /** Spans recorded by the calling thread (obs.prof.* stats). */
    uint64_t threadSpans() const;

  private:
    friend class ProfScope;
    Profiler() = default;

    inline static std::atomic<bool> enabled_{false};
};

/**
 * RAII span. Use the RLR_PROF_SCOPE* macros rather than naming
 * this type directly so instrumentation compiles out under
 * RLR_PROF_DISABLED.
 */
class ProfScope
{
  public:
    explicit ProfScope(const char *name, uint32_t shift = 0)
    {
        if (Profiler::profilingEnabled()) [[unlikely]]
            enter(name, shift);
    }

    /** Gated form: records only when @p gate is also true. */
    ProfScope(bool gate, const char *name, uint32_t shift = 0)
    {
        if (gate && Profiler::profilingEnabled()) [[unlikely]]
            enter(name, shift);
    }

    ~ProfScope()
    {
        if (mode_ != Mode::Off) [[unlikely]]
            leave();
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    enum class Mode : uint8_t
    {
        Off,        //!< profiler disabled / gate false
        Recording,  //!< timing this span
        Suppressed, //!< sampled out (or inside a sampled-out span)
    };

    void enter(const char *name, uint32_t shift);
    void leave();

    profdetail::ThreadState *state_ = nullptr;
    uint64_t start_ns_ = 0;
    Mode mode_ = Mode::Off;
};

// Instrumentation macros. Each expands to a block-scoped RAII
// span; RLR_PROF_DISABLED compiles them all to nothing.
#define RLR_PROF_CONCAT_INNER(a, b) a##b
#define RLR_PROF_CONCAT(a, b) RLR_PROF_CONCAT_INNER(a, b)

#ifndef RLR_PROF_DISABLED
#define RLR_PROF_SCOPE(name_literal)                                \
    const ::rlr::obs::ProfScope RLR_PROF_CONCAT(                    \
        rlr_prof_scope_, __COUNTER__)(name_literal)
#define RLR_PROF_SCOPE_SAMPLED(name_literal, shift)                 \
    const ::rlr::obs::ProfScope RLR_PROF_CONCAT(                    \
        rlr_prof_scope_, __COUNTER__)(name_literal, (shift))
#define RLR_PROF_SCOPE_IF_SAMPLED(gate, name_literal, shift)        \
    const ::rlr::obs::ProfScope RLR_PROF_CONCAT(                    \
        rlr_prof_scope_, __COUNTER__)((gate), name_literal, (shift))
#else
#define RLR_PROF_SCOPE(name_literal) static_cast<void>(0)
#define RLR_PROF_SCOPE_SAMPLED(name_literal, shift)                 \
    static_cast<void>(0)
#define RLR_PROF_SCOPE_IF_SAMPLED(gate, name_literal, shift)        \
    static_cast<void>(0)
#endif

/**
 * Serialize a profile as JSON ("format": "rlr-profile"). With
 * @p stable every nanosecond field is zeroed (call counts stay),
 * so same-seed runs export byte-identical profiles.
 */
std::string profileToJson(const ProfileData &data,
                          bool stable = false);

/**
 * Parse profileToJson() output (tree only; "recent" spans are an
 * in-process extra and not round-tripped).
 * @throws std::runtime_error on malformed input
 */
ProfileData profileFromJson(const std::string &text);

/**
 * Folded-stacks rendering ("a;b;c self_ns" per line), the input
 * format of flamegraph.pl and speedscope.
 */
std::string profileFolded(const ProfileData &data);

/**
 * Convert the profile's recent raw spans into Chrome trace
 * spans (pid 2, one tid per recording thread) for merging into a
 * sweep's --chrome-trace export.
 */
std::vector<TraceSpan> profileTraceSpans(const ProfileData &data);

/**
 * Register the calling thread's profiler counters under
 * @p prefix (obs.prof.enabled, obs.prof.thread_spans).
 */
void describeProfilerStats(stats::Registry &reg,
                           const std::string &prefix);

} // namespace rlr::obs

#endif // RLR_OBS_PROFILER_HH
