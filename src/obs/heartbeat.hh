/**
 * @file
 * Sweep heartbeat: a small machine-readable JSON file rewritten
 * atomically every period while a sweep runs, so external tools
 * (`inspect --top`, external monitors) can see liveness without
 * attaching to the process (docs/OBSERVABILITY.md).
 *
 * Contents: cells done/running/failed, per-worker current cell and
 * its age, throughput, ETA, and current/peak RSS. Writes go
 * through util::atomicWriteFile (tmp + fsync + rename), so a
 * reader never observes a torn file — it either sees the previous
 * complete heartbeat or the next one.
 */

#ifndef RLR_OBS_HEARTBEAT_HH
#define RLR_OBS_HEARTBEAT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rlr::obs
{

/** One worker's live status inside a heartbeat. */
struct HeartbeatWorker
{
    uint32_t worker = 0;
    /** "<workload>:<policy>" currently running; "" when idle. */
    std::string cell;
    /** Seconds the current cell has been running. */
    double age_s = 0.0;
};

/** Parsed heartbeat-file contents. */
struct Heartbeat
{
    /** Monotonically increasing write sequence number. */
    uint64_t sequence = 0;
    /** Seconds since the sweep started. */
    double elapsed_s = 0.0;
    uint64_t cells_total = 0;
    uint64_t cells_done = 0;
    uint64_t cells_failed = 0;
    uint64_t cells_resumed = 0;
    uint64_t cells_running = 0;
    /** Completed cells per second (0 until the first finishes). */
    double throughput = 0.0;
    /** Estimated seconds to completion (0 when unknown/done). */
    double eta_s = 0.0;
    uint64_t rss_kb = 0;
    uint64_t max_rss_kb = 0;
    /** True once the sweep has finished (final heartbeat). */
    bool done = false;
    std::vector<HeartbeatWorker> workers;
};

/** Serialize as JSON ("format": "rlr-heartbeat", "eor": 1). */
std::string heartbeatToJson(const Heartbeat &hb);

/**
 * Parse heartbeatToJson() output, validating the format tag and
 * the eor (end-of-record) marker against truncation.
 * @throws std::runtime_error on malformed input
 */
Heartbeat heartbeatFromJson(const std::string &text);

/**
 * Background heartbeat publisher for one sweep. Workers report
 * cellStarted()/cellFinished(); a dedicated thread rewrites
 * @p path atomically every @p period_s until finish().
 */
class HeartbeatWriter
{
  public:
    HeartbeatWriter(std::string path, double period_s,
                    uint64_t cells_total, uint64_t cells_resumed);
    /** Joins the writer thread; writes a final done=true beat. */
    ~HeartbeatWriter();

    HeartbeatWriter(const HeartbeatWriter &) = delete;
    HeartbeatWriter &operator=(const HeartbeatWriter &) = delete;

    /** The calling worker thread begins @p cell ("w:p"). */
    void cellStarted(const std::string &cell);
    /** The calling worker thread finished its current cell. */
    void cellFinished(bool ok);

    /** Write the final heartbeat (done=true) and stop the writer
     *  thread. Idempotent; also called by the destructor. */
    void finish();

    /** Build the current heartbeat (also used by the writer). */
    Heartbeat snapshot() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace rlr::obs

#endif // RLR_OBS_HEARTBEAT_HH
