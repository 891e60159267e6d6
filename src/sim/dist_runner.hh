/**
 * @file
 * DistRunner — the supervisor side of distributed sweep execution
 * (docs/ROBUSTNESS.md, "Distributed sweeps").
 *
 * `rlr_bench --workers N --journal DIR` re-execs itself N times as
 * worker processes (`--join --worker-id K` against the same
 * journal), which cooperatively execute the sweep through the
 * lease protocol (sim/lease.hh). The supervisor:
 *
 *  - spawns and reaps the workers (util/subprocess.hh), recording
 *    their pids in `<journal>/workers.json` so external tooling
 *    (and the e2e harness) can SIGKILL them mid-sweep;
 *  - aggregates the per-worker heartbeat files
 *    (`<journal>/worker-<K>.heartbeat.json`) into one supervisor
 *    heartbeat for `inspect --top`, concatenating every worker's
 *    live rows;
 *  - after all workers exit (clean, crashed, or killed), the
 *    caller runs the SAME sweep once more in-process as the merge
 *    pass: journal resume collects every committed cell, and any
 *    cell a killed worker left behind is simply executed locally
 *    (stealing its expired lease), so the merged result is
 *    complete no matter how the workers died.
 */

#ifndef RLR_SIM_DIST_RUNNER_HH
#define RLR_SIM_DIST_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/subprocess.hh"

namespace rlr::sim
{

/** Supervisor for N cooperating sweep worker processes. */
class DistRunner
{
  public:
    struct Options
    {
        /** Worker processes to spawn (ids 0..workers-1). */
        uint32_t workers = 0;
        /** Shared journal base directory (workers.json and the
         *  per-worker heartbeat files live here). */
        std::string journal_dir;
        /** Aggregate heartbeat output path ("" = none). */
        std::string heartbeat_path;
        double heartbeat_period_s = 0.5;
    };

    explicit DistRunner(Options opts);

    /**
     * Build worker K's argv from the supervisor's own argv:
     * drops `--workers` (and its value) and `--progress`, appends
     * `--join --worker-id K`.
     */
    static std::vector<std::string>
    workerArgv(const std::vector<std::string> &argv,
               uint32_t worker_id);

    /**
     * Spawn every worker, publish workers.json, aggregate worker
     * heartbeats until all children exit, and reap them.
     * @return one ProcExit per worker (index = worker id).
     */
    std::vector<util::ProcExit>
    run(const std::vector<std::string> &supervisor_argv);

    /**
     * Exit-code policy shared by workers, supervisor, and plain
     * sweeps: 130 after a SIGINT/SIGTERM drain, 1 when any cell
     * exhausted retries (or failed terminally), 0 only when every
     * cell committed ok.
     */
    static int exitCode(bool interrupted, bool any_failed);

    /** Per-worker heartbeat path inside @p journal_dir. */
    static std::string workerHeartbeatPath(
        const std::string &journal_dir, uint32_t worker_id);

  private:
    void aggregateHeartbeats(uint64_t sequence, bool final) const;

    Options opts_;
};

} // namespace rlr::sim

#endif // RLR_SIM_DIST_RUNNER_HH
