/**
 * @file
 * Cell leases — the claim protocol that lets N independent worker
 * processes cooperatively execute one sweep over a shared journal
 * directory (docs/ROBUSTNESS.md, "Distributed sweeps").
 *
 * A lease is a small JSON file `lease-<hex16>.json` next to the
 * journal's cell records, named by the cell's spec hash. Claiming
 * is atomic without any shared server:
 *
 *   fresh claim : write a private temp file, then hard-link it to
 *                 the lease path — link(2) fails with EEXIST when
 *                 the lease is already held, so exactly one
 *                 claimant wins;
 *   steal       : an expired lease (mtime older than the steal
 *                 threshold) is first rename(2)d to a per-stealer
 *                 tomb name — rename succeeds for exactly one
 *                 stealer, the losers see ENOENT — and then
 *                 re-claimed fresh.
 *
 * Every successful claim carries a FENCING TOKEN strictly greater
 * than any token previously issued for that cell: the winner
 * persists its token to `fence-<hex16>` immediately after the
 * link, and claimants compute their candidate token from
 * max(fence file, any stolen lease's token) + 1. A worker that
 * lost its lease (a straggler whose cell was re-issued) detects
 * it via stillHeld() before committing and discards its result —
 * the thief's commit is authoritative.
 *
 * Liveness: the holder renews its lease (atomic rewrite, which
 * refreshes the mtime) every ttl/3 via the sweep monitor thread.
 * An actively renewed lease is therefore never stale; only a
 * SIGKILLed or stalled worker's lease ages past the TTL and gets
 * re-issued to survivors.
 */

#ifndef RLR_SIM_LEASE_HH
#define RLR_SIM_LEASE_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace rlr::sim
{

/** Distributed-execution knobs of one sweep (SweepOptions):
 *  leases layered on the sweep's in-process claim table. */
struct DistOptions
{
    /** Claim cells through journal leases (worker / merge mode). */
    bool enabled = false;
    /** This worker's id (embedded in leases and heartbeats). */
    uint32_t worker_id = 0;
    /** Lease time-to-live: a lease unrenewed for longer than this
     *  is considered abandoned and may be stolen. */
    double lease_ttl_s = 10.0;
};

/** Decoded contents (+age) of one lease file. */
struct LeaseInfo
{
    uint32_t worker = 0;
    int64_t pid = 0;
    uint32_t attempt = 0;
    uint64_t fence = 0;
    double ttl_s = 0.0;
    /** Seconds since the file was last written (mtime). */
    double age_s = 0.0;
};

/** Lease-file claim protocol over one journal directory. */
class Lease
{
  public:
    /**
     * @param dir journal directory the leases live in
     * @param worker_id identity recorded in claimed leases
     * @param ttl_s default staleness threshold (tryClaim may be
     *        given a larger, straggler-aware threshold per call)
     */
    Lease(std::string dir, uint32_t worker_id, double ttl_s);

    /** Outcome of tryClaim(). */
    struct Claim
    {
        bool won = false;
        /** Fencing token of the new lease (valid when won). */
        uint64_t fence = 0;
        /** The claim re-issued an expired lease. */
        bool stole = false;
    };

    /**
     * Try to claim the cell named by @p spec_hash. An existing
     * lease younger than @p steal_after_s loses the claim; an
     * older one is stolen (atomically — concurrent stealers race
     * on a rename and exactly one wins).
     */
    Claim tryClaim(uint64_t spec_hash, uint32_t attempt,
                   double steal_after_s);
    Claim tryClaim(uint64_t spec_hash, uint32_t attempt)
    {
        return tryClaim(spec_hash, attempt, ttl_s_);
    }

    /**
     * Refresh the mtime of a lease this worker holds (rewrites
     * the file in place). Failures only warn — renewal is a
     * liveness breadcrumb, not a correctness gate.
     */
    void renew(uint64_t spec_hash, uint32_t attempt,
               uint64_t fence) const;

    /**
     * @return true when the lease file still names this worker,
     * this process, and @p fence — i.e. the cell was not
     * re-issued to someone else while we ran it. Checked
     * immediately before committing a result.
     */
    bool stillHeld(uint64_t spec_hash, uint64_t fence) const;

    /**
     * Remove the lease after committing, but only when it still
     * carries @p fence (never delete a thief's newer lease).
     */
    void release(uint64_t spec_hash, uint64_t fence) const;

    /** Lease-file path of a cell inside @p dir. */
    static std::string leasePath(const std::string &dir,
                                 uint64_t spec_hash);

    /**
     * Parse a lease file. @return false when the file is absent
     * or unreadable (a torn lease is treated as stale by
     * claimants once old enough).
     */
    static bool read(const std::string &path, LeaseInfo &out);

  private:
    std::string dir_;
    uint32_t worker_;
    double ttl_s_;
    /** Uniquifies temp/tomb names within this process. */
    std::atomic<uint64_t> seq_{0};
};

} // namespace rlr::sim

#endif // RLR_SIM_LEASE_HH
