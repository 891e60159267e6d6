/**
 * @file
 * SweepJournal — durable, append-only record of completed sweep
 * cells, enabling crash-safe resume (docs/ROBUSTNESS.md).
 *
 * Layout of a journal directory (one per sweep):
 *
 *   <dir>/header.json            sweep identity: format version,
 *                                master seed, config hash, build
 *   <dir>/cell-<hex16>.json      one record per completed cell,
 *                                named by its spec hash
 *   <dir>/inflight-<hex16>.json  marker for a cell currently
 *                                running (written at attempt
 *                                start, removed by append), so
 *                                `inspect --journal` can show
 *                                stuck cells and their age
 *
 * The header and every record are written with
 * util::atomicWriteFile (tmp + fsync + rename + directory fsync),
 * so a crash at any instant leaves either no record or a complete
 * one — never a torn write. In-flight markers are advisory and
 * written in place without fsync: a crash may tear or lose one,
 * which `inspect --journal` still lists by age. Records additionally end in
 * an "eor" member so a truncated file (e.g. from a corrupting
 * filesystem) fails to parse and is detected on load.
 *
 * On restart, the runner re-opens the journal: the header must
 * match the current sweep's format version, master seed, and
 * config hash (mismatch = hard error naming the field), while a
 * build-id mismatch only warns. Readable records are served from
 * memory; a corrupt or mismatched record warns with the offending
 * path and the cell simply re-runs.
 *
 * Numeric durability: 64-bit seeds are stored as decimal STRINGS
 * (the JSON reader parses numbers via double, which loses
 * integers above 2^53); simulation counters are far below 2^53
 * and stay plain numbers. Doubles are printed with %.10g, which
 * re-prints stably after a strtod round trip, so a resumed
 * sweep's export is byte-identical to an uninterrupted one.
 */

#ifndef RLR_SIM_JOURNAL_HH
#define RLR_SIM_JOURNAL_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/sweep_runner.hh"

namespace rlr::sim
{

/** Journal format version (bump on incompatible layout change). */
constexpr uint32_t kJournalVersion = 1;

/**
 * Journal SCHEMA version: the layout of the record documents
 * themselves (header members, cell members).
 * Headers written before the schema member existed parse as
 * schema 1. Resume across schema versions is a hard error — a
 * silent mismatch would re-run (and re-bill) every cell.
 *
 * History: 1 = original layout; 2 = writer identity in the
 * header.
 */
constexpr uint32_t kJournalSchema = 2;

/** Identity of the sweep a journal belongs to. */
struct JournalHeader
{
    uint32_t version = kJournalVersion;
    /** Record-document schema (kJournalSchema; missing = 1). */
    uint32_t schema = kJournalSchema;
    uint64_t master_seed = 0;
    /** sweepConfigHash() of the SimParams + full spec list. */
    uint64_t config_hash = 0;
    /** Toolchain/build id (git describe); mismatch only warns. */
    std::string build;
    /** Identity of the process that created the journal, e.g.
     *  "rlr_bench pid 1234" — informational, never verified. */
    std::string writer;
    /** Cells in the sweep (redundant with config_hash; makes
     *  "different sweep" errors self-explanatory). */
    uint64_t n_cells = 0;
};

/**
 * Hash of everything that determines a sweep's results: the
 * SimParams knobs that feed every cell plus the ordered spec
 * list. Two sweeps with equal config hashes and equal master
 * seeds produce identical cells.
 */
uint64_t
sweepConfigHash(const SimParams &params,
                const std::vector<SweepRunner::CellSpec> &specs);

/** Durable per-cell record store for one sweep. */
class SweepJournal
{
  public:
    /**
     * Open (or create) the journal at @p dir for the sweep
     * identified by @p expect. A fresh directory gets a header;
     * an existing one is verified and its readable cell records
     * are loaded.
     *
     * @throws std::runtime_error when the directory belongs to a
     *   different sweep (version / master seed / config hash /
     *   cell count mismatch) or the header is unreadable
     */
    SweepJournal(std::string dir, const JournalHeader &expect);

    /** Identity hash of one cell (names its record file). */
    static uint64_t specHash(const SweepRunner::CellSpec &spec,
                             uint64_t seed);

    /**
     * Fetch the journaled outcome of a cell, verifying that the
     * record's workload/policy/seed match @p spec (a mismatched
     * record warns and reports absent). @return true when found.
     */
    bool load(uint64_t spec_hash, const SweepRunner::CellSpec &spec,
              uint64_t seed, SweepCell &out) const;

    /**
     * Durably record a completed cell (atomic write + fsync).
     * Thread-safe for distinct cells — each spec hash names its
     * own file. With @p corrupt the record is deliberately
     * truncated mid-document (fault injection for the corrupt-
     * record recovery path).
     */
    void append(uint64_t spec_hash, const SweepCell &cell,
                bool corrupt = false) const;

    /**
     * Drop an in-flight marker for a cell attempt that is about
     * to run. The marker (named by spec hash, age readable from
     * its mtime) is removed when append() records the outcome; a
     * marker that outlives the sweep marks the cell a crash took
     * down mid-run. Written in place without fsync, so a cell's
     * durable cost is its record's two fsyncs alone. Failures
     * only warn — liveness breadcrumbs must never fail a sweep.
     */
    void markInFlight(uint64_t spec_hash,
                      const SweepRunner::CellSpec &spec,
                      uint32_t attempt) const;

    /**
     * Remove in-flight markers whose mtime is older than
     * @p ttl_s — breadcrumbs of attempts a crashed process never
     * finished. Markers for cells that already have a record are
     * reaped regardless of age. @return markers removed (counted
     * in `sweep.reaped_markers`).
     */
    size_t reapStaleMarkers(double ttl_s) const;

    /** Records loaded from disk at open. */
    size_t loadedRecords() const { return records_.size(); }

    const std::string &dir() const { return dir_; }

    /** One cell record as JSON (layout documented on load). */
    static std::string cellToJson(const SweepCell &cell);

    /**
     * Parse a cell record.
     * @throws std::runtime_error on malformed input
     */
    static SweepCell cellFromJson(const std::string &text);

    static std::string headerToJson(const JournalHeader &header);
    static JournalHeader headerFromJson(const std::string &text);

    /**
     * Human-readable summary of a journal directory (header
     * identity plus per-record status), for `inspect --journal`.
     * Unreadable records are listed, not fatal.
     */
    static std::string summarize(const std::string &dir);

  private:
    std::string dir_;
    JournalHeader header_;
    /** spec hash -> journaled cell, loaded at open. */
    std::map<uint64_t, SweepCell> records_;
};

} // namespace rlr::sim

#endif // RLR_SIM_JOURNAL_HH
