/**
 * @file
 * Crash-safe file writes: every artifact the harness exports
 * (sweep JSON, events, Chrome traces, reports, journal records)
 * goes to disk via write-to-temp + fsync + rename, so a killed
 * process never leaves a truncated or half-written file at the
 * destination path — readers see either the old content or the
 * complete new content, never a torn state.
 */

#ifndef RLR_UTIL_ATOMIC_FILE_HH
#define RLR_UTIL_ATOMIC_FILE_HH

#include <string>
#include <string_view>

namespace rlr::util
{

/**
 * Durably replace @p path with @p data: write to a sibling temp
 * file, fsync it, rename over @p path, then fsync the directory.
 * @throws std::runtime_error on any I/O failure (the temp file is
 *         removed best-effort).
 */
void atomicWriteFile(const std::string &path,
                     std::string_view data);

/** atomicWriteFile that fatal()s on failure (CLI write paths). */
void atomicWriteFileOrFatal(const std::string &path,
                            std::string_view data);

} // namespace rlr::util

#endif // RLR_UTIL_ATOMIC_FILE_HH
