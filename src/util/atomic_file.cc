#include "util/atomic_file.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "util/format.hh"
#include "util/logging.hh"

namespace rlr::util
{

namespace
{

[[noreturn]] void
ioFail(const std::string &what, const std::string &path)
{
    throw std::runtime_error(format("{} '{}': {}", what, path,
                                    std::strerror(errno)));
}

/** Directory part of @p path ("." when there is none). */
std::string
parentDir(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

/** fsync the directory so the rename itself is durable. */
void
syncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return; // best effort: some filesystems refuse dir opens
    ::fsync(fd);
    ::close(fd);
}

} // namespace

void
atomicWriteFile(const std::string &path, std::string_view data)
{
    // The temp name must be unique per *writer*, not just per
    // process: two threads racing on the same destination (e.g.
    // journal records for duplicate sweep cells) would otherwise
    // share one temp file, and whichever renames second finds it
    // already gone. With distinct temps both renames succeed and
    // the last writer wins — atomically, which is the contract.
    static std::atomic<uint64_t> writer_seq{0};
    const std::string tmp = format(
        "{}.tmp.{}.{}", path, static_cast<long>(::getpid()),
        writer_seq.fetch_add(1, std::memory_order_relaxed));
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        ioFail("cannot create temp file", tmp);

    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            ::unlink(tmp.c_str());
            ioFail("short write to", tmp);
        }
        off += static_cast<size_t>(n);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        ioFail("cannot fsync", tmp);
    }
    if (::close(fd) != 0) {
        ::unlink(tmp.c_str());
        ioFail("cannot close", tmp);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        ioFail("cannot rename into place", path);
    }
    syncDir(parentDir(path));
}

void
atomicWriteFileOrFatal(const std::string &path,
                       std::string_view data)
{
    try {
        atomicWriteFile(path, data);
    } catch (const std::exception &e) {
        fatal("{}", e.what());
    }
}

} // namespace rlr::util
