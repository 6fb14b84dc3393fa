#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/fault.hpp"
#include "util/serialize_io.hpp"

namespace smart::util {

void atomic_write(const std::string& path,
                  const std::function<void(std::ostream&)>& writer) {
  // Suffix with the pid so concurrent writers of the same destination
  // cannot clobber each other's temp file; last rename wins atomically.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("atomic_write: cannot open temp file " + tmp);
    }
    // The io fault site models a write that dies mid-stream (disk full,
    // quota): it must surface as an error with the destination untouched.
    FaultInjector::global().inject(FaultSite::kIo, fnv1a64(path));
    writer(out);
    out.flush();
    if (!out) {
      throw std::runtime_error("atomic_write: write to " + tmp + " failed");
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("atomic_write: cannot rename " + tmp + " over " +
                             path);
  }
}

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("cannot open " + path + ": " +
                             std::strerror(errno));
  }
  std::string bytes;
  const char* error = nullptr;
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    error = "cannot stat ";
  } else if (!S_ISREG(st.st_mode)) {
    error = "not a regular file: ";
  } else {
    bytes.resize(static_cast<std::size_t>(st.st_size));
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t got = ::read(fd, bytes.data() + done, bytes.size() - done);
      if (got < 0 && errno == EINTR) continue;
      if (got < 0) {
        error = "cannot read ";
        break;
      }
      if (got == 0) break;  // the file shrank: return what is there
      done += static_cast<std::size_t>(got);
    }
    bytes.resize(done);
  }
  ::close(fd);
  if (error != nullptr) throw std::runtime_error(error + path);
  return bytes;
}

}  // namespace smart::util
