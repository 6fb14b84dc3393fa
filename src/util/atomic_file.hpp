// Crash-safe file replacement: write to a temp file in the destination's
// directory, flush, then rename over the destination. Rename is atomic on
// POSIX, so readers observe either the complete old file or the complete
// new one — never a truncated tail. save_dataset / save_model / every
// checksummed artifact writer goes through here, because a half-written
// checksummed file is indistinguishable from corruption to its reader.
//
// read_file is the matching reader: one sized read of one open descriptor,
// so a rename that replaces the path mid-read cannot splice two files.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace smart::util {

/// Streams `writer(out)` into `<path>.tmp.<pid>` and renames it over
/// `path` after a successful flush. On ANY failure — writer exception,
/// stream error, rename failure, injected io fault (util/fault) — the
/// temp file is removed and `path` is left exactly as it was. Throws
/// std::runtime_error (or rethrows the writer's exception).
void atomic_write(const std::string& path,
                  const std::function<void(std::ostream&)>& writer);

/// The whole content of the regular file at `path`, sized from the open
/// descriptor and read in one call (looping only on short reads). Throws
/// std::runtime_error naming `path` when it cannot be opened or read, or
/// is not a regular file.
std::string read_file(const std::string& path);

}  // namespace smart::util
