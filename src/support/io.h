// certkit support: filesystem helpers used by the analyzers and reports.
#ifndef CERTKIT_SUPPORT_IO_H_
#define CERTKIT_SUPPORT_IO_H_

#include <string>
#include <vector>

#include "support/status.h"

namespace certkit::support {

// Reads an entire file into a string.
Result<std::string> ReadFile(const std::string& path);

// Writes `content` to `path`, creating parent directories as needed.
Status WriteFile(const std::string& path, const std::string& content);

// Atomic publish: writes `content` under a temp name unique to this process
// and thread, then renames it onto `path`. Concurrent writers never
// interleave and readers only ever see whole files. Creates parent
// directories as needed.
Status AtomicWriteFile(const std::string& path, const std::string& content);

// Recursively lists regular files under `dir` whose name ends with one of
// `extensions` (e.g. {".cc", ".h"}); empty `extensions` matches everything.
//
// Guarantee: the returned paths are in ascending lexicographic order,
// regardless of filesystem iteration order. The parallel AnalysisDriver
// relies on this to assign work and merge results in a stable order, so the
// same tree always produces bit-identical analyses — do not weaken it.
Result<std::vector<std::string>> ListFiles(
    const std::string& dir, const std::vector<std::string>& extensions);

}  // namespace certkit::support

#endif  // CERTKIT_SUPPORT_IO_H_
