// certkit support: filesystem helpers used by the analyzers and reports.
#ifndef CERTKIT_SUPPORT_IO_H_
#define CERTKIT_SUPPORT_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace certkit::support {

// Reads an entire file into a string: a regular file with one read of its
// size, then on until EOF, so that a pipe or a procfs file (whose size
// reads 0) comes back whole too.
Result<std::string> ReadFile(const std::string& path);

// Writes `content` to `path`, creating parent directories as needed.
Status WriteFile(const std::string& path, const std::string& content);

// Atomic publish: writes `content` under a temp name unique to this process
// and thread, then renames it onto `path`. Concurrent writers never
// interleave and readers only ever see whole files. Creates parent
// directories as needed.
Status AtomicWriteFile(const std::string& path, const std::string& content);

// --- the frame ------------------------------------------------------------
// Every persisted blob (the analysis cache's .ckart and .ckmod entries, the
// campaign's .ckcorp, .ckpt and .ckshard files) is framed:
//   blob := magic[4] | u32 schema LE | u64 FnvWords(payload) LE | payload
// The digest is checked on every read, so a truncated, damaged or
// version-skewed blob never reaches a decoder; its owner recomputes or
// reports it instead.
inline constexpr std::size_t kFrameHeaderSize = 16;

std::string FrameBlob(const char magic[4], std::uint32_t schema,
                      std::string_view payload);
// False on a short blob, another magic, schema skew or a digest mismatch.
bool UnframeBlob(const char magic[4], std::uint32_t schema,
                 std::string_view blob, std::string_view* payload);

// Frames `payload` and publishes it at `path` with AtomicWriteFile.
Status WriteFrame(const std::string& path, const char magic[4],
                  std::uint32_t schema, std::string_view payload);
// Reads the blob at `path` into *bytes and points *payload at its checked
// payload: an IoError when unreadable, a ParseError when the frame fails.
Status ReadFrame(const std::string& path, const char magic[4],
                 std::uint32_t schema, std::string* bytes,
                 std::string_view* payload);

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
