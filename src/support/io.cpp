#include "support/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "support/fnv.h"
#include "support/strings.h"

namespace certkit::support {

namespace fs = std::filesystem;

Result<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return IoError("cannot open for reading: " + path);
  }
  // A regular file's size is known, so one read fills it; the reads after
  // that one, and all of a pipe's or a procfs file's (whose size reads 0),
  // go on until EOF, doubling the buffer as it fills.
  struct stat st {};
  const bool sized = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  std::string out(sized ? st.st_size + 1 : 4096, '\0');
  std::size_t filled = 0;
  ssize_t got = 0;
  do {
    if (filled == out.size()) out.resize(2 * out.size());
    got = ::read(fd, out.data() + filled, out.size() - filled);
    filled += got > 0 ? got : 0;
  } while (got > 0 || (got < 0 && errno == EINTR));
  ::close(fd);
  if (got < 0) {
    return IoError("read failure: " + path);
  }
  out.resize(filled);
  return out;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::error_code ec;
  const fs::path p(path);
  if (p.has_parent_path()) {
    fs::create_directories(p.parent_path(), ec);
    if (ec) {
      return IoError("cannot create directories for: " + path + " (" +
                     ec.message() + ")");
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return IoError("cannot open for writing: " + path);
  }
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  if (!out) {
    return IoError("write failure: " + path);
  }
  return Status::Ok();
}

Status AtomicWriteFile(const std::string& path, const std::string& content) {
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << ::getpid() << "."
           << std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::string tmp = tmp_name.str();
  const Status written = WriteFile(tmp, content);
  if (!written.ok()) return written;
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return IoError("cannot publish " + path);
  }
  return Status::Ok();
}

namespace {

void AppendLe(std::uint64_t v, int bytes, std::string* out) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

std::uint64_t ReadLe(std::string_view bytes) {
  std::uint64_t v = 0;
  for (auto it = bytes.rbegin(); it != bytes.rend(); ++it) {
    v = v << 8 | static_cast<unsigned char>(*it);
  }
  return v;
}

}  // namespace

std::string FrameBlob(const char magic[4], std::uint32_t schema,
                      std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(magic, 4);
  AppendLe(schema, 4, &out);
  AppendLe(FnvWords(payload), 8, &out);
  out.append(payload);
  return out;
}

bool UnframeBlob(const char magic[4], std::uint32_t schema,
                 std::string_view blob, std::string_view* payload) {
  const bool framed =
      blob.size() >= kFrameHeaderSize &&
      blob.substr(0, 4) == std::string_view(magic, 4) &&
      ReadLe(blob.substr(4, 4)) == schema &&
      ReadLe(blob.substr(8, 8)) == FnvWords(blob.substr(kFrameHeaderSize));
  if (framed) *payload = blob.substr(kFrameHeaderSize);
  return framed;
}

Status WriteFrame(const std::string& path, const char magic[4],
                  std::uint32_t schema, std::string_view payload) {
  return AtomicWriteFile(path, FrameBlob(magic, schema, payload));
}

Status ReadFrame(const std::string& path, const char magic[4],
                 std::uint32_t schema, std::string* bytes,
                 std::string_view* payload) {
  Result<std::string> read = ReadFile(path);
  Status status = read.status();
  if (status.ok()) {
    *bytes = std::move(read).value();
    if (!UnframeBlob(magic, schema, *bytes, payload)) {
      status = ParseError(
          "frame check failed (truncated, damaged, or version-skewed)");
    }
  }
  return status;
}

Result<std::vector<std::string>> ListFiles(
    const std::string& dir, const std::vector<std::string>& extensions) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return NotFoundError("not a directory: " + dir);
  }
  std::vector<std::string> out;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string path = it->path().string();
    if (extensions.empty()) {
      out.push_back(path);
      continue;
    }
    for (const auto& ext : extensions) {
      if (EndsWith(path, ext)) {
        out.push_back(path);
        break;
      }
    }
  }
  if (ec) {
    return IoError("directory traversal failed: " + dir + " (" + ec.message() +
                   ")");
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace certkit::support
