#include "support/io.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "support/strings.h"

namespace certkit::support {

namespace fs = std::filesystem;

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return IoError("cannot open for reading: " + path);
  }
  std::ostringstream os;
  os << in.rdbuf();
  if (in.bad()) {
    return IoError("read failure: " + path);
  }
  return os.str();
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
