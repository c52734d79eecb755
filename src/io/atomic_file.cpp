#include "io/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/check.hpp"

namespace pddl::io {

void write_file_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  PDDL_CHECK(fd >= 0, "cannot open for write: ", tmp, ": ",
             std::strerror(errno));
  bool renamed = false;
  // Closes the temp file if still open and removes it unless it became
  // `path`, on the success and every failure path alike.
  struct Cleanup {
    int& fd;
    const std::string& tmp;
    const bool& renamed;
    ~Cleanup() {
      if (fd >= 0) ::close(fd);
      if (!renamed) ::unlink(tmp.c_str());
    }
  } cleanup{fd, tmp, renamed};
  auto check = [&path](bool ok, const char* step) {
    PDDL_CHECK(ok, "failed ", step, " ", path, ": ", std::strerror(errno));
  };
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    check(n > 0, "writing");
    off += static_cast<std::size_t>(n);
  }
  check(::fsync(fd) == 0, "syncing");
  const int closed = ::close(fd);
  fd = -1;
  check(closed == 0, "closing");
  check(::rename(tmp.c_str(), path.c_str()) == 0, "renaming");
  renamed = true;
  // Persist the rename itself by syncing the directory entry.
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  fd = ::open(parent.empty() ? "." : parent.c_str(),
              O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  check(fd >= 0 && ::fsync(fd) == 0, "syncing the directory of");
}

}  // namespace pddl::io
