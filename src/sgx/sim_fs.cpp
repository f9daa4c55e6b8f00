#include "sgx/sim_fs.hpp"

#include <fcntl.h>

#include <cstdio>
#include <cstring>

#include "common/cycles.hpp"

namespace zc {

SimFs& SimFs::instance() {
  static SimFs fs;
  return fs;
}

void SimFs::set_syscall_cycles(std::uint64_t cycles) noexcept {
  syscall_cycles_.store(cycles, std::memory_order_relaxed);
}

std::uint64_t SimFs::syscall_cycles() const noexcept {
  return syscall_cycles_.load(std::memory_order_relaxed);
}

void SimFs::fail_next_ops(std::uint64_t count) noexcept {
  failures_left_.store(count, std::memory_order_relaxed);
}

std::uint64_t SimFs::pending_failures() const noexcept {
  return failures_left_.load(std::memory_order_relaxed);
}

bool SimFs::take_failure() noexcept {
  std::uint64_t left = failures_left_.load(std::memory_order_relaxed);
  while (left != 0) {
    if (failures_left_.compare_exchange_weak(left, left - 1,
                                             std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void SimFs::charge() const noexcept {
  burn_cycles(syscall_cycles_.load(std::memory_order_relaxed));
}

std::uint64_t SimFs::fopen(const std::string& path, const std::string& mode) {
  charge();
  const bool plus = mode.find('+') != std::string::npos;
  const char kind = mode.empty() ? '\0' : mode[0];
  auto stream = std::make_shared<Stream>();
  stream->readable = kind == 'r' || plus;
  stream->writable = kind == 'w' || kind == 'a' || plus;
  stream->append = kind == 'a';

  std::lock_guard lock(mu_);
  auto it = files_.find(path);
  if (kind == 'r') {
    if (it == files_.end()) return 0;  // rb/r+b require the file to exist
    stream->file = it->second;
  } else if (kind == 'w') {
    if (it == files_.end()) {
      it = files_.emplace(path, std::make_shared<File>()).first;
    } else {
      std::lock_guard file_lock(it->second->mu);
      it->second->data.clear();  // truncate
    }
    stream->file = it->second;
  } else if (kind == 'a') {
    if (it == files_.end()) {
      it = files_.emplace(path, std::make_shared<File>()).first;
    }
    stream->file = it->second;
  } else {
    return 0;  // unsupported mode
  }
  const std::uint64_t handle = next_handle_++;
  streams_[handle] = std::move(stream);
  return handle;
}

std::shared_ptr<SimFs::Stream> SimFs::find_stream(std::uint64_t handle) const {
  std::lock_guard lock(mu_);
  const auto it = streams_.find(handle);
  return it == streams_.end() ? nullptr : it->second;
}

int SimFs::fclose(std::uint64_t handle) {
  charge();
  std::lock_guard lock(mu_);
  return streams_.erase(handle) != 0 ? 0 : EOF;
}

std::size_t SimFs::fread(void* dst, std::size_t n, std::uint64_t handle) {
  charge();
  if (take_failure()) return 0;
  auto stream = find_stream(handle);
  if (!stream || !stream->readable) return 0;
  std::lock_guard file_lock(stream->file->mu);
  const auto& data = stream->file->data;
  if (stream->pos >= data.size()) return 0;
  const std::size_t available = data.size() - stream->pos;
  const std::size_t take = n < available ? n : available;
  std::memcpy(dst, data.data() + stream->pos, take);
  stream->pos += take;
  return take;
}

std::size_t SimFs::fwrite(const void* src, std::size_t n,
                          std::uint64_t handle) {
  charge();
  if (take_failure()) return 0;
  auto stream = find_stream(handle);
  if (!stream || !stream->writable) return 0;
  std::lock_guard file_lock(stream->file->mu);
  auto& data = stream->file->data;
  if (stream->append) stream->pos = data.size();
  if (stream->pos + n > data.size()) data.resize(stream->pos + n);
  std::memcpy(data.data() + stream->pos, src, n);
  stream->pos += n;
  return n;
}

int SimFs::fseeko(std::uint64_t handle, std::int64_t offset, int whence) {
  charge();
  auto stream = find_stream(handle);
  if (!stream) return -1;
  std::lock_guard file_lock(stream->file->mu);
  std::int64_t base = 0;
  switch (whence) {
    case SEEK_SET:
      base = 0;
      break;
    case SEEK_CUR:
      base = static_cast<std::int64_t>(stream->pos);
      break;
    case SEEK_END:
      base = static_cast<std::int64_t>(stream->file->data.size());
      break;
    default:
      return -1;
  }
  const std::int64_t target = base + offset;
  if (target < 0) return -1;
  stream->pos = static_cast<std::size_t>(target);
  return 0;
}

std::int64_t SimFs::ftello(std::uint64_t handle) {
  charge();
  auto stream = find_stream(handle);
  if (!stream) return -1;
  return static_cast<std::int64_t>(stream->pos);
}

int SimFs::fflush(std::uint64_t handle) {
  charge();
  return find_stream(handle) ? 0 : EOF;
}

int SimFs::open(const std::string& path, int flags) {
  charge();
  auto stream = std::make_shared<Stream>();
  const int access = flags & O_ACCMODE;
  stream->readable = access == O_RDONLY || access == O_RDWR;
  stream->writable = access == O_WRONLY || access == O_RDWR;

  std::lock_guard lock(mu_);
  if (path == "/dev/zero") {
    stream->dev = DevKind::kZero;
  } else if (path == "/dev/null") {
    stream->dev = DevKind::kNull;
  } else {
    auto it = files_.find(path);
    if (it == files_.end()) {
      if ((flags & O_CREAT) == 0) return -1;
      it = files_.emplace(path, std::make_shared<File>()).first;
    }
    stream->file = it->second;
    if ((flags & O_TRUNC) != 0 && stream->writable) {
      std::lock_guard file_lock(stream->file->mu);
      stream->file->data.clear();
    }
  }
  const int fd = next_fd_++;
  fds_[fd] = std::move(stream);
  return fd;
}

int SimFs::close(int fd) {
  charge();
  std::lock_guard lock(mu_);
  return fds_.erase(fd) != 0 ? 0 : -1;
}

std::int64_t SimFs::read(int fd, void* buf, std::size_t n) {
  charge();
  if (take_failure()) return -1;
  std::shared_ptr<Stream> stream;
  {
    std::lock_guard lock(mu_);
    const auto it = fds_.find(fd);
    if (it == fds_.end()) return -1;
    stream = it->second;
  }
  if (!stream->readable) return -1;
  switch (stream->dev) {
    case DevKind::kZero:
      std::memset(buf, 0, n);
      return static_cast<std::int64_t>(n);
    case DevKind::kNull:
      return 0;  // EOF
    case DevKind::kFile: {
      std::lock_guard file_lock(stream->file->mu);
      const auto& data = stream->file->data;
      if (stream->pos >= data.size()) return 0;
      const std::size_t take = std::min(n, data.size() - stream->pos);
      std::memcpy(buf, data.data() + stream->pos, take);
      stream->pos += take;
      return static_cast<std::int64_t>(take);
    }
  }
  return -1;
}

std::int64_t SimFs::write(int fd, const void* buf, std::size_t n) {
  charge();
  if (take_failure()) return -1;
  std::shared_ptr<Stream> stream;
  {
    std::lock_guard lock(mu_);
    const auto it = fds_.find(fd);
    if (it == fds_.end()) return -1;
    stream = it->second;
  }
  if (!stream->writable) return -1;
  switch (stream->dev) {
    case DevKind::kZero:
      return static_cast<std::int64_t>(n);
    case DevKind::kNull:
      return static_cast<std::int64_t>(n);  // discard
    case DevKind::kFile: {
      std::lock_guard file_lock(stream->file->mu);
      auto& data = stream->file->data;
      if (stream->pos + n > data.size()) data.resize(stream->pos + n);
      std::memcpy(data.data() + stream->pos, buf, n);
      stream->pos += n;
      return static_cast<std::int64_t>(n);
    }
  }
  return -1;
}

bool SimFs::exists(const std::string& path) const {
  std::lock_guard lock(mu_);
  return files_.contains(path);
}

std::size_t SimFs::file_size(const std::string& path) const {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) return 0;
  std::lock_guard file_lock(it->second->mu);
  return it->second->data.size();
}

void SimFs::remove(const std::string& path) {
  std::lock_guard lock(mu_);
  files_.erase(path);
}

void SimFs::clear() {
  failures_left_.store(0, std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  files_.clear();
  streams_.clear();
  fds_.clear();
}

}  // namespace zc
