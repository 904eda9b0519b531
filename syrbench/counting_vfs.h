#pragma once

// A util::Vfs that forwards every call unchanged to another Vfs and counts
// what passes through: bytes written, write and fsync calls, and the wall
// time spent in fsync. Installed with util::set_default_vfs it observes
// every durable write of the run (spool, farm state, manifest, SYRCOL1
// container, shard merge) without changing a byte of output.

#include <atomic>
#include <cstdint>
#include <string>

#include "trace.h"
#include "util/vfs.h"

namespace syrbench {

class CountingVfs final : public syrwatch::util::Vfs {
 public:
  /// `tracer` additionally gets one detail span per write and fsync,
  /// attributed to the util layer.
  CountingVfs(syrwatch::util::Vfs& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  int open(const std::string& path,
           syrwatch::util::OpenMode mode) override {
    return inner_.open(path, mode);
  }
  long write(int fd, const void* data, std::size_t size) override {
    const std::uint64_t start = now_ns();
    const long written = inner_.write(fd, data, size);
    const std::uint64_t end = now_ns();
    writes_.fetch_add(1, std::memory_order_relaxed);
    if (written > 0)
      bytes_written_.fetch_add(static_cast<std::uint64_t>(written),
                               std::memory_order_relaxed);
    span("vfs.write", start, end);
    return written;
  }
  long read(int fd, void* data, std::size_t size,
            std::uint64_t offset) override {
    return inner_.read(fd, data, size, offset);
  }
  int fsync(int fd) override {
    return timed_fsync([&] { return inner_.fsync(fd); });
  }
  int fsync_parent(const std::string& path) override {
    return timed_fsync([&] { return inner_.fsync_parent(path); });
  }
  int close(int fd) override { return inner_.close(fd); }
  int rename(const std::string& from, const std::string& to) override {
    return inner_.rename(from, to);
  }
  int truncate(const std::string& path, std::uint64_t size) override {
    return inner_.truncate(path, size);
  }
  int unlink(const std::string& path) override { return inner_.unlink(path); }
  bool stat(const std::string& path, syrwatch::util::VfsStat& out) override {
    return inner_.stat(path, out);
  }

  std::uint64_t bytes_written() const noexcept {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t writes() const noexcept {
    return writes_.load(std::memory_order_relaxed);
  }
  /// Data and directory fsyncs together.
  std::uint64_t fsyncs() const noexcept {
    return fsyncs_.load(std::memory_order_relaxed);
  }
  std::uint64_t fsync_ns() const noexcept {
    return fsync_ns_.load(std::memory_order_relaxed);
  }

 private:
  template <typename Call>
  int timed_fsync(Call&& call) {
    const std::uint64_t start = now_ns();
    const int result = call();
    const std::uint64_t end = now_ns();
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    fsync_ns_.fetch_add(end - start, std::memory_order_relaxed);
    span("vfs.fsync", start, end);
    return result;
  }
  void span(const char* name, std::uint64_t start, std::uint64_t end) {
    tracer_.record(name, "util", start, end, kAuto, /*detail=*/true);
  }

  syrwatch::util::Vfs& inner_;
  Tracer& tracer_;
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> fsync_ns_{0};
};

}  // namespace syrbench
