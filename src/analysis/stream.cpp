#include "analysis/stream.h"

#include <cerrno>
#include <stdexcept>
#include <utility>

namespace syrwatch::analysis {

void SpoolTail::resume_at(std::uint64_t offset) {
  if (polled_)
    throw std::logic_error("SpoolTail::resume_at after the first poll");
  consumed_ = offset;
  // The header is the first line of the file; a resumed tail positioned
  // past byte 0 will only ever see record lines.
  expect_header_ = offset == 0;
}

std::size_t SpoolTail::poll(
    const std::function<void(const proxy::LogRecord&)>& sink) {
  polled_ = true;
  util::VfsStat st;
  if (!vfs_->stat(path_, st)) return 0;  // spool not created yet

  // Rotation/truncation detection: a different inode means the file was
  // replaced (rotated) under us; a size below our position means it was
  // truncated in place. Either way the bytes we were positioned in are
  // gone — reopen from the top of the new content and record the gap
  // rather than wedging the watch loop forever.
  if ((inode_ != 0 && st.inode != inode_) || st.size < consumed_) {
    ++gaps_;
    consumed_ = 0;
    pending_.clear();
    expect_header_ = true;
  }
  inode_ = st.inode;

  const int fd = vfs_->open(path_, util::OpenMode::kRead);
  if (fd < 0) return 0;  // raced an unlink between stat and open

  std::size_t delivered = 0;
  char chunk[64 * 1024];
  int retries = 0;
  for (;;) {
    const long got = vfs_->read(fd, chunk, sizeof(chunk), consumed_);
    if (got < 0) {
      if (errno == EINTR && ++retries <= util::kMaxTransientRetries)
        continue;
      break;  // transient read failure: deliver what we have, next poll
    }
    if (got == 0) break;  // EOF
    retries = 0;
    const auto size = static_cast<std::size_t>(got);
    consumed_ += size;
    std::size_t start = 0;
    for (std::size_t i = 0; i < size; ++i) {
      if (chunk[i] != '\n') continue;
      pending_.append(chunk + start, i - start);
      if (const auto record =
              proxy::read_lenient_line(pending_, expect_header_, stats_)) {
        sink(*record);
        ++delivered;
      }
      pending_.clear();
      start = i + 1;
    }
    pending_.append(chunk + start, size - start);
  }
  vfs_->close(fd);
  // Whatever is left in pending_ is the torn-tail candidate: it stays
  // buffered until a later append completes the line.
  return delivered;
}

}  // namespace syrwatch::analysis
