#include "analysis/stream.h"

#include <cerrno>
#include <cstring>
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

std::size_t SpoolTail::poll(const proxy::RecordSink& sink) {
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
  proxy::RecordView record;
  std::string scratch;
  const auto deliver = [&](std::string_view line) {
    if (proxy::read_lenient_line(line, expect_header_, stats_, record,
                                 scratch)) {
      sink(record);
      ++delivered;
    }
  };
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
    // Lines are decoded in place from the chunk; only a line that spans
    // two reads is assembled in pending_.
    std::size_t start = 0;
    const char* newline =
        static_cast<const char*>(std::memchr(chunk, '\n', size));
    if (!pending_.empty() && newline != nullptr) {
      const auto end = static_cast<std::size_t>(newline - chunk);
      pending_.append(chunk, end);
      deliver(pending_);
      pending_.clear();
      start = end + 1;
      newline = static_cast<const char*>(
          std::memchr(chunk + start, '\n', size - start));
    }
    while (newline != nullptr) {
      const auto end = static_cast<std::size_t>(newline - chunk);
      deliver({chunk + start, end - start});
      start = end + 1;
      newline = static_cast<const char*>(
          std::memchr(chunk + start, '\n', size - start));
    }
    pending_.append(chunk + start, size - start);
  }
  vfs_->close(fd);
  // Whatever is left in pending_ is the torn-tail candidate: it stays
  // buffered until a later append completes the line.
  return delivered;
}

}  // namespace syrwatch::analysis
