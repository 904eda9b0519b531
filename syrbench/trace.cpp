#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <string_view>

namespace syrbench {

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::int64_t Tracer::open(const char* name, const char* layer,
                          std::int64_t parent) {
  if (!enabled_) return kRoot;
  SpanRecord span{name, layer, now_ns(), 0, thread_index(), parent, false};
  const std::lock_guard lock{mutex_};
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::close(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const std::uint64_t end = now_ns();
  const std::lock_guard lock{mutex_};
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::int64_t Tracer::record(const char* name, const char* layer,
                            std::uint64_t start, std::uint64_t end,
                            std::int64_t parent, bool detail) {
  if (!enabled_) return kRoot;
  SpanRecord span{name, layer, start, std::max(start, end), thread_index(),
                  parent, detail};
  const std::lock_guard lock{mutex_};
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<SpanRecord> Tracer::finish() {
  std::vector<SpanRecord> spans;
  {
    const std::lock_guard lock{mutex_};
    spans = spans_;
  }
  resolve_parents(spans);
  return spans;
}

void resolve_parents(std::vector<SpanRecord>& spans) {
  std::map<std::uint32_t, std::vector<std::size_t>> by_thread;
  for (std::size_t i = 0; i < spans.size(); ++i)
    by_thread[spans[i].thread].push_back(i);
  for (auto& [thread, order] : by_thread) {
    // Outer spans first: earlier start, then longer, then older.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].start != spans[b].start)
        return spans[a].start < spans[b].start;
      if (spans[a].end != spans[b].end) return spans[a].end > spans[b].end;
      return a < b;
    });
    std::vector<std::size_t> stack;
    for (const std::size_t i : order) {
      while (!stack.empty() && !(spans[stack.back()].start <= spans[i].start &&
                                 spans[i].end <= spans[stack.back()].end))
        stack.pop_back();
      if (spans[i].parent == kAuto)
        spans[i].parent =
            stack.empty() ? kRoot : static_cast<std::int64_t>(stack.back());
      stack.push_back(i);
    }
  }
}

std::vector<std::uint64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);

  std::vector<std::uint64_t> self(spans.size());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::uint64_t lo = std::max(spans[c].start, span.start);
      const std::uint64_t hi = std::min(spans[c].end, span.end);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = 0;
    for (const auto& [lo, hi] : cover) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (span.end - span.start) - covered;
  }
  return self;
}

std::map<std::string, LayerRow> layer_table(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::uint64_t>& self) {
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerRow& row = rows[spans[i].layer];
    ++row.spans;
    row.self_ns += self[i];
  }
  return rows;
}

std::uint64_t total_ns(const std::vector<SpanRecord>& spans,
                       const char* name) {
  std::uint64_t total = 0;
  for (const SpanRecord& span : spans)
    if (std::string_view{span.name} == name) total += span.end - span.start;
  return total;
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const std::vector<std::uint64_t>& self) {
  std::uint64_t epoch = ~std::uint64_t{0};
  std::set<std::uint32_t> threads;
  for (const SpanRecord& span : spans) {
    if (span.detail) continue;
    epoch = std::min(epoch, span.start);
    threads.insert(span.thread);
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buffer[512];
  for (const std::uint32_t thread : threads) {
    std::snprintf(buffer, sizeof buffer,
                  "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"thread %u\"}}",
                  first ? "" : ",", thread, thread);
    out += buffer;
    first = false;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (span.detail) continue;
    std::snprintf(buffer, sizeof buffer,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%zu,\"parent\":%lld,\"self_us\":%.3f}}",
                  first ? "" : ",", span.name, span.layer,
                  static_cast<double>(span.start - epoch) * 1e-3,
                  static_cast<double>(span.end - span.start) * 1e-3,
                  span.thread, i, static_cast<long long>(span.parent),
                  static_cast<double>(self[i]) * 1e-3);
    out += buffer;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

std::string render_layer_table(const std::map<std::string, LayerRow>& rows) {
  std::vector<std::pair<std::string, LayerRow>> sorted(rows.begin(),
                                                       rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::uint64_t total = 0;
  for (const auto& [layer, row] : sorted) total += row.self_ns;
  std::string out = "layer          spans      self_s   share\n";
  char buffer[160];
  for (const auto& [layer, row] : sorted) {
    std::snprintf(buffer, sizeof buffer, "%-12s %7llu %11.6f %6.1f%%\n",
                  layer.c_str(), static_cast<unsigned long long>(row.spans),
                  static_cast<double>(row.self_ns) * 1e-9,
                  total == 0 ? 0.0
                             : 100.0 * static_cast<double>(row.self_ns) /
                                   static_cast<double>(total));
    out += buffer;
  }
  return out;
}

}  // namespace syrbench
