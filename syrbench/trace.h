#pragma once

// In-memory span tracer for the traced benchmark run. Spans are recorded
// around calls into syrwatch's public functions (name, layer, start, end,
// thread, parent), kept in memory, and written out once at exit as Chrome
// trace-event JSON plus a per-layer self-time table.
//
// Self time of a span is its duration minus the part of its interval that
// its children cover; children may run on other threads and overlap each
// other, so "cover" is the union of the children's intervals clipped to the
// parent's.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace syrbench {

/// Monotonic wall clock in nanoseconds.
std::uint64_t now_ns() noexcept;

inline constexpr std::int64_t kRoot = -1;
inline constexpr std::int64_t kAuto = -2;

struct SpanRecord {
  const char* name = "";   // static strings only: spans are hot
  const char* layer = "";  // the syrwatch module the span's work belongs to
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t thread = 0;
  /// Index of the parent span, kRoot, or kAuto (resolved at finish():
  /// the innermost span on the same thread whose interval contains this
  /// one).
  std::int64_t parent = kAuto;
  /// Per-call spans (one per record or syscall): counted in the self-time
  /// table but left out of the Chrome trace, which would otherwise hold
  /// hundreds of thousands of events.
  bool detail = false;
};

/// Thread-safe span recorder. A disabled tracer records nothing and every
/// call is a branch — the untraced comparison run uses one.
class Tracer {
 public:
  explicit Tracer(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span on the calling thread; returns its id (or kRoot when
  /// disabled). close() stamps the end.
  std::int64_t open(const char* name, const char* layer,
                    std::int64_t parent = kAuto);
  void close(std::int64_t id);

  /// Records a finished span after the fact (hook-derived intervals and
  /// per-call timings).
  std::int64_t record(const char* name, const char* layer, std::uint64_t start,
                      std::uint64_t end, std::int64_t parent = kAuto,
                      bool detail = false);

  /// Resolves kAuto parents and returns a copy of every span. Call once
  /// all threads that record have finished.
  std::vector<SpanRecord> finish();

 private:
  bool enabled_;
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span over a scope.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, const char* layer,
        std::int64_t parent = kAuto)
      : tracer_(tracer), id_(tracer.open(name, layer, parent)) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { tracer_.close(id_); }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Assigns every kAuto span the innermost span on its thread whose
/// interval contains it (kRoot when none does). Explicit parents stay.
void resolve_parents(std::vector<SpanRecord>& spans);

/// Self time of every span (same order), in nanoseconds: duration minus
/// the union of its children's intervals clipped to the span.
std::vector<std::uint64_t> self_times(const std::vector<SpanRecord>& spans);

struct LayerRow {
  std::uint64_t spans = 0;
  std::uint64_t self_ns = 0;
};

/// Self time summed per layer.
std::map<std::string, LayerRow> layer_table(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::uint64_t>& self);

/// Total duration (not self time) of the spans with this name.
std::uint64_t total_ns(const std::vector<SpanRecord>& spans,
                       const char* name);

/// Chrome trace-event JSON ("X" events, one track per thread, detail
/// spans omitted); timestamps are microseconds since the earliest span.
std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const std::vector<std::uint64_t>& self);

/// Fixed-width text rendering of layer_table().
std::string render_layer_table(const std::map<std::string, LayerRow>& rows);

}  // namespace syrbench
