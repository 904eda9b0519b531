// syrbench_selftest — tests of the benchmark's own tracing code:
//   - self time when overlapping child spans come from 4 threads;
//   - kAuto parents resolved by containment on the recording thread;
//   - the Chrome trace has one track per recording thread;
//   - CountingVfs forwards every call unchanged, so a run's output is
//     byte-identical with and without it, while counting what it saw.
// Exits non-zero on the first failure.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "colfmt/container.h"
#include "counting_vfs.h"
#include "durable/checkpoint.h"
#include "trace.h"
#include "util/atomic_io.h"
#include "util/vfs.h"
#include "workload/scenario.h"

namespace {

using namespace syrbench;
namespace fs = std::filesystem;

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

void test_self_time_four_threads() {
  Tracer tracer;
  // Parent [1000, 2000) on this thread; one child per worker thread, the
  // four overlapping each other and one running past the parent's end.
  const std::int64_t parent =
      tracer.record("parent", "core", 1000, 2000, kRoot);
  const std::uint64_t child_spans[4][2] = {
      {1100, 1500}, {1200, 1600}, {1400, 1800}, {1900, 2300}};
  std::vector<std::thread> threads;
  for (const auto& interval : child_spans)
    threads.emplace_back([&tracer, parent, &interval] {
      tracer.record("child", "analysis", interval[0], interval[1], parent);
    });
  for (std::thread& thread : threads) thread.join();

  const auto spans = tracer.finish();
  const auto self = self_times(spans);
  CHECK(spans.size() == 5);
  // Covered: [1100, 1800) ∪ [1900, 2000) = 700 + 100 → self 1000 - 800.
  CHECK(self[static_cast<std::size_t>(parent)] == 200);
  const auto layers = layer_table(spans, self);
  CHECK(layers.at("core").self_ns == 200);
  // Children have no children: self time = full duration (400+400+400+400).
  CHECK(layers.at("analysis").self_ns == 1600);
  CHECK(layers.at("analysis").spans == 4);
}

void test_self_time_live_threads() {
  // Real clocks: four threads open and close children under one parent
  // concurrently; every child's interval lies inside the parent's, so the
  // parent's self time is at most its duration minus the longest child.
  Tracer tracer;
  const std::int64_t parent = tracer.open("parent", "core", kRoot);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([&tracer, parent] {
      const std::int64_t id = tracer.open("child", "analysis", parent);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      tracer.close(id);
    });
  for (std::thread& thread : threads) thread.join();
  tracer.close(parent);
  const auto spans = tracer.finish();
  const auto self = self_times(spans);
  std::uint64_t longest = 0;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    CHECK(spans[i].parent == parent);
    CHECK(spans[i].thread != spans[0].thread);
    longest = std::max(longest, spans[i].end - spans[i].start);
  }
  const std::uint64_t duration = spans[0].end - spans[0].start;
  CHECK(self[0] <= duration - longest);
  CHECK(longest >= 20'000'000);
}

void test_auto_parents_and_tracks() {
  Tracer tracer;
  const std::int64_t outer = tracer.record("outer", "durable", 0, 100);
  const std::int64_t inner = tracer.record("inner", "workload", 10, 50);
  const std::int64_t leaf =
      tracer.record("leaf", "util", 20, 30, kAuto, /*detail=*/true);
  const std::int64_t after = tracer.record("after", "colfmt", 60, 70);
  const std::int64_t sibling = tracer.record("outside", "core", 150, 160);
  std::thread other{[&tracer] { tracer.record("other", "shard", 20, 40); }};
  other.join();
  const auto spans = tracer.finish();
  CHECK(spans[static_cast<std::size_t>(outer)].parent == kRoot);
  CHECK(spans[static_cast<std::size_t>(inner)].parent == outer);
  CHECK(spans[static_cast<std::size_t>(leaf)].parent == inner);
  CHECK(spans[static_cast<std::size_t>(after)].parent == outer);
  CHECK(spans[static_cast<std::size_t>(sibling)].parent == kRoot);
  // A span on another thread is never adopted by containment.
  CHECK(spans[5].parent == kRoot);
  const auto self = self_times(spans);
  CHECK(self[static_cast<std::size_t>(outer)] == 100 - 40 - 10);
  CHECK(self[static_cast<std::size_t>(inner)] == 40 - 10);

  const std::string json = chrome_trace_json(spans, self);
  std::size_t tracks = 0;
  for (std::size_t at = json.find("\"thread_name\""); at != std::string::npos;
       at = json.find("\"thread_name\"", at + 1))
    ++tracks;
  CHECK(tracks == 2);
  CHECK(json.find("\"leaf\"") == std::string::npos);  // detail span
  CHECK(json.find("\"inner\"") != std::string::npos);
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A small checkpointed generate writing the spool, farm state, manifest
/// and a SYRCOL1 container through the process default Vfs.
std::vector<std::string> write_run(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  syrwatch::workload::ScenarioConfig config;
  config.total_requests = 20'000;
  config.seed = 7;
  config.threads = 2;
  syrwatch::workload::SyriaScenario scenario{config};
  syrwatch::colfmt::Writer col{dir + "/log.col"};
  syrwatch::durable::CheckpointOptions options;
  options.directory = dir + "/ckpt";
  options.commit_interval = 2;
  auto run = syrwatch::durable::run_checkpointed(
      scenario, options,
      [&](const syrwatch::proxy::LogRecord& record) { col.add(record); });
  col.finish();
  syrwatch::durable::finalize_output(dir + "/ckpt", run.manifest,
                                     dir + "/log.csv");
  syrwatch::util::atomic_write_file(dir + "/note.txt", "hello\n");
  return {slurp(dir + "/log.csv"), slurp(dir + "/log.col"),
          slurp(dir + "/note.txt")};
}

void test_counting_vfs_is_transparent(const std::string& scratch) {
  const auto plain = write_run(scratch + "/plain");

  Tracer tracer;
  CountingVfs counting{syrwatch::util::system_vfs(), tracer};
  syrwatch::util::set_default_vfs(&counting);
  const auto counted = write_run(scratch + "/counted");
  syrwatch::util::set_default_vfs(nullptr);

  CHECK(plain.size() == counted.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    CHECK(!plain[i].empty());
    CHECK(plain[i] == counted[i]);
  }
  // Every byte of the delivered artifacts went through write().
  std::uint64_t delivered = 0;
  for (const std::string& bytes : counted) delivered += bytes.size();
  CHECK(counting.bytes_written() >= delivered);
  CHECK(counting.writes() > 0);
  CHECK(counting.fsyncs() > 0);
  CHECK(counting.fsync_ns() > 0);
  std::size_t vfs_spans = 0;
  for (const auto& span : tracer.finish())
    if (std::string_view{span.layer} == "util" && span.detail) ++vfs_spans;
  CHECK(vfs_spans == counting.writes() + counting.fsyncs());

  // Direct forwarding: results and errno conventions pass through.
  const std::string path = scratch + "/direct.bin";
  const int fd = counting.open(path, syrwatch::util::OpenMode::kTruncate);
  CHECK(fd >= 0);
  CHECK(counting.write(fd, "abcdef", 6) == 6);
  CHECK(counting.fsync(fd) == 0);
  CHECK(counting.close(fd) == 0);
  syrwatch::util::VfsStat st;
  CHECK(counting.stat(path, st) && st.size == 6);
  CHECK(counting.truncate(path, 3) == 0);
  CHECK(counting.rename(path, path + ".2") == 0);
  const int rfd = counting.open(path + ".2", syrwatch::util::OpenMode::kRead);
  char buffer[8] = {};
  CHECK(counting.read(rfd, buffer, sizeof buffer, 0) == 3);
  CHECK(std::string(buffer, 3) == "abc");
  CHECK(counting.close(rfd) == 0);
  CHECK(counting.unlink(path + ".2") == 0);
  CHECK(!counting.stat(path + ".2", st));
  CHECK(counting.open(path + ".missing", syrwatch::util::OpenMode::kRead) ==
        -1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scratch =
      argc > 1 ? argv[1]
               : (fs::temp_directory_path() / "syrbench_selftest").string();
  test_self_time_four_threads();
  test_self_time_live_threads();
  test_auto_parents_and_tracks();
  test_counting_vfs_is_transparent(scratch);
  fs::remove_all(scratch);
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("syrbench_selftest: all checks passed\n");
  return 0;
}
