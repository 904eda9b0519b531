// Analyzer scan matrix: every class of newly container-native analyzer
// timed on both LogSource backends (in-memory row Dataset, mmap'd SYRCOL1
// container) at 1 and 8 threads, against the to_dataset_compat bridge the
// scan layer retired from the hot path. Not a paper experiment — this
// bench guards the scan-layer refactor: running an analyzer directly on
// the container must beat materializing rows first by the margins
// EXPERIMENTS records (>= 5x at 8 threads for the headline analyzers).

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/agents.h"
#include "analysis/columnar.h"
#include "analysis/testing/compat.h"
#include "analysis/dataset.h"
#include "analysis/https_audit.h"
#include "analysis/port_dist.h"
#include "analysis/redirects.h"
#include "analysis/scan.h"
#include "analysis/string_discovery.h"
#include "analysis/top_domains.h"
#include "analysis/traffic_stats.h"
#include "analysis/user_stats.h"
#include "analysis/weather.h"
#include "bench_common.h"
#include "colfmt/container.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
using namespace syrbench;
namespace fs = std::filesystem;

constexpr std::size_t kRequests = 600'000;

/// Backend x thread-count matrix cells, passed as the benchmark Arg.
enum Mode : int {
  kRow1 = 0,   // Dataset, 1 thread
  kRow8 = 1,   // Dataset, 8 threads
  kCol1 = 2,   // container, 1 thread
  kCol8 = 3,   // container, 8 threads
  kBridge = 4  // to_dataset_compat(container) + row analyzer (pre-PR path)
};

struct MatrixFixture {
  std::string col_path;
  std::unique_ptr<analysis::Dataset> dataset;
  std::unique_ptr<analysis::ColumnarLog> columnar;
  std::uint64_t rows = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

const MatrixFixture& fixture() {
  static const MatrixFixture fx = [] {
    MatrixFixture built;
    built.col_path =
        (fs::temp_directory_path() / "syrbench_analyzer_matrix.col").string();
    auto config = default_config();
    config.total_requests = kRequests;
    workload::SyriaScenario scenario{config};
    built.dataset = std::make_unique<analysis::Dataset>();
    colfmt::Writer col{built.col_path};
    scenario.run([&](const proxy::LogRecord& record) {
      if (built.rows == 0) built.start = record.time;
      built.end = record.time + 1;
      ++built.rows;
      built.dataset->add(record);
      col.add(record);
    });
    col.finish();
    built.dataset->finalize();
    built.columnar = std::make_unique<analysis::ColumnarLog>(
        colfmt::Reader::open(built.col_path));
    return built;
  }();
  return fx;
}

/// Runs `analyze(source, threads)` per iteration with the cell's backend
/// and thread count. The bridge cell pays what every analyzer paid before
/// the scan layer: materialize the whole container into a Dataset, then
/// run the row path single-threaded.
template <typename Analyze>
void run_matrix(benchmark::State& state, Analyze&& analyze) {
  const auto& fx = fixture();
  const auto mode = static_cast<Mode>(state.range(0));
  for (auto _ : state) {
    switch (mode) {
      case kRow1:
        analyze(analysis::LogSource{*fx.dataset}, 1);
        break;
      case kRow8:
        analyze(analysis::LogSource{*fx.dataset}, 8);
        break;
      case kCol1:
        analyze(analysis::LogSource{*fx.columnar}, 1);
        break;
      case kCol8:
        analyze(analysis::LogSource{*fx.columnar}, 8);
        break;
      case kBridge: {
        const auto bridged =
            analysis::to_dataset_compat(colfmt::Reader::open(fx.col_path));
        analyze(analysis::LogSource{bridged}, 1);
        break;
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.rows));
}

#define MATRIX_BENCH(name)                               \
  BENCHMARK(name)                                        \
      ->Arg(kRow1)                                       \
      ->Arg(kRow8)                                       \
      ->Arg(kCol1)                                       \
      ->Arg(kCol8)                                       \
      ->Arg(kBridge)                                     \
      ->Unit(benchmark::kMillisecond)

void BM_TrafficStats(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(analysis::traffic_stats(src, threads).total);
  });
}
MATRIX_BENCH(BM_TrafficStats);

void BM_TopDomains(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(
        analysis::top_domains(src,
                              {proxy::TrafficClass::kCensored, 30,
                               std::nullopt},
                              threads)
            .size());
  });
}
MATRIX_BENCH(BM_TopDomains);

void BM_PortDistribution(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(analysis::port_distribution(src, 0, threads)
                                 .size());
  });
}
MATRIX_BENCH(BM_PortDistribution);

void BM_UserStats(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(analysis::user_stats(src, threads).total_users);
  });
}
MATRIX_BENCH(BM_UserStats);

void BM_AgentStats(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(analysis::agent_stats(src, 10, threads).size());
  });
}
MATRIX_BENCH(BM_AgentStats);

void BM_HttpsStats(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(analysis::https_stats(src, threads).total);
  });
}
MATRIX_BENCH(BM_HttpsStats);

void BM_RedirectHosts(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(analysis::redirect_hosts(src, {.k = 0}, threads)
                                 .size());
  });
}
MATRIX_BENCH(BM_RedirectHosts);

void BM_KeywordWeather(benchmark::State& state) {
  static const std::vector<std::string> kKeywords{"proxy", "israel",
                                                  "facebook"};
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(
        analysis::keyword_weather(
            src, kKeywords, {{fixture().start, fixture().end}, {3600}},
            threads)
            .size());
  });
}
MATRIX_BENCH(BM_KeywordWeather);

// §5.4 string discovery's own ledger row. No bridge cell: the row path
// already is the reference, and the bridge would only time the load.
void BM_StringDiscovery(benchmark::State& state) {
  run_matrix(state, [](const analysis::LogSource& src, std::size_t threads) {
    benchmark::DoNotOptimize(
        analysis::discover_censored_strings(src, {}, threads)
            .censored_requests_explained);
  });
}
BENCHMARK(BM_StringDiscovery)
    ->Arg(kRow1)
    ->Arg(kRow8)
    ->Arg(kCol1)
    ->Arg(kCol8)
    ->Unit(benchmark::kMillisecond);

#undef MATRIX_BENCH

// --- reproduction table -----------------------------------------------------

double seconds_of(const std::function<void()>& work) {
  const auto begin = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

void print_reproduction() {
  print_banner("Analyzer scan matrix — container-native vs bridge",
               "refactor guard, not a paper table: analyzers must run "
               "source-agnostic on the SYRCOL1 container without the "
               "to_dataset materialization the scan layer retired");
  const auto& fx = fixture();

  struct NamedAnalyzer {
    const char* name;
    std::function<void(const analysis::LogSource&, std::size_t)> run;
  };
  const std::vector<NamedAnalyzer> analyzers{
      {"traffic_stats",
       [](const analysis::LogSource& src, std::size_t threads) {
         benchmark::DoNotOptimize(analysis::traffic_stats(src, threads)
                                      .total);
       }},
      {"user_stats",
       [](const analysis::LogSource& src, std::size_t threads) {
         benchmark::DoNotOptimize(analysis::user_stats(src, threads)
                                      .total_users);
       }},
      {"https_stats",
       [](const analysis::LogSource& src, std::size_t threads) {
         benchmark::DoNotOptimize(analysis::https_stats(src, threads).total);
       }},
      {"agent_stats",
       [](const analysis::LogSource& src, std::size_t threads) {
         benchmark::DoNotOptimize(analysis::agent_stats(src, 10, threads)
                                      .size());
       }},
      {"port_distribution",
       [](const analysis::LogSource& src, std::size_t threads) {
         benchmark::DoNotOptimize(analysis::port_distribution(src, 0,
                                                              threads)
                                      .size());
       }},
  };

  TextTable table{{"Analyzer", "Bridge (to_dataset, 1T)", "Container 1T",
                   "Container 8T", "Speedup @8T"}};
  for (const auto& analyzer : analyzers) {
    const double bridge = seconds_of([&] {
      const auto bridged =
          analysis::to_dataset_compat(colfmt::Reader::open(fx.col_path));
      analyzer.run(analysis::LogSource{bridged}, 1);
    });
    const double col1 = seconds_of(
        [&] { analyzer.run(analysis::LogSource{*fx.columnar}, 1); });
    const double col8 = seconds_of(
        [&] { analyzer.run(analysis::LogSource{*fx.columnar}, 8); });
    char bridge_text[32], col1_text[32], col8_text[32], speedup[32];
    std::snprintf(bridge_text, sizeof bridge_text, "%.1f ms", bridge * 1e3);
    std::snprintf(col1_text, sizeof col1_text, "%.1f ms", col1 * 1e3);
    std::snprintf(col8_text, sizeof col8_text, "%.1f ms", col8 * 1e3);
    std::snprintf(speedup, sizeof speedup, "%.1fx", bridge / col8);
    table.add_row({analyzer.name, bridge_text, col1_text, col8_text,
                   speedup});
  }
  print_block("Container-native scan vs retired bridge path (" +
                  with_commas(fx.rows) + " records)",
              table);
}

}  // namespace

SYRBENCH_MAIN(print_reproduction)
