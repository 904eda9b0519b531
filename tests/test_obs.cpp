// Observability layer: registry semantics, concurrent accumulation, stage
// timers, JSON export, and the non-perturbation contract — an attached
// registry never changes the generated log (DESIGN.md §4.7).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/report.h"
#include "core/study.h"
#include "obs/context.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proxy/log_io.h"
#include "util/parallel.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;

TEST(MetricsRegistry, NamesResolveToStableInstruments) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("alpha");
  obs::Counter& b = registry.counter("beta");
  EXPECT_NE(&a, &b);
  a.add(3);
  // Re-registering other names must not move existing instruments
  // (node-based storage — the attach-once contract of the hot paths).
  for (int i = 0; i < 100; ++i)
    registry.counter("filler." + std::to_string(i));
  EXPECT_EQ(&registry.counter("alpha"), &a);
  EXPECT_EQ(a.value(), 3u);

  registry.gauge("g").set(2.5);
  EXPECT_EQ(registry.gauge("g").value(), 2.5);
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
  obs::MetricsRegistry registry;
  registry.counter("zeta").add(1);
  registry.counter("alpha").add(2);
  registry.counter("mid").add(3);
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "alpha");
  EXPECT_EQ(snapshot.counters[1].name, "mid");
  EXPECT_EQ(snapshot.counters[2].name, "zeta");
  EXPECT_EQ(snapshot.counters[2].value, 1u);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExact) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("shared");
  obs::StageStats& stage = registry.stage("stage");
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 10'000;
  util::parallel_for(kTasks, 8, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) counter.add();
    stage.record(100);
    stage.record(50);
  });
  EXPECT_EQ(counter.value(), kTasks * kPerTask);
  EXPECT_EQ(stage.count(), 2 * kTasks);
  EXPECT_EQ(stage.total_nanos(), kTasks * 150u);
  EXPECT_EQ(stage.min_nanos(), 50u);
  EXPECT_EQ(stage.max_nanos(), 100u);
}

TEST(NullContext, HelpersAreNoOps) {
  EXPECT_EQ(obs::counter(nullptr, "x"), nullptr);
  EXPECT_EQ(obs::gauge(nullptr, "x"), nullptr);
  EXPECT_EQ(obs::stage(nullptr, "x"), nullptr);
  obs::add(nullptr);  // must not crash
  const obs::StageTimer timer{nullptr};
  obs::Span span{nullptr, "x"};
  span.stop();
}

TEST(StageTimer, RecordsOnceAndTracksExtrema) {
  obs::MetricsRegistry registry;
  obs::StageStats& stage = registry.stage("timed");
  {
    obs::StageTimer timer{&stage};
    timer.stop();
    timer.stop();  // second stop must not double-record
  }                // destructor after stop() must not record either
  EXPECT_EQ(stage.count(), 1u);
  EXPECT_LE(stage.min_nanos(), stage.max_nanos());

  EXPECT_EQ(registry.stage("untouched").min_nanos(), 0u);
}

TEST(Export, JsonCarriesSchemaCountersAndPhases) {
  obs::MetricsRegistry registry;
  registry.counter("proxy.requests").add(42);
  registry.gauge("scenario.threads").set(3.0);
  registry.stage("merge").record(2'000'000);
  const std::vector<obs::PhaseTiming> phases{{"simulate", 1.5, 42},
                                             {"build_datasets", 0.5, 42}};
  const std::string json =
      obs::to_json(registry.snapshot(), "test-run", phases, 2.0);
  for (const char* needle :
       {"\"schema\": \"syrwatch.metrics.v1\"", "\"command\": \"test-run\"",
        "\"proxy.requests\": 42", "\"scenario.threads\": 3",
        "\"merge\"", "\"count\": 1", "\"phases\"", "\"simulate\"",
        "\"items\": 42", "\"total_seconds\": 2"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }

  const std::string text = obs::render_text(registry.snapshot(), phases, 2.0);
  EXPECT_NE(text.find("Run phases"), std::string::npos);
  EXPECT_NE(text.find("Stage wall-time breakdown"), std::string::npos);
  EXPECT_NE(text.find("proxy.requests"), std::string::npos);
}

workload::ScenarioConfig obs_config(std::size_t threads) {
  workload::ScenarioConfig config;
  config.total_requests = 60'000;
  config.user_population = 3'000;
  config.catalog_tail = 2'000;
  config.torrent_contents = 300;
  config.threads = threads;
  return config;
}

std::vector<std::string> run_log(std::size_t threads, bool attach) {
  obs::MetricsRegistry registry;
  obs::Context context{&registry};
  workload::SyriaScenario scenario{obs_config(threads)};
  if (attach) scenario.set_obs(&context);
  std::vector<std::string> lines;
  scenario.run([&](const proxy::LogRecord& record) {
    lines.push_back(proxy::to_csv(record));
  });
  return lines;
}

TEST(Determinism, AttachedRegistryNeverChangesTheLog) {
  const auto baseline = run_log(1, /*attach=*/false);
  ASSERT_FALSE(baseline.empty());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
    EXPECT_EQ(run_log(threads, /*attach=*/true), baseline)
        << "threads=" << threads;
    EXPECT_EQ(run_log(threads, /*attach=*/false), baseline)
        << "threads=" << threads;
  }
}

TEST(Determinism, InstrumentedStudyRendersIdenticalReport) {
  core::Study plain{obs_config(2)};
  plain.run();
  const auto plain_report = core::render_overview(plain);

  obs::MetricsRegistry registry;
  obs::Context context{&registry};
  core::Study instrumented{obs_config(3)};
  instrumented.set_obs(&context);
  instrumented.run();
  EXPECT_EQ(core::render_overview(instrumented), plain_report);
}

TEST(Counters, PipelineRelationsHold) {
  obs::MetricsRegistry registry;
  obs::Context context{&registry};
  core::Study study{obs_config(4)};
  study.set_obs(&context);
  const auto result = study.run();

  const auto snapshot = registry.snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& entry : snapshot.counters) {
      if (entry.name == name) return entry.value;
    }
    return 0;
  };
  const std::uint64_t requests = counter("proxy.requests");
  EXPECT_GT(requests, 0u);
  // Every generated request is routed exactly once and processed exactly
  // once; the leak filter only trims what reaches the sink afterwards.
  EXPECT_EQ(counter("farm.route.calls"), requests);
  EXPECT_EQ(counter("scenario.generated"), requests);
  // process() checks the cache exactly once per request, and every miss
  // ends in exactly one of: policy verdict, unreachable destination, or an
  // error-model draw (which either fails or serves).
  EXPECT_EQ(counter("proxy.cache.hit") + counter("proxy.cache.miss"),
            requests);
  EXPECT_EQ(counter("proxy.cache.miss"),
            counter("proxy.policy.denied") +
                counter("proxy.policy.redirect") +
                counter("proxy.error.dest_unreachable") +
                counter("proxy.error.draws"));
  EXPECT_EQ(counter("proxy.error.draws"),
            counter("proxy.error.failures") + counter("proxy.served"));
  // July days keep only SG-42's slice, so the emitted log is smaller.
  EXPECT_EQ(counter("scenario.emitted"), result.metrics.log_records);
  EXPECT_LT(counter("scenario.emitted"), counter("scenario.generated"));
  // A healthy run must not report failovers.
  EXPECT_EQ(counter("farm.route.failover"), 0u);

  // Stage timers saw every shard and batch.
  const auto stage_count = [&](const std::string& name) -> std::uint64_t {
    for (const auto& entry : snapshot.stages) {
      if (entry.name == name) return entry.count;
    }
    return 0;
  };
  EXPECT_GT(stage_count("scenario.generate_shard"), 0u);
  EXPECT_GT(stage_count("scenario.process_proxy_batch"), 0u);
  EXPECT_GT(stage_count("scenario.merge"), 0u);
  // The sink runs once per batch inside the merge stage's span.
  EXPECT_EQ(stage_count("scenario.sink"), stage_count("scenario.merge"));
  const auto stage_nanos = [&](const std::string& name) -> std::uint64_t {
    for (const auto& entry : snapshot.stages) {
      if (entry.name == name) return entry.total_nanos;
    }
    return 0;
  };
  EXPECT_LE(stage_nanos("scenario.sink"), stage_nanos("scenario.merge"));
  EXPECT_EQ(stage_count("study.build_datasets"), 1u);
}

}  // namespace
