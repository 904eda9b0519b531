// Per-proxy coverage: the sparse bin scan against a dense reference over
// real scenario logs, and bounded memory on a log whose time span is
// absurd (one garbled far-future timestamp).

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <map>
#include <vector>

#include "analysis/coverage.h"
#include "analysis/dataset.h"
#include "proxy/log_record.h"
#include "util/simtime.h"
#include "workload/scenario.h"

namespace {

using namespace syrwatch;
using Counts = std::array<std::uint64_t, policy::kProxyCount>;

/// The coverage rule written the obvious way: one dense array entry per
/// bin from the first record's midnight to the last record.
analysis::CoverageReport dense_coverage(
    const std::vector<proxy::LogRecord>& records, std::int64_t bin_seconds,
    std::uint64_t floor) {
  analysis::CoverageReport report;
  report.bin_seconds = bin_seconds;
  if (records.empty()) return report;
  std::int64_t first = records.front().time, last = first;
  for (const auto& r : records) {
    first = std::min(first, r.time);
    last = std::max(last, r.time);
  }
  const std::int64_t origin = first - first % util::kSecondsPerDay;
  std::vector<Counts> bins(
      static_cast<std::size_t>((last - origin) / bin_seconds + 1));
  std::map<std::int64_t, Counts> days;
  for (const auto& r : records) {
    ++bins[static_cast<std::size_t>((r.time - origin) / bin_seconds)]
          [r.proxy_index];
    ++days[r.time - r.time % util::kSecondsPerDay][r.proxy_index];
    ++report.totals[r.proxy_index];
    ++report.total_requests;
  }
  for (const auto& [day, counts] : days) report.days.push_back({day, counts});
  std::array<bool, policy::kProxyCount> in_gap{};
  std::array<analysis::CoverageGap, policy::kProxyCount> open{};
  for (std::size_t b = 0; b < bins.size(); ++b) {
    std::uint64_t farm = 0;
    for (const auto count : bins[b]) farm += count;
    const bool active = farm >= floor;
    if (active) ++report.active_bins;
    const std::int64_t start =
        origin + static_cast<std::int64_t>(b) * bin_seconds;
    for (std::size_t p = 0; p < policy::kProxyCount; ++p) {
      if (active && bins[b][p] > 0) ++report.covered_bins[p];
      if (active && bins[b][p] == 0) {
        if (!in_gap[p]) {
          in_gap[p] = true;
          open[p] = {static_cast<std::uint8_t>(p), start, 0, 0};
        }
        open[p].end = start + bin_seconds;
        open[p].farm_requests += farm;
      } else if (in_gap[p] && active) {
        in_gap[p] = false;
        report.gaps.push_back(open[p]);
      }
    }
  }
  for (std::size_t p = 0; p < policy::kProxyCount; ++p)
    if (in_gap[p]) report.gaps.push_back(open[p]);
  std::sort(report.gaps.begin(), report.gaps.end(),
            [](const auto& a, const auto& b) {
              return a.proxy_index != b.proxy_index
                         ? a.proxy_index < b.proxy_index
                         : a.start < b.start;
            });
  return report;
}

void expect_same(const analysis::CoverageReport& got,
                 const analysis::CoverageReport& want) {
  EXPECT_EQ(got.bin_seconds, want.bin_seconds);
  EXPECT_EQ(got.totals, want.totals);
  EXPECT_EQ(got.total_requests, want.total_requests);
  EXPECT_EQ(got.active_bins, want.active_bins);
  EXPECT_EQ(got.covered_bins, want.covered_bins);
  ASSERT_EQ(got.days.size(), want.days.size());
  for (std::size_t i = 0; i < got.days.size(); ++i) {
    EXPECT_EQ(got.days[i].day_start, want.days[i].day_start);
    EXPECT_EQ(got.days[i].requests, want.days[i].requests);
  }
  ASSERT_EQ(got.gaps.size(), want.gaps.size());
  for (std::size_t i = 0; i < got.gaps.size(); ++i) {
    EXPECT_EQ(got.gaps[i].proxy_index, want.gaps[i].proxy_index) << i;
    EXPECT_EQ(got.gaps[i].start, want.gaps[i].start) << i;
    EXPECT_EQ(got.gaps[i].end, want.gaps[i].end) << i;
    EXPECT_EQ(got.gaps[i].farm_requests, want.gaps[i].farm_requests) << i;
  }
}

std::vector<proxy::LogRecord> scenario_log(const char* profile) {
  workload::ScenarioConfig config;
  config.total_requests = 40'000;
  config.user_population = 3'000;
  config.catalog_tail = 2'000;
  config.torrent_contents = 300;
  config.fault_profile = profile;
  workload::SyriaScenario scenario{config};
  std::vector<proxy::LogRecord> records;
  scenario.run([&](const proxy::LogRecord& r) { records.push_back(r); });
  return records;
}

TEST(Coverage, SparseScanMatchesDenseReference) {
  for (const char* profile : {"none", "sg47-outage", "sg44-flapping"}) {
    auto records = scenario_log(profile);
    // Drop a whole day in the middle: a stretch of empty bins that a
    // zero floor counts as active holes for every proxy.
    const std::int64_t drop = util::to_unix_seconds({2011, 8, 2, 0, 0, 0});
    std::erase_if(records, [&](const proxy::LogRecord& r) {
      return r.time >= drop && r.time < drop + util::kSecondsPerDay;
    });
    analysis::Dataset dataset;
    for (const auto& r : records) dataset.add(r);
    dataset.finalize();
    for (const std::int64_t bin : {std::int64_t{600}, std::int64_t{3600}}) {
      for (const std::uint64_t floor : {0, 1, 25}) {
        SCOPED_TRACE(std::string(profile) + " bin " + std::to_string(bin) +
                     " floor " + std::to_string(floor));
        const auto want = dense_coverage(records, bin, floor);
        for (const std::size_t threads : {1, 4}) {
          expect_same(
              analysis::request_coverage(
                  dataset, {.bin = {bin}, .min_farm_bin_requests = floor},
                  threads),
              want);
        }
      }
    }
  }
}

std::uint64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

TEST(Coverage, FarFutureTimestampRunsInBoundedMemory) {
  // A flipped digit turns 2011 into 9011: about 61M hourly bins between
  // the first and the last record.
  const std::int64_t origin = util::to_unix_seconds({2011, 8, 3, 0, 0, 0});
  const std::int64_t far = util::to_unix_seconds({9011, 8, 3, 10, 0, 0});
  analysis::Dataset dataset;
  for (int hour = 0; hour < 3; ++hour) {
    for (std::uint8_t proxy = 0; proxy < 2; ++proxy) {
      for (int k = 0; k < 30; ++k) {
        proxy::LogRecord record;
        record.time = origin + hour * 3600 + k;
        record.proxy_index = proxy;
        dataset.add(record);
      }
    }
  }
  proxy::LogRecord garbled;
  garbled.time = far;
  garbled.proxy_index = 3;
  dataset.add(garbled);
  dataset.finalize();

  const std::uint64_t before = peak_rss_kb();
  for (const std::size_t threads : {1, 4}) {
    const auto report = analysis::request_coverage(
        dataset, {.bin = {3600}, .min_farm_bin_requests = 25}, threads);
    EXPECT_EQ(report.total_requests, 181u);
    EXPECT_EQ(report.totals[3], 1u);
    ASSERT_EQ(report.days.size(), 2u);
    EXPECT_EQ(report.days[1].day_start,
              util::to_unix_seconds({9011, 8, 3, 0, 0, 0}));
    // Only the three 2011 hours clear the floor; proxies 2-6 miss them.
    EXPECT_EQ(report.active_bins, 3u);
    EXPECT_EQ(report.gaps.size(), 5u);
    for (const auto& gap : report.gaps) {
      EXPECT_EQ(gap.start, origin);
      EXPECT_EQ(gap.end, origin + 3 * 3600);
    }

    // A zero floor makes every empty hour active: the run of empty bins
    // up to 9011 is counted, not walked.
    const auto zero = analysis::request_coverage(
        dataset, {.bin = {3600}, .min_farm_bin_requests = 0}, threads);
    const auto hours = static_cast<std::uint64_t>((far - origin) / 3600 + 1);
    EXPECT_EQ(zero.active_bins, hours);
    EXPECT_EQ(zero.covered_bins[0], 3u);
    EXPECT_EQ(zero.covered_bins[3], 1u);
    ASSERT_EQ(zero.gaps.size(), 7u);
    EXPECT_EQ(zero.gaps[0].start, origin + 3 * 3600);  // SG-42 after 2011
    EXPECT_EQ(zero.gaps[0].end, far - far % 3600 + 3600);
    EXPECT_EQ(zero.gaps[3].end, far - far % 3600);  // SG-45 logs the last
  }
  // The dense layout would have asked for gigabytes.
  EXPECT_LT(peak_rss_kb() - before, 64u * 1024u);
}

}  // namespace
