#include "analysis/coverage.h"

#include <algorithm>
#include <map>

#include "util/simtime.h"

namespace syrwatch::analysis {

namespace {

CoverageReport coverage_core(const LogSource& source, std::int64_t bin_seconds,
                             std::uint64_t min_farm_bin_requests,
                             bool truncated_tail, std::size_t threads) {
  CoverageReport report;
  report.bin_seconds = bin_seconds;
  report.truncated_tail = truncated_tail;
  if (source.rows() == 0) return report;

  // The observation window is the source's true time bounds (the scan
  // layer computes them even for emission-order containers, which are
  // only approximately time-sorted). Bins are anchored at the earliest
  // record's midnight so bin and day boundaries line up; every tally
  // below is order-independent, so any row order bins identically. Only
  // occupied bins are stored: one garbled far-future timestamp in a
  // damaged log must not size an array by the window's length.
  using Counts = std::array<std::uint64_t, policy::kProxyCount>;
  const std::int64_t first = source.time_bounds(threads).first;
  const std::int64_t origin = first - (first % util::kSecondsPerDay);

  struct Partial {
    std::map<std::int64_t, Counts> bins;  // bin index → per-proxy counts
    std::map<std::int64_t, Counts> days;
    Counts totals{};
    std::uint64_t total_requests = 0;
    // The last bin and day touched: rows arrive in (near) time order, so
    // most rows skip the map lookup.
    std::int64_t last_bin = -1, last_day = -1;
    Counts* bin_counts = nullptr;
    Counts* day_counts = nullptr;
  };
  const auto partials = scan_partials<Partial>(
      source, threads, [&](Partial& p, const Record& r) {
        const std::int64_t bin = (r.time - origin) / bin_seconds;
        if (p.bin_counts == nullptr || bin != p.last_bin) {
          p.bin_counts = &p.bins[bin];
          p.last_bin = bin;
        }
        ++(*p.bin_counts)[r.proxy_index];
        const std::int64_t day_start =
            r.time - (r.time % util::kSecondsPerDay);
        if (p.day_counts == nullptr || day_start != p.last_day) {
          p.day_counts = &p.days[day_start];
          p.last_day = day_start;
        }
        ++(*p.day_counts)[r.proxy_index];
        ++p.totals[r.proxy_index];
        ++p.total_requests;
      });

  std::map<std::int64_t, Counts> bins;
  std::map<std::int64_t, Counts> days;
  const auto fold = [](std::map<std::int64_t, Counts>& into,
                       const std::map<std::int64_t, Counts>& from) {
    for (const auto& [key, counts] : from) {
      Counts& merged = into[key];
      for (std::size_t proxy = 0; proxy < policy::kProxyCount; ++proxy)
        merged[proxy] += counts[proxy];
    }
  };
  for (const Partial& p : partials) {
    fold(bins, p.bins);
    fold(days, p.days);
    for (std::size_t proxy = 0; proxy < policy::kProxyCount; ++proxy)
      report.totals[proxy] += p.totals[proxy];
    report.total_requests += p.total_requests;
  }
  report.days.reserve(days.size());
  for (const auto& [day_start, counts] : days)
    report.days.push_back({day_start, counts});

  // Gap scan: per proxy, merge consecutive farm-active bins it missed.
  std::array<bool, policy::kProxyCount> in_gap{};
  std::array<CoverageGap, policy::kProxyCount> open{};
  const auto bin_start = [&](std::int64_t b) {
    return origin + b * bin_seconds;
  };
  // The empty bins [from, to) between two occupied ones. An empty bin is
  // farm-active only under a zero floor, and then it is a hole for every
  // proxy; an inactive one leaves every gap as it is.
  const auto empty_stretch = [&](std::int64_t from, std::int64_t to) {
    if (from >= to || min_farm_bin_requests > 0) return;
    report.active_bins += static_cast<std::uint64_t>(to - from);
    for (std::size_t p = 0; p < policy::kProxyCount; ++p) {
      if (!in_gap[p]) {
        in_gap[p] = true;
        open[p] = {static_cast<std::uint8_t>(p), bin_start(from), 0, 0};
      }
      open[p].end = bin_start(to);
    }
  };
  std::int64_t next = 0;  // first bin not yet scanned
  for (const auto& [b, counts] : bins) {
    empty_stretch(next, b);
    next = b + 1;
    std::uint64_t farm_total = 0;
    for (const std::uint64_t count : counts) farm_total += count;
    const bool active = farm_total >= min_farm_bin_requests;
    if (active) ++report.active_bins;
    for (std::size_t p = 0; p < policy::kProxyCount; ++p) {
      if (active && counts[p] > 0) ++report.covered_bins[p];
      const bool hole = active && counts[p] == 0;
      if (hole) {
        if (!in_gap[p]) {
          in_gap[p] = true;
          open[p] = {static_cast<std::uint8_t>(p), bin_start(b), 0, 0};
        }
        open[p].end = bin_start(b) + bin_seconds;
        open[p].farm_requests += farm_total;
      } else if (in_gap[p] && active) {
        // Only a bin the proxy demonstrably served closes its gap;
        // inactive bins (nothing to miss) leave the gap open.
        in_gap[p] = false;
        report.gaps.push_back(open[p]);
      }
    }
  }
  for (std::size_t p = 0; p < policy::kProxyCount; ++p) {
    if (in_gap[p]) report.gaps.push_back(open[p]);
  }
  std::sort(report.gaps.begin(), report.gaps.end(),
            [](const CoverageGap& a, const CoverageGap& b) {
              if (a.proxy_index != b.proxy_index)
                return a.proxy_index < b.proxy_index;
              return a.start < b.start;
            });
  return report;
}

}  // namespace

CoverageReport request_coverage(const LogSource& source,
                                const CoverageOptions& options,
                                std::size_t threads) {
  const bool torn =
      (options.read_stats != nullptr && options.read_stats->truncated_tail) ||
      (options.recovery != nullptr && options.recovery->truncated_tail);
  return coverage_core(source, options.bin.seconds,
                       options.min_farm_bin_requests, torn, threads);
}

}  // namespace syrwatch::analysis
