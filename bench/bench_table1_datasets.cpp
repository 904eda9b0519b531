// Table 1: dataset sizes and periods (Dfull / Dsample / Duser / Ddenied).

#include "analysis/scan.h"
#include "bench_common.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

void print_reproduction() {
  print_banner("Table 1 — Datasets description",
               "Full 751,295,830 | Sample 32,310,958 (4%) | "
               "User 6,374,333 | Denied 47,452,194");

  const auto& bundle = default_study().datasets();
  const double full = static_cast<double>(bundle.full.size());

  TextTable table{{"Dataset", "# Requests", "% of Dfull", "Paper %"}};
  table.add_row({"Full", with_commas(bundle.full.size()), "100.00%",
                 "100.00%"});
  table.add_row({"Sample (4%)", with_commas(bundle.sample.rows()),
                 percent(bundle.sample.rows() / full), "4.30%"});
  table.add_row({"User", with_commas(bundle.user.rows()),
                 percent(bundle.user.rows() / full), "0.85%"});
  table.add_row({"Denied", with_commas(bundle.denied.rows()),
                 percent(bundle.denied.rows() / full), "6.32%"});
  print_block("Datasets (Table 1) — scale ~1:600", table);
}

// The one Table 1 derivation (the path Study and `syrwatchctl report`
// share): Dsample, Duser and Ddenied as mask views of Dfull.
void BM_DeriveDatasets(benchmark::State& state) {
  const auto& bundle = default_study().datasets();
  for (auto _ : state) {
    const analysis::LogSource full{bundle.full};
    benchmark::DoNotOptimize(analysis::sample_view(full, 7).rows());
    benchmark::DoNotOptimize(analysis::user_view(full).rows());
    benchmark::DoNotOptimize(analysis::denied_view(full).rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bundle.full.size()));
}
BENCHMARK(BM_DeriveDatasets)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
