#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/scan.h"
#include "analysis/top_domains.h"

namespace syrwatch::analysis {

/// Automated version of §5.4's iterative censored-string recovery.
///
/// The paper's loop: pick a string w frequent in the censored URL set C,
/// confirm it never occurs in the allowed set A (PROXIED held aside), then
/// remove every censored request containing w and repeat. We mechanize the
/// "manually identify" step with two candidate generators:
///  * keywords — tokens of censored URL paths/queries/hosts, split on URL
///    punctuation;
///  * domains — registrable domains of censored *anchor* requests (bare
///    domain, empty or "/" path, no query), which is exactly the paper's
///    conservative disambiguation rule; ".il" is emitted when several
///    distinct never-allowed .il domains exist.
struct DiscoveryOptions {
  /// Minimum censored occurrences before a candidate is considered, as a
  /// fraction of the censored set, with an absolute floor (`min_count`) —
  /// the "NC >> 1" condition of the paper's loop.
  double min_support = 1e-4;
  std::uint64_t min_count = 20;
  std::size_t max_strings = 256;
  /// Minimum distinct .il registrable domains to emit the ".il" TLD entry.
  std::size_t min_tld_domains = 3;
};

struct DiscoveredString {
  std::string text;
  bool is_domain = false;  // domains match hosts; keywords match URLs
  std::uint64_t censored = 0;  // NC at acceptance time (before removal)
  std::uint64_t proxied = 0;   // PROXIED requests matching the string
};

struct DiscoveryResult {
  std::vector<DiscoveredString> keywords;  // Table 10
  std::vector<DiscoveredString> domains;   // the 105-entry list, Tables 8/9
  std::uint64_t censored_requests_explained = 0;
  std::uint64_t censored_requests_total = 0;

  /// Domain names only, ranked by censored count (Table 8 / Table 9 input).
  std::vector<std::string> domain_names() const;
};

/// Cost scales with the censored set C, not the allowed set A. The loop
/// asks A only whether a domain or host was ever allowed and whether a
/// token occurs in some allowed URL, so the parallel scan reduces each
/// allowed row to a host id and its lower-cased URL in a substring corpus
/// (a host is lower-cased once per partition it occurs in). Censored rows
/// are tokenized once into dense ids; the §5.4 loop itself is sequential
/// (each accepted string reshapes the live set) and counts over those
/// ids. `threads` governs the scan and the corpus search. Ties between
/// candidates break explicitly (higher count, then domain before keyword,
/// then lower text), so the output never depends on hash-table order.
DiscoveryResult discover_censored_strings(const LogSource& source,
                                          const DiscoveryOptions& options = {},
                                          std::size_t threads = 1);

}  // namespace syrwatch::analysis
