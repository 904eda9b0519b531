#include "analysis/string_discovery.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>

#include "net/ipv4.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace syrwatch::analysis {

namespace {

constexpr std::size_t kMinTokenLength = 5;
/// Censored rows a token must reach inside paths/queries to be a keyword
/// candidate (host-only strings are the domain generator's business).
constexpr std::uint64_t kMinPathQueryRows = 3;

bool all_digits(std::string_view s) noexcept {
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return !s.empty();
}

/// Splits a URL-ish text into lower-case alphanumeric tokens.
template <typename Fn>
void for_each_token(std::string_view text, Fn&& fn) {
  std::size_t start = 0;
  auto is_word = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  while (start < text.size()) {
    while (start < text.size() && !is_word(text[start])) ++start;
    std::size_t end = start;
    while (end < text.size() && is_word(text[end])) ++end;
    if (end > start) fn(text.substr(start, end - start));
    start = end;
  }
}

/// Record::filter_text() lower-cased, appended to `out` without temporaries.
void append_filter_text_lower(std::string& out, const Record& r) {
  util::append_lower(out, r.host);
  util::append_lower(out, r.path);
  if (!r.query.empty()) {
    out += '?';
    util::append_lower(out, r.query);
  }
}

/// Dense ids for the distinct strings of the censored set; the views point
/// into rows that outlive the loop.
class Interner {
 public:
  std::uint32_t intern(std::string_view text) {
    const auto [it, fresh] =
        ids_.try_emplace(text, static_cast<std::uint32_t>(texts_.size()));
    if (fresh) texts_.push_back(text);
    return it->second;
  }
  std::string_view text(std::uint32_t id) const { return texts_[id]; }
  std::size_t size() const noexcept { return texts_.size(); }

 private:
  std::unordered_map<std::string_view, std::uint32_t> ids_;
  std::vector<std::string_view> texts_;
};

/// A distinct eligible token of one censored row.
struct RowToken {
  std::uint32_t id = 0;
  bool in_path_query = false;  // also occurs in the path/query
};

struct CensoredRow {
  std::string filter_text;    // lower-cased host+path?query
  std::size_t host_size = 0;  // filter_text's host prefix
  std::string_view domain;    // registrable (the backend's, lower-case)
  std::uint32_t domain_id = 0;
  std::vector<RowToken> tokens;
  bool anchor = false;  // bare-domain request (paper's §5.4 rule)
  bool alive = true;

  std::string_view host() const {
    return std::string_view{filter_text}.substr(0, host_size);
  }
  std::string_view path_query() const {
    return std::string_view{filter_text}.substr(host_size);
  }
};

/// A loop candidate. The argmax is explicit so the pick never depends on
/// hash-table order: higher count first; on equal count a domain beats a
/// token; then lower text first.
struct Candidate {
  std::uint64_t count = 0;
  bool is_domain = false;
  std::uint32_t id = 0;  // domain or token id
  std::string_view text;

  bool beats(const Candidate& other) const {
    if (count != other.count) return count > other.count;
    if (is_domain != other.is_domain) return is_domain;
    return text < other.text;
  }
};

}  // namespace

std::vector<std::string> DiscoveryResult::domain_names() const {
  std::vector<std::string> names;
  names.reserve(domains.size());
  for (const auto& d : domains) names.push_back(d.text);
  return names;
}

DiscoveryResult discover_censored_strings(const LogSource& source,
                                          const DiscoveryOptions& options,
                                          std::size_t threads) {
  DiscoveryResult result;

  // ---- Materialize the censored set C and what the loop asks of A -------
  // The loop asks the allowed set A exactly three things: is a domain
  // never allowed, is a host never allowed, and is a token a substring of
  // some lower-cased allowed filter text. So an allowed row costs one
  // append to the corpus and one host-id insert; a host is lower-cased
  // once per partition it occurs in, into the partition's host text. The
  // backend's registrable domain is already lower-case, since
  // net::registrable_domain lower-cases its input.
  struct AllowedHost {
    std::uint32_t id = 0;
    std::size_t offset = 0;  // lower-cased host in Partial::allowed_host_text
    std::size_t size = 0;
    std::string_view domain;
  };
  struct Partial {
    std::vector<CensoredRow> censored;
    std::unordered_set<std::uint32_t> allowed_host_ids;
    std::vector<AllowedHost> allowed_hosts;
    std::string allowed_host_text;
    std::string allowed_corpus;  // '\n'-joined, for exact substring checks
    std::vector<std::string> proxied_texts;
  };
  auto partials = scan_partials<Partial>(
      source, threads, [&](Partial& p, const Record& r) {
        if (r.cls == proxy::TrafficClass::kCensored) {
          // IP filtering is §5.4's separate analysis.
          if (net::looks_like_ipv4(r.host)) return;
          CensoredRow& cr = p.censored.emplace_back();
          append_filter_text_lower(cr.filter_text, r);
          cr.host_size = r.host.size();
          cr.domain = r.domain;
          cr.anchor = r.query.empty() && (r.path.empty() || r.path == "/");
        } else if (r.cls == proxy::TrafficClass::kAllowed) {
          if (p.allowed_host_ids.insert(r.host_id).second) {
            p.allowed_hosts.push_back({r.host_id, p.allowed_host_text.size(),
                                       r.host.size(), r.domain});
            util::append_lower(p.allowed_host_text, r.host);
          }
          append_filter_text_lower(p.allowed_corpus, r);
          p.allowed_corpus += '\n';
        } else if (r.cls == proxy::TrafficClass::kProxied) {
          append_filter_text_lower(p.proxied_texts.emplace_back(), r);
        }
      });

  // The fold moves C into one vector and indexes each distinct allowed
  // host id's host and domain by text (two ids may lower-case to the same
  // host); the partials stay alive as the storage those views and the
  // corpus live in.
  std::vector<CensoredRow> censored;
  std::vector<std::string> proxied_texts;
  std::vector<bool> host_seen;  // by host id
  std::unordered_set<std::string_view> allowed_hosts;
  std::unordered_set<std::string_view> allowed_domains;
  std::size_t host_refs = 0;
  for (const Partial& p : partials) host_refs += p.allowed_hosts.size();
  allowed_hosts.reserve(host_refs);
  allowed_domains.reserve(host_refs);
  for (Partial& p : partials) {
    censored.insert(censored.end(),
                    std::make_move_iterator(p.censored.begin()),
                    std::make_move_iterator(p.censored.end()));
    proxied_texts.insert(proxied_texts.end(),
                         std::make_move_iterator(p.proxied_texts.begin()),
                         std::make_move_iterator(p.proxied_texts.end()));
    const std::string_view host_text = p.allowed_host_text;
    for (const AllowedHost& h : p.allowed_hosts) {
      if (h.id >= host_seen.size()) host_seen.resize(h.id + 1);
      if (host_seen[h.id]) continue;
      host_seen[h.id] = true;
      allowed_hosts.insert(host_text.substr(h.offset, h.size));
      allowed_domains.insert(h.domain);
    }
  }

  // ---- Tokenize each censored row once ----------------------------------
  // `censored` no longer moves, so the interners may view into its rows.
  Interner domains;
  Interner tokens;
  for (CensoredRow& row : censored) {
    row.domain_id = domains.intern(row.domain);
    const std::string_view path_query = row.path_query();
    for_each_token(row.filter_text, [&](std::string_view token) {
      if (token.size() < kMinTokenLength || all_digits(token)) return;
      const std::uint32_t id = tokens.intern(token);
      const bool seen = std::any_of(  // count once per request
          row.tokens.begin(), row.tokens.end(),
          [&](const RowToken& t) { return t.id == id; });
      if (seen) return;
      row.tokens.push_back(
          {id, path_query.find(token) != std::string_view::npos});
    });
  }

  result.censored_requests_total = censored.size();
  const std::uint64_t threshold = std::max<std::uint64_t>(
      options.min_count,
      static_cast<std::uint64_t>(options.min_support *
                                 static_cast<double>(censored.size())));

  auto never_allowed_domain = [&](std::string_view domain) {
    return allowed_domains.count(domain) == 0;
  };
  auto never_allowed_host = [&](std::string_view host) {
    return allowed_hosts.count(host) == 0;
  };
  // Tokens never contain the '\n' that ends every allowed text, so
  // searching each partition's corpus equals searching their concatenation;
  // the partitions are searched in parallel.
  auto in_allowed = [&](std::string_view needle) {
    std::atomic<bool> found{false};
    util::parallel_for(partials.size(), threads, [&](std::size_t i) {
      const std::string& corpus = partials[i].allowed_corpus;
      if (!found && corpus.find(needle) != std::string::npos) found = true;
    });
    return found.load();
  };
  auto count_proxied = [&](std::string_view text, bool is_domain) {
    std::uint64_t count = 0;
    for (const std::string& pt : proxied_texts) {
      if (is_domain) {
        const std::string_view host =
            std::string_view{pt}.substr(0, pt.find('/'));
        if (util::host_matches_domain(host, text)) ++count;
      } else if (pt.find(text) != std::string::npos) {
        ++count;
      }
    }
    return count;
  };
  auto remove_by_domain = [&](std::string_view domain) {
    std::uint64_t removed = 0;
    for (CensoredRow& row : censored) {
      if (row.alive && util::host_matches_domain(row.host(), domain)) {
        row.alive = false;
        ++removed;
      }
    }
    return removed;
  };
  auto remove_by_keyword = [&](std::string_view keyword) {
    std::uint64_t removed = 0;
    for (CensoredRow& row : censored) {
      if (row.alive && row.filter_text.find(keyword) != std::string::npos) {
        row.alive = false;
        ++removed;
      }
    }
    return removed;
  };
  auto accept_domain = [&](std::string_view domain) {
    const std::uint64_t removed = remove_by_domain(domain);
    result.domains.push_back(
        {std::string{domain}, true, removed, count_proxied(domain, true)});
    result.censored_requests_explained += removed;
  };

  std::vector<std::uint8_t> rejected_domain(domains.size());
  std::vector<std::uint8_t> rejected_token(tokens.size());
  std::vector<std::uint8_t> anchored(domains.size());
  std::vector<std::uint64_t> domain_rows(domains.size());
  std::vector<std::uint64_t> token_rows(tokens.size());
  std::vector<std::uint64_t> token_path_query_rows(tokens.size());

  // ---- The iterative loop of §5.4 ---------------------------------------
  while (result.keywords.size() + result.domains.size() <
         options.max_strings) {
    // Candidate generation over the live rows.
    std::fill(anchored.begin(), anchored.end(), 0);
    std::fill(domain_rows.begin(), domain_rows.end(), 0);
    std::fill(token_rows.begin(), token_rows.end(), 0);
    std::fill(token_path_query_rows.begin(), token_path_query_rows.end(), 0);
    for (const CensoredRow& row : censored) {
      if (!row.alive) continue;
      if (row.anchor && rejected_domain[row.domain_id] == 0)
        anchored[row.domain_id] = 1;
      ++domain_rows[row.domain_id];
      for (const RowToken& t : row.tokens) {
        if (rejected_token[t.id] != 0) continue;
        ++token_rows[t.id];
        if (t.in_path_query) ++token_path_query_rows[t.id];
      }
    }

    // Pick the globally best candidate. An anchored domain's support is
    // all its live rows (the anchor only disambiguates, as in the paper);
    // tokens must occur in paths/queries, not only inside hostnames.
    Candidate best;
    auto consider = [&](const Candidate& candidate) {
      if (candidate.beats(best)) best = candidate;
    };
    for (std::uint32_t d = 0; d < domains.size(); ++d) {
      if (anchored[d] != 0)
        consider({domain_rows[d], true, d, domains.text(d)});
    }
    for (std::uint32_t t = 0; t < tokens.size(); ++t) {
      if (token_path_query_rows[t] >= kMinPathQueryRows)
        consider({token_rows[t], false, t, tokens.text(t)});
    }
    if (best.count == 0 || best.count < threshold) break;  // 0: none left

    if (best.is_domain) {
      if (!never_allowed_domain(best.text)) {
        rejected_domain[best.id] = 1;
        continue;
      }
      accept_domain(best.text);
      continue;
    }

    // Token candidate: the NA = 0 test against the allowed set.
    rejected_token[best.id] = 1;  // accepted or not, never a candidate again
    if (in_allowed(best.text)) continue;
    // Attribution: a token confined to a single never-allowed domain (or
    // host) is really URL filtering of that site, not keyword filtering.
    std::unordered_set<std::uint32_t> live_domains;
    std::unordered_set<std::string_view> live_hosts;
    for (const CensoredRow& row : censored) {
      if (row.alive && row.filter_text.find(best.text) != std::string::npos) {
        live_domains.insert(row.domain_id);
        live_hosts.insert(row.host());
      }
    }
    if (live_domains.size() == 1) {
      const std::string_view domain = domains.text(*live_domains.begin());
      std::string_view accepted;
      if (never_allowed_domain(domain)) accepted = domain;
      else if (live_hosts.size() == 1 &&
               never_allowed_host(*live_hosts.begin()))
        accepted = *live_hosts.begin();
      if (!accepted.empty()) {
        accept_domain(accepted);  // covers the token
        continue;
      }
    }
    const std::uint64_t removed = remove_by_keyword(best.text);
    result.keywords.push_back({std::string{best.text}, false, removed,
                               count_proxied(best.text, false)});
    result.censored_requests_explained += removed;
  }

  // ---- Collapse .il domains into the TLD entry (Table 8's ".il") --------
  std::vector<DiscoveredString> il_entries;
  auto it = std::stable_partition(
      result.domains.begin(), result.domains.end(),
      [](const DiscoveredString& d) { return !util::ends_with(d.text, ".il"); });
  il_entries.assign(it, result.domains.end());
  result.domains.erase(it, result.domains.end());
  if (il_entries.size() >= options.min_tld_domains) {
    DiscoveredString il{".il", true, 0, 0};
    for (const auto& entry : il_entries) {
      il.censored += entry.censored;
      il.proxied += entry.proxied;
    }
    result.domains.push_back(il);
  } else {
    result.domains.insert(result.domains.end(), il_entries.begin(),
                          il_entries.end());
  }

  // Stable: equal counts keep their acceptance order.
  auto by_censored = [](const DiscoveredString& a, const DiscoveredString& b) {
    return a.censored > b.censored;
  };
  std::stable_sort(result.domains.begin(), result.domains.end(), by_censored);
  std::stable_sort(result.keywords.begin(), result.keywords.end(),
                   by_censored);
  return result;
}

}  // namespace syrwatch::analysis
