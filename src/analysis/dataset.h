#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/url.h"
#include "proxy/log_io.h"
#include "proxy/log_record.h"
#include "util/string_pool.h"

namespace syrwatch::analysis {

/// One log record in columnar/interned form (~56 bytes). Host, path,
/// query, agent, category and method strings live in the dataset's
/// StringPool, so millions of records fit comfortably in memory.
struct Row {
  std::int64_t time = 0;
  std::uint64_t user_hash = 0;
  util::StringPool::Id host = util::StringPool::kEmpty;
  util::StringPool::Id path = util::StringPool::kEmpty;
  util::StringPool::Id query = util::StringPool::kEmpty;
  util::StringPool::Id agent = util::StringPool::kEmpty;
  util::StringPool::Id categories = util::StringPool::kEmpty;
  util::StringPool::Id method = util::StringPool::kEmpty;
  std::uint32_t dest_ip = 0;
  std::uint16_t port = 0;
  std::uint16_t status = 0;
  std::uint8_t proxy_index = 0;
  net::Scheme scheme = net::Scheme::kHttp;
  proxy::FilterResult result = proxy::FilterResult::kObserved;
  proxy::ExceptionId exception = proxy::ExceptionId::kNone;
  bool has_dest_ip = false;
};

/// The in-memory record store: interned rows plus the per-host values the
/// analyzers derive (registrable domain, IPv4 parse), resolved eagerly at
/// add() for every pool id first seen as a host. Nothing is filled lazily,
/// so once the adds are done any number of threads may read it.
///
/// A finalized Dataset is Dfull, sorted by time (the paper's datasets,
/// Table 1, are mask views of it: see DatasetBundle in scan.h). A
/// never-finalized one is the arrival-order store a spool tail appends
/// into (analysis::StreamSource, DESIGN.md §4.12); its rows keep WAL
/// order, so incremental ordinals stay stable across polls. add() and
/// scans must not overlap.
class Dataset {
 public:
  Dataset();

  void add(const proxy::LogRecord& record);
  /// Interns straight from a decoded CSV line; no owned copy is made.
  void add(const proxy::RecordView& record);

  /// Stable-sorts rows by time. Call once after the last add().
  void finalize();

  std::size_t size() const noexcept { return rows_.size(); }
  const std::vector<Row>& rows() const noexcept { return rows_; }

  std::string_view view(util::StringPool::Id id) const {
    return pool_->view(id);
  }
  std::string_view host(const Row& row) const { return view(row.host); }
  std::string_view path(const Row& row) const { return view(row.path); }
  std::string_view query(const Row& row) const { return view(row.query); }

  /// Registrable domain of the row's host (eTLD+1).
  std::string_view domain(const Row& row) const {
    return view(domain_[row.host]);
  }
  /// Dotted-quad parse of the row's host, when it is one. The columnar
  /// backend resolves the identical values per dictionary id, so the scan
  /// layer sees one surface.
  bool host_is_ip(const Row& row) const noexcept {
    return is_ip_[row.host] != 0;
  }
  std::uint32_t host_ip(const Row& row) const noexcept {
    return ip_[row.host];
  }

  /// host + path + "?query" — the text the keyword filter scanned.
  std::string filter_text(const Row& row) const;

  /// Min/max timestamps over every row added so far, in any order.
  /// Meaningless while empty.
  std::int64_t first_time() const noexcept { return first_time_; }
  std::int64_t last_time() const noexcept { return last_time_; }

 private:
  void resolve_host(util::StringPool::Id host);

  std::unique_ptr<util::StringPool> pool_;
  std::vector<Row> rows_;
  // Indexed by pool id, filled only at ids first seen as a host
  // (StringPool::kNotFound / 0 elsewhere).
  std::vector<util::StringPool::Id> domain_;
  std::vector<std::uint32_t> ip_;
  std::vector<std::uint8_t> is_ip_;
  std::int64_t first_time_ = 0;
  std::int64_t last_time_ = 0;
};

}  // namespace syrwatch::analysis
