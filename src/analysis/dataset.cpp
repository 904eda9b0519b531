#include "analysis/dataset.h"

#include <algorithm>

#include "net/domain.h"
#include "net/ipv4.h"

namespace syrwatch::analysis {

Dataset::Dataset() : pool_(std::make_unique<util::StringPool>()) {}

void Dataset::add(const proxy::LogRecord& record) {
  add(proxy::RecordView{record});
}

void Dataset::add(const proxy::RecordView& record) {
  // Interning order fixes the pool ids, and with them every id-order
  // tie-break downstream: host, its registrable domain, path, query,
  // agent, categories, method.
  Row row;
  row.time = record.time;
  row.user_hash = record.user_hash;
  row.host = pool_->intern(record.host);
  resolve_host(row.host);
  row.path = pool_->intern(record.path);
  row.query = pool_->intern(record.query);
  row.agent = pool_->intern(record.user_agent);
  row.categories = pool_->intern(record.categories);
  row.method = pool_->intern(record.method);
  if (record.dest_ip) {
    row.dest_ip = record.dest_ip->value();
    row.has_dest_ip = true;
  }
  row.port = record.port;
  row.status = record.status;
  row.proxy_index = record.proxy_index;
  row.scheme = record.scheme;
  row.result = record.filter_result;
  row.exception = record.exception;
  if (rows_.empty() || row.time < first_time_) first_time_ = row.time;
  if (rows_.empty() || row.time > last_time_) last_time_ = row.time;
  rows_.push_back(row);
}

void Dataset::resolve_host(util::StringPool::Id host) {
  if (host < domain_.size() && domain_[host] != util::StringPool::kNotFound)
    return;
  const std::string_view text = pool_->view(host);
  const util::StringPool::Id domain =
      pool_->intern(net::registrable_domain(text));
  // Interning the domain may have minted an id past `host` too; size the
  // tables to the whole pool so every later lookup stays in range.
  domain_.resize(pool_->size(), util::StringPool::kNotFound);
  ip_.resize(pool_->size(), 0);
  is_ip_.resize(pool_->size(), 0);
  domain_[host] = domain;
  if (const auto ip = net::Ipv4Addr::parse(text)) {
    ip_[host] = ip->value();
    is_ip_[host] = 1;
  }
}

std::string Dataset::filter_text(const Row& row) const {
  std::string text{host(row)};
  text += path(row);
  const auto q = query(row);
  if (!q.empty()) {
    text += '?';
    text += q;
  }
  return text;
}

void Dataset::finalize() {
  std::stable_sort(rows_.begin(), rows_.end(),
                   [](const Row& a, const Row& b) { return a.time < b.time; });
}

}  // namespace syrwatch::analysis
