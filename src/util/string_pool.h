#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace syrwatch::util {

/// Interning pool mapping strings to dense 32-bit ids.
///
/// The analysis datasets hold millions of log records whose host / path /
/// query / user-agent fields repeat heavily; interning turns each record
/// into a handful of integers. Id 0 is reserved for the empty string, so a
/// default-constructed id renders as "" (the logs' '-' placeholder). Ids
/// are dense and handed out in first-seen order.
class StringPool {
 public:
  using Id = std::uint32_t;
  static constexpr Id kEmpty = 0;

  StringPool();

  /// Returns the id for `s`, interning it on first sight.
  Id intern(std::string_view s);

  /// Returns the id if present, kEmpty's sentinel semantics do not apply —
  /// absent strings yield std::nullopt-like kNotFound.
  static constexpr Id kNotFound = ~Id{0};
  Id lookup(std::string_view s) const noexcept;

  /// The interned string; views stay valid for the pool's lifetime.
  std::string_view view(Id id) const {
    if (id >= views_.size()) throw std::out_of_range("StringPool::view");
    return views_[id];
  }

  std::size_t size() const noexcept { return views_.size(); }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    Id id = kNotFound;  // kNotFound marks an empty slot
  };

  std::size_t find_slot(std::string_view s, std::uint64_t hash) const noexcept;
  std::string_view store(std::string_view s);
  void grow();

  // views_[id] points into blocks_, whose bytes never move, so a view
  // stays valid however far the pool grows.
  std::vector<std::string_view> views_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  char* cursor_ = nullptr;
  std::size_t left_ = 0;
  // Open addressing with linear probing; the capacity is a power of two
  // and at least twice size(). Stored hashes make a probe compare bytes
  // only on a full 64-bit match and let grow() skip rehashing.
  std::vector<Slot> slots_;
};

}  // namespace syrwatch::util
