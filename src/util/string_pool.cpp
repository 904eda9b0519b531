#include "util/string_pool.h"

#include <cstring>

namespace syrwatch::util {

namespace {

constexpr std::size_t kBlockBytes = 64 * 1024;
constexpr std::size_t kInitialSlots = 1024;

/// 64×64→128-bit multiply folded to 64 bits: every input bit reaches
/// every output bit, which a per-byte hash like FNV does not guarantee.
std::uint64_t fold_multiply(std::uint64_t a, std::uint64_t b) noexcept {
  const unsigned __int128 product =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  return static_cast<std::uint64_t>(product) ^
         static_cast<std::uint64_t>(product >> 64);
}

std::uint64_t load_word(const char* p, std::size_t n) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, p, n);
  return word;
}

/// Word-at-a-time multiply-fold hash. Log fields come from outside the
/// program, and linear probing degrades into long runs when the low bits
/// of the hash cluster, so every input bit must reach the probe position.
std::uint64_t hash_bytes(std::string_view s) noexcept {
  constexpr std::uint64_t k0 = 0xa0761d6478bd642fULL;
  constexpr std::uint64_t k1 = 0xe7037ed1a0b428dbULL;
  constexpr std::uint64_t k2 = 0x8ebc6af09c88c6e3ULL;
  const char* p = s.data();
  std::size_t n = s.size();
  std::uint64_t h = k0 ^ fold_multiply(n ^ k1, k2);
  while (n >= 16) {
    h = fold_multiply(load_word(p, 8) ^ k1, load_word(p + 8, 8) ^ h);
    p += 16;
    n -= 16;
  }
  // An empty view may carry a null data(); memcpy must not see it.
  const std::uint64_t a = n == 0 ? 0 : load_word(p, n < 8 ? n : 8);
  const std::uint64_t b = n > 8 ? load_word(p + 8, n - 8) : 0;
  h = fold_multiply(a ^ k1, b ^ h);
  return fold_multiply(h ^ k2, s.size() ^ k1);
}

}  // namespace

StringPool::StringPool() : slots_(kInitialSlots) {
  views_.emplace_back();  // id 0: empty string
  const std::uint64_t hash = hash_bytes({});
  slots_[find_slot({}, hash)] = Slot{hash, kEmpty};
}

std::size_t StringPool::find_slot(std::string_view s,
                                  std::uint64_t hash) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kNotFound) return i;
    if (slot.hash == hash && views_[slot.id] == s) return i;
  }
}

StringPool::Id StringPool::intern(std::string_view s) {
  // Most rows leave path, query or agent empty; id 0 needs no probe.
  if (s.empty()) return kEmpty;
  const std::uint64_t hash = hash_bytes(s);
  std::size_t i = find_slot(s, hash);
  if (slots_[i].id != kNotFound) return slots_[i].id;
  if (2 * (views_.size() + 1) > slots_.size()) {
    grow();
    i = find_slot(s, hash);
  }
  const Id id = static_cast<Id>(views_.size());
  views_.push_back(store(s));
  slots_[i] = Slot{hash, id};
  return id;
}

StringPool::Id StringPool::lookup(std::string_view s) const noexcept {
  return slots_[find_slot(s, hash_bytes(s))].id;
}

std::string_view StringPool::store(std::string_view s) {
  if (s.size() > kBlockBytes / 2) {
    // Oversized strings get their own block so the current one keeps
    // filling.
    blocks_.push_back(std::make_unique<char[]>(s.size()));
    std::memcpy(blocks_.back().get(), s.data(), s.size());
    return {blocks_.back().get(), s.size()};
  }
  if (s.size() > left_) {
    blocks_.push_back(std::make_unique<char[]>(kBlockBytes));
    cursor_ = blocks_.back().get();
    left_ = kBlockBytes;
  }
  std::memcpy(cursor_, s.data(), s.size());
  const std::string_view stored{cursor_, s.size()};
  cursor_ += s.size();
  left_ -= s.size();
  return stored;
}

void StringPool::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kNotFound) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].id != kNotFound) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace syrwatch::util
