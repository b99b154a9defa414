// Dynamic bitmap used by the FTL for valid-page tracking and by the flash
// model for bad-page marking. Denser and faster than vector<bool> for the
// operations we need (popcount ranges, find-first-set).
#ifndef SALAMANDER_COMMON_BITMAP_H_
#define SALAMANDER_COMMON_BITMAP_H_

#include <cassert>
#include <cstdint>
#include <vector>

namespace salamander {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(uint64_t size, bool initial = false);

  void Resize(uint64_t size, bool value = false);

  uint64_t size() const { return size_; }

  // Single-bit access is inline: the mDisk layer tests and sets a written
  // bit on every host write, and the flash chip on every program and read.
  bool Test(uint64_t index) const {
    assert(index < size_);
    return (words_[index / kBitsPerWord] >> (index % kBitsPerWord)) & 1ULL;
  }
  void Set(uint64_t index) {
    assert(index < size_);
    words_[index / kBitsPerWord] |= 1ULL << (index % kBitsPerWord);
  }
  void Clear(uint64_t index) {
    assert(index < size_);
    words_[index / kBitsPerWord] &= ~(1ULL << (index % kBitsPerWord));
  }
  void Assign(uint64_t index, bool value);

  // Number of set bits in the whole map.
  uint64_t CountSet() const;
  // Number of set bits in [begin, end).
  uint64_t CountSetInRange(uint64_t begin, uint64_t end) const;

  // Index of the first set/clear bit at or after `from`; size() if none.
  uint64_t FindFirstSet(uint64_t from = 0) const;
  uint64_t FindFirstClear(uint64_t from = 0) const;

  void SetAll();
  void ClearAll();

 private:
  static constexpr uint64_t kBitsPerWord = 64;

  uint64_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace salamander

#endif  // SALAMANDER_COMMON_BITMAP_H_
