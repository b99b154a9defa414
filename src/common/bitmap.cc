#include "common/bitmap.h"

#include <bit>

namespace salamander {

Bitmap::Bitmap(uint64_t size, bool initial) {
  Resize(size, initial);
}

void Bitmap::Resize(uint64_t size, bool value) {
  const uint64_t words = (size + kBitsPerWord - 1) / kBitsPerWord;
  words_.assign(words, value ? ~0ULL : 0ULL);
  size_ = size;
  // Keep bits beyond size_ clear so CountSet stays exact.
  if (value && size_ % kBitsPerWord != 0) {
    words_.back() &= (1ULL << (size_ % kBitsPerWord)) - 1;
  }
}

void Bitmap::Assign(uint64_t index, bool value) {
  if (value) {
    Set(index);
  } else {
    Clear(index);
  }
}

uint64_t Bitmap::CountSet() const {
  uint64_t total = 0;
  for (uint64_t word : words_) {
    total += static_cast<uint64_t>(std::popcount(word));
  }
  return total;
}

uint64_t Bitmap::CountSetInRange(uint64_t begin, uint64_t end) const {
  if (begin >= end || begin >= size_) {
    return 0;
  }
  if (end > size_) {
    end = size_;
  }
  uint64_t total = 0;
  uint64_t first_word = begin / kBitsPerWord;
  uint64_t last_word = (end - 1) / kBitsPerWord;
  for (uint64_t w = first_word; w <= last_word; ++w) {
    uint64_t word = words_[w];
    if (w == first_word) {
      word &= ~0ULL << (begin % kBitsPerWord);
    }
    if (w == last_word && end % kBitsPerWord != 0) {
      word &= (1ULL << (end % kBitsPerWord)) - 1;
    }
    total += static_cast<uint64_t>(std::popcount(word));
  }
  return total;
}

uint64_t Bitmap::FindFirstSet(uint64_t from) const {
  for (uint64_t w = from / kBitsPerWord; w < words_.size(); ++w) {
    uint64_t word = words_[w];
    if (w == from / kBitsPerWord) {
      word &= ~0ULL << (from % kBitsPerWord);
    }
    if (word != 0) {
      uint64_t index =
          w * kBitsPerWord + static_cast<uint64_t>(std::countr_zero(word));
      return index < size_ ? index : size_;
    }
  }
  return size_;
}

uint64_t Bitmap::FindFirstClear(uint64_t from) const {
  for (uint64_t w = from / kBitsPerWord; w < words_.size(); ++w) {
    uint64_t word = ~words_[w];
    if (w == from / kBitsPerWord) {
      word &= ~0ULL << (from % kBitsPerWord);
    }
    if (word != 0) {
      uint64_t index =
          w * kBitsPerWord + static_cast<uint64_t>(std::countr_zero(word));
      return index < size_ ? index : size_;
    }
  }
  return size_;
}

void Bitmap::SetAll() {
  words_.assign(words_.size(), ~0ULL);
  if (size_ % kBitsPerWord != 0 && !words_.empty()) {
    words_.back() &= (1ULL << (size_ % kBitsPerWord)) - 1;
  }
}

void Bitmap::ClearAll() {
  words_.assign(words_.size(), 0ULL);
}

}  // namespace salamander
