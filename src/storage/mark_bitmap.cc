#include "storage/mark_bitmap.h"

namespace odbgc {

void MarkBitmap::Reset(size_t bits) {
  bits_ = bits;
  const size_t words = (bits + 63) / 64;
  if (words > words_.size()) {
    words_.assign(words, 0);
  } else if (words > 0) {
    std::memset(words_.data(), 0, words * sizeof(uint64_t));
  }
}

void MarkBitmap::Grow(size_t bits) {
  if (bits <= bits_) return;
  const size_t old_words = word_count();
  const size_t words = (bits + 63) / 64;
  // Words past the old size may hold stale marks from before a smaller
  // Reset; clear the ones being brought back into range.
  if (words > words_.size()) words_.resize(words, 0);
  if (words > old_words) {
    std::memset(words_.data() + old_words, 0,
                (words - old_words) * sizeof(uint64_t));
  }
  bits_ = bits;
}

uint64_t MarkBitmap::CountSet() const {
  uint64_t n = 0;
  const size_t words = word_count();
  for (size_t wi = 0; wi < words; ++wi) {
    n += static_cast<uint64_t>(std::popcount(words_[wi]));
  }
  return n;
}

}  // namespace odbgc
