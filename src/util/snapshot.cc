#include "util/snapshot.h"

#include <bit>
#include <cstring>

namespace odbgc {

namespace {

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

// Fixed-width little-endian stores and loads. On little-endian hosts a
// value's memory image already is its encoding; elsewhere the explicit
// byte loops produce the same bytes.
template <typename T>
void StoreLe(T v, char* out) {
  if constexpr (kLittleEndian) {
    std::memcpy(out, &v, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<char>(v >> (8 * i));
    }
  }
}

template <typename T>
T LoadLe(const uint8_t* p) {
  T v = 0;
  if constexpr (kLittleEndian) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

void SnapshotWriter::U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

void SnapshotWriter::U32(uint32_t v) { Fixed(v); }

void SnapshotWriter::U64(uint64_t v) { Fixed(v); }

template <typename T>
void SnapshotWriter::Fixed(T v) {
  char bytes[sizeof(T)];
  StoreLe(v, bytes);
  out_.append(bytes, sizeof(T));
}

template <typename T>
void SnapshotWriter::Vec(const std::vector<T>& v) {
  U64(v.size());
  if (v.empty()) return;
  if constexpr (kLittleEndian) {
    out_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  } else {
    for (T x : v) Fixed(x);
  }
}

void SnapshotWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void SnapshotWriter::Str(const std::string& s) {
  U64(s.size());
  out_.append(s);
}

void SnapshotWriter::Tag(const char (&fourcc)[5]) {
  out_.append(fourcc, 4);
}

void SnapshotWriter::VecU32(const std::vector<uint32_t>& v) { Vec(v); }

void SnapshotWriter::VecU64(const std::vector<uint64_t>& v) { Vec(v); }

void SnapshotReader::Fail(const std::string& why) {
  if (!ok_) return;
  ok_ = false;
  error_ = why + " at offset " + std::to_string(pos_);
}

bool SnapshotReader::Need(size_t n) {
  if (!ok_) return false;
  if (size_ - pos_ < n) {
    Fail("truncated snapshot (need " + std::to_string(n) + " bytes)");
    return false;
  }
  return true;
}

uint8_t SnapshotReader::U8() {
  if (!Need(1)) return 0;
  return data_[pos_++];
}

template <typename T>
T SnapshotReader::Fixed() {
  if (!Need(sizeof(T))) return 0;
  const T v = LoadLe<T>(data_ + pos_);
  pos_ += sizeof(T);
  return v;
}

template <typename T>
std::vector<T> SnapshotReader::Vec() {
  const uint64_t n = U64();
  std::vector<T> v;
  // The count is bounded by the bytes actually present before anything
  // is allocated: a corrupt count can never trigger a huge allocation.
  if (!ok_ || n > (size_ - pos_) / sizeof(T)) {
    Fail("vector count exceeds snapshot");
    return v;
  }
  v.resize(static_cast<size_t>(n));
  if (n == 0) return v;
  if constexpr (kLittleEndian) {
    std::memcpy(v.data(), data_ + pos_, v.size() * sizeof(T));
  } else {
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = LoadLe<T>(data_ + pos_ + i * sizeof(T));
    }
  }
  pos_ += v.size() * sizeof(T);
  return v;
}

uint32_t SnapshotReader::U32() { return Fixed<uint32_t>(); }

uint64_t SnapshotReader::U64() { return Fixed<uint64_t>(); }

double SnapshotReader::F64() {
  uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string SnapshotReader::Str() {
  uint64_t n = U64();
  // Length is bounded by the bytes actually present: a corrupt count can
  // never trigger a multi-gigabyte allocation.
  if (!ok_ || n > size_ - pos_) {
    Fail("string length exceeds snapshot");
    return std::string();
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<size_t>(n));
  pos_ += static_cast<size_t>(n);
  return s;
}

void SnapshotReader::Tag(const char (&fourcc)[5]) {
  if (!Need(4)) return;
  if (std::memcmp(data_ + pos_, fourcc, 4) != 0) {
    Fail(std::string("section tag mismatch (want ") + fourcc + ")");
    return;
  }
  pos_ += 4;
}

std::vector<uint32_t> SnapshotReader::VecU32() { return Vec<uint32_t>(); }

std::vector<uint64_t> SnapshotReader::VecU64() { return Vec<uint64_t>(); }

namespace {

// Slicing-by-8 tables: kCrc32Tables[0] is the classic bytewise table;
// entry [k][b] advances byte b through k further zero bytes, so eight
// lookups fold eight input bytes into the CRC at once.
struct Crc32Tables {
  uint32_t t[8][256];
  constexpr Crc32Tables() : t{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};

constexpr Crc32Tables kCrc32Tables;

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto& t = kCrc32Tables.t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLe<uint32_t>(p) ^ crc;
    const uint32_t hi = LoadLe<uint32_t>(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace odbgc
