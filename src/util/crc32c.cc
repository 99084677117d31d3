#include "util/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define POE_CRC32C_X86 1
#include <immintrin.h>
#endif

namespace poe {

namespace {

// Byte-at-a-time table for the reflected Castagnoli polynomial, built once
// at first use: the reference the hardware path is tested against and the
// path of CPUs without SSE4.2.
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    constexpr uint32_t kPoly = 0x82f63b78u;  // reflected 0x1EDC6F41
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

#ifdef POE_CRC32C_X86
// One chain of the SSE4.2 crc32 instruction, which computes the same
// reflected Castagnoli CRC: 8 bytes per step, then the tail a byte at a
// time. Every request and response frame body passes through here, so this
// is on the serving hot path.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; n > 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif  // POE_CRC32C_X86

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n) {
  static const Crc32cTable table;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = table.entries[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
#ifdef POE_CRC32C_X86
  static const bool kHasSse42 = __builtin_cpu_supports("sse4.2");
  if (kHasSse42) return Crc32cExtendSse42(crc, data, n);
#endif
  return Crc32cExtendPortable(crc, data, n);
}

}  // namespace poe
