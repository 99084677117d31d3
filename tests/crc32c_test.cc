// CRC32C known answers, chunked extension and the hardware path against
// the byte table. Pool files and wire frames carry these values, so any
// drift here breaks every saved pool and every peer on the old code.
#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace poe {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  return bytes;
}

// Both implementations, so each known answer pins the table as well as the
// path this CPU dispatches to.
void ExpectCrc(uint32_t want, const std::vector<uint8_t>& bytes) {
  EXPECT_EQ(want, Crc32c(bytes.data(), bytes.size()));
  EXPECT_EQ(want, Crc32cExtendPortable(0, bytes.data(), bytes.size()));
}

TEST(Crc32cTest, Rfc3720KnownAnswers) {
  // RFC 3720 appendix B.4.
  ExpectCrc(0x8a9136aau, std::vector<uint8_t>(32, 0x00));
  ExpectCrc(0x62a8ab43u, std::vector<uint8_t>(32, 0xff));
  std::vector<uint8_t> up(32);
  std::vector<uint8_t> down(32);
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<uint8_t>(i);
    down[i] = static_cast<uint8_t>(31 - i);
  }
  ExpectCrc(0x46dd794eu, up);
  ExpectCrc(0x113fdb5cu, down);
}

TEST(Crc32cTest, CheckString) {
  const std::string check = "123456789";
  ExpectCrc(0xe3069283u, std::vector<uint8_t>(check.begin(), check.end()));
  EXPECT_EQ(0u, Crc32c(nullptr, 0));
}

TEST(Crc32cTest, EverySplitOfShortBuffersMatchesOneShot) {
  const std::vector<uint8_t> bytes = RandomBytes(64, 1);
  for (size_t n = 0; n <= bytes.size(); ++n) {
    const uint32_t whole = Crc32c(bytes.data(), n);
    ASSERT_EQ(Crc32cExtendPortable(0, bytes.data(), n), whole) << n;
    for (size_t cut = 0; cut <= n; ++cut) {
      const uint32_t head = Crc32cExtend(0, bytes.data(), cut);
      ASSERT_EQ(whole, Crc32cExtend(head, bytes.data() + cut, n - cut))
          << "n=" << n << " cut=" << cut;
    }
  }
}

TEST(Crc32cTest, RandomChunksOfABulkFrameMatchOneShot) {
  // The size of a bulk_int8 request frame: 32 images of 3x32x32 floats
  // plus the header, the request meta and two task ids.
  const std::vector<uint8_t> bytes = RandomBytes(393292, 2);
  const uint32_t whole = Crc32cExtendPortable(0, bytes.data(), bytes.size());
  EXPECT_EQ(whole, Crc32c(bytes.data(), bytes.size()));
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    // Chunks of 1 byte to 16 KiB, so most chunk ends and starts fall off
    // an 8-byte boundary.
    uint32_t crc = 0;
    size_t pos = 0;
    while (pos < bytes.size()) {
      const size_t len = std::min<size_t>(
          bytes.size() - pos, 1 + static_cast<size_t>(rng.NextInt(16384)));
      crc = Crc32cExtend(crc, bytes.data() + pos, len);
      pos += len;
    }
    ASSERT_EQ(whole, crc) << "trial " << trial;
  }
}

TEST(Crc32cTest, HardwarePathMatchesTheTableAtUnalignedStarts) {
  const std::vector<uint8_t> bytes = RandomBytes(393292, 4);
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t start = static_cast<size_t>(rng.NextInt(4096));
    const size_t len = static_cast<size_t>(
        rng.NextInt(static_cast<int64_t>(bytes.size() - start) + 1));
    const auto seed = static_cast<uint32_t>(rng.NextU64());
    ASSERT_EQ(Crc32cExtendPortable(seed, bytes.data() + start, len),
              Crc32cExtend(seed, bytes.data() + start, len))
        << "start=" << start << " len=" << len;
  }
}

}  // namespace
}  // namespace poe
