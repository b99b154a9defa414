// End-to-end integrity codec and scrub-cursor unit tests: deterministic
// hashing, corruption detectability, and the pure-state cursor arithmetic the
// background scrubbers are built on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "integrity/checksum.h"
#include "integrity/scrub_cursor.h"

namespace salamander {
namespace {

TEST(ChecksumCodecTest, HashIsDeterministicAndSeedSensitive) {
  const ChecksumCodec a(42);
  const ChecksumCodec b(42);
  const ChecksumCodec c(43);
  const char payload[] = "salamander end-to-end integrity";
  EXPECT_EQ(a.Hash(payload, sizeof(payload)),
            b.Hash(payload, sizeof(payload)));
  EXPECT_NE(a.Hash(payload, sizeof(payload)),
            c.Hash(payload, sizeof(payload)));
}

TEST(ChecksumCodecTest, HashCoversEveryByteIncludingTail) {
  const ChecksumCodec codec(7);
  // Lengths around the 8-byte lane boundary: the tail bytes must all count.
  for (size_t len = 1; len <= 24; ++len) {
    std::vector<uint8_t> buf(len, 0xa5);
    const uint64_t base = codec.Hash(buf.data(), buf.size());
    for (size_t i = 0; i < len; ++i) {
      buf[i] ^= 0x01;
      EXPECT_NE(codec.Hash(buf.data(), buf.size()), base)
          << "flip at byte " << i << " of " << len << " went undetected";
      buf[i] ^= 0x01;
    }
  }
}

TEST(ChecksumCodecTest, StampsAreUniquePerChunkAndGeneration) {
  const ChecksumCodec codec(1);
  EXPECT_NE(codec.Stamp(0, 0), codec.Stamp(1, 0));
  EXPECT_NE(codec.Stamp(0, 0), codec.Stamp(0, 1));
  EXPECT_EQ(codec.Stamp(5, 9), codec.Stamp(5, 9));
}

TEST(ChecksumCodecTest, CorruptObservationNeverVerifies) {
  const ChecksumCodec codec(99);
  for (uint64_t chunk = 0; chunk < 64; ++chunk) {
    for (uint64_t generation = 0; generation < 4; ++generation) {
      const uint64_t stamp = codec.Stamp(chunk, generation);
      EXPECT_TRUE(ChecksumCodec::Verify(stamp, stamp));
      EXPECT_FALSE(
          ChecksumCodec::Verify(stamp, codec.CorruptObservation(stamp)));
    }
  }
}

TEST(ChecksumCodecTest, RandomizedSelfTestPasses) {
  EXPECT_EQ(ChecksumSelfTest(/*seed=*/20250805, /*rounds=*/512), OkStatus());
  EXPECT_EQ(ChecksumSelfTest(/*seed=*/1, /*rounds=*/64), OkStatus());
}

TEST(ScrubCursorTest, AdvanceWalksMinorThenMajorAndSignalsWrap) {
  ScrubCursor cursor;
  // 2 majors x 3 minors: wrap exactly every 6 advances, at (0, 0).
  int wraps = 0;
  for (int step = 1; step <= 12; ++step) {
    const bool wrapped = cursor.Advance(2, 3);
    wraps += wrapped ? 1 : 0;
    if (step % 6 == 0) {
      EXPECT_TRUE(wrapped) << "step " << step;
      EXPECT_EQ(cursor.major, 0u);
      EXPECT_EQ(cursor.minor, 0u);
    } else {
      EXPECT_FALSE(wrapped) << "step " << step;
    }
  }
  EXPECT_EQ(wraps, 2);
}

TEST(ScrubCursorTest, SkipMajorDropsRestOfUnit) {
  ScrubCursor cursor;
  ASSERT_FALSE(cursor.Advance(3, 4));  // (0, 1)
  EXPECT_FALSE(cursor.SkipMajor(3));   // -> (1, 0)
  EXPECT_EQ(cursor.major, 1u);
  EXPECT_EQ(cursor.minor, 0u);
  EXPECT_FALSE(cursor.SkipMajor(3));  // -> (2, 0)
  EXPECT_TRUE(cursor.SkipMajor(3));   // wraps -> (0, 0)
  EXPECT_EQ(cursor.major, 0u);
}

}  // namespace
}  // namespace salamander
