#include <gtest/gtest.h>

#include <sstream>

#include "ccov/covering/construct.hpp"
#include "ccov/covering/io.hpp"

using namespace ccov::covering;

TEST(CoverIo, RoundTripStream) {
  const auto cover = build_optimal_cover(11);
  std::stringstream ss;
  write_cover(ss, cover);
  const auto loaded = read_cover(ss);
  EXPECT_EQ(loaded.n, cover.n);
  EXPECT_EQ(loaded.cycles, cover.cycles);
}

TEST(CoverIo, RoundTripFile) {
  const auto cover = build_optimal_cover(10);
  const std::string path = testing::TempDir() + "ccov_cover_test.txt";
  save_cover(path, cover);
  const auto loaded = load_cover(path);
  EXPECT_EQ(loaded.cycles, cover.cycles);
  EXPECT_TRUE(validate_cover(loaded).ok);
}

TEST(CoverIo, RejectsBadHeader) {
  std::stringstream ss("nonsense v1\nn 5\ncycles 0\n");
  EXPECT_THROW(read_cover(ss), std::runtime_error);
}

TEST(CoverIo, RejectsTruncatedCycle) {
  std::stringstream ss("drc-cover v1\nn 5\ncycles 1\n4 0 1 2\n");
  EXPECT_THROW(read_cover(ss), std::runtime_error);
}

TEST(CoverIo, RejectsDegenerateCycleLength) {
  std::stringstream ss("drc-cover v1\nn 5\ncycles 1\n2 0 1\n");
  EXPECT_THROW(read_cover(ss), std::runtime_error);
}

// The header and cycle-length counts are untrusted: neither may size an
// allocation before the values behind it have been read.
TEST(CoverIo, HugeCycleCountFailsWithoutAllocating) {
  std::stringstream ss("drc-cover v1\nn 5\ncycles 4000000000\n");
  EXPECT_THROW(read_cover(ss), std::runtime_error);
}

TEST(CoverIo, HugeCycleLengthFailsWithoutAllocating) {
  std::stringstream ss("drc-cover v1\nn 5\ncycles 1\n4000000000 0 1 1\n");
  EXPECT_THROW(read_cover(ss), std::runtime_error);
}

TEST(CoverIo, MissingFileThrows) {
  EXPECT_THROW(load_cover("/nonexistent/path/cover.txt"), std::runtime_error);
}
