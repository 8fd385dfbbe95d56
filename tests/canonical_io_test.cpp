#include <gtest/gtest.h>

#include <sstream>

#include "ccov/covering/canonical.hpp"
#include "ccov/covering/construct.hpp"
#include "ccov/covering/io.hpp"

using namespace ccov::covering;

TEST(Canonical, RotationIsIsomorphism) {
  const auto cover = build_optimal_cover(9);
  for (std::uint32_t s : {1u, 3u, 8u}) {
    const auto rot = rotate_cover(cover, s);
    EXPECT_TRUE(validate_cover(rot).ok);
    EXPECT_TRUE(covers_isomorphic(cover, rot)) << "shift " << s;
  }
}

TEST(Canonical, ReflectionIsIsomorphism) {
  const auto cover = build_optimal_cover(8);
  const auto refl = reflect_cover(cover);
  EXPECT_TRUE(validate_cover(refl).ok);
  EXPECT_TRUE(covers_isomorphic(cover, refl));
}

TEST(Canonical, CanonicalFormIsInvariant) {
  const auto cover = build_optimal_cover(7);
  const auto c1 = canonical_cover(cover);
  const auto c2 = canonical_cover(rotate_cover(cover, 4));
  const auto c3 = canonical_cover(reflect_cover(cover));
  EXPECT_EQ(c1.cycles, c2.cycles);
  EXPECT_EQ(c1.cycles, c3.cycles);
}

TEST(Canonical, DifferentCoversNotIsomorphic) {
  // The paper K_4 covering vs a different (padded) one.
  RingCover a{4, {{0, 1, 2, 3}, {0, 1, 3}, {0, 2, 3}}};
  RingCover b{4, {{0, 1, 2, 3}, {0, 1, 2}, {0, 2, 3}}};
  // b's cycles: (0,1,2) covers 01,12,02 — different multiset of chords.
  EXPECT_FALSE(covers_isomorphic(a, b));
}

TEST(Canonical, OrbitDividesGroupOrder) {
  for (std::uint32_t n : {5u, 6u, 7u}) {
    const auto cover = build_optimal_cover(n);
    const auto orb = orbit_size(cover);
    EXPECT_GE(orb, 1u);
    EXPECT_LE(orb, 2u * n);
    EXPECT_EQ((2u * n) % orb, 0u) << "orbit size must divide |D_n|";
  }
}

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
