#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/lambda_cover.hpp"

using namespace ccov;
using namespace ccov::covering;

// ---------- lambda * K_n ----------

TEST(Lambda, LowerBoundScalesLinearlyForOdd) {
  for (std::uint32_t lam = 1; lam <= 4; ++lam)
    EXPECT_EQ(rho_lambda_lower_bound(9, lam), lam * covering::rho(9));
}

TEST(Lambda, EvenNParityOnlyForOddLambda) {
  const std::uint32_t n = 8;
  const std::uint64_t cap = covering::capacity_lower_bound(n);
  EXPECT_EQ(rho_lambda_lower_bound(n, 1), cap + 1);
  EXPECT_EQ(rho_lambda_lower_bound(n, 2), 2 * cap);
  EXPECT_EQ(rho_lambda_lower_bound(n, 3), 3 * cap + 1);
}

TEST(Lambda, CopiesConstructionValid) {
  for (std::uint32_t lam : {1u, 2u, 3u}) {
    const auto cover = build_lambda_cover(7, lam);
    EXPECT_TRUE(validate_lambda_cover(cover, lam)) << lam;
    EXPECT_EQ(cover.size(), lam * covering::rho(7));
  }
}

TEST(Lambda, OptimalForOddN) {
  // lambda copies of the optimal K_n cover meet the lambda lower bound for
  // odd n: the capacity argument scales exactly.
  for (std::uint32_t lam : {2u, 5u}) {
    EXPECT_EQ(build_lambda_cover(11, lam).size(),
              rho_lambda_lower_bound(11, lam));
  }
}

TEST(Lambda, CopiesGapPinnedForSmallN) {
  // Construction minus bound, lambda = 1..4 (see build_lambda_cover).
  const std::map<std::uint32_t, std::vector<std::uint64_t>> gaps = {
      {7, {0, 0, 0, 0}},  {8, {0, 2, 2, 4}},  {9, {0, 0, 0, 0}},
      {10, {0, 1, 1, 2}}, {11, {0, 0, 0, 0}}, {12, {0, 2, 2, 4}}};
  for (const auto& [n, by_lambda] : gaps)
    for (std::uint32_t lam = 1; lam <= 4; ++lam)
      EXPECT_EQ(build_lambda_cover(n, lam).size() -
                    rho_lambda_lower_bound(n, lam),
                by_lambda[lam - 1])
          << "n=" << n << " lambda=" << lam;
}

TEST(Lambda, LowerBoundNeverExceedsKnownOptimum) {
  // Regression: at n = 10, lambda = 1 the bound must equal rho(10) = 13
  // (the parity +1 applies only when p = n/2 is even; p = 5 is odd).
  EXPECT_EQ(rho_lambda_lower_bound(10, 1), covering::rho(10));
  for (std::uint32_t n = 4; n <= 16; n += 2)
    EXPECT_EQ(rho_lambda_lower_bound(n, 1), covering::rho(n)) << n;
}

TEST(Lambda, RejectsBadArgs) {
  EXPECT_THROW(rho_lambda_lower_bound(2, 1), std::invalid_argument);
  EXPECT_THROW(rho_lambda_lower_bound(5, 0), std::invalid_argument);
  EXPECT_THROW(build_lambda_cover(7, 0), std::invalid_argument);
}
