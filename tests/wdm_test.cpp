#include <gtest/gtest.h>

#include <algorithm>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/construct.hpp"
#include "ccov/wdm/cost.hpp"
#include "ccov/wdm/instance.hpp"
#include "ccov/wdm/network.hpp"

using namespace ccov;
using namespace ccov::wdm;

TEST(Instance, AllToAllIsComplete) {
  const auto inst = Instance::all_to_all(7);
  EXPECT_EQ(inst.nodes(), 7u);
  EXPECT_EQ(inst.num_requests(), 21u);
  const auto& edges = inst.demands().edges();
  for (std::size_t i = 0; i < edges.size(); ++i)
    EXPECT_EQ(std::count(edges.begin(), edges.end(), edges[i]), 1) << i;
}

TEST(Instance, UniformLambda) {
  const auto inst = Instance::uniform(5, 3);
  EXPECT_EQ(inst.num_requests(), 30u);
}

TEST(Network, BuildsFromOptimalCover) {
  const std::uint32_t n = 9;
  const auto cover = covering::build_optimal_cover(n);
  WdmRingNetwork net(n, cover, Instance::all_to_all(n));
  EXPECT_EQ(net.subnetworks().size(), covering::rho(n));
  EXPECT_EQ(net.wavelengths(), 2 * covering::rho(n));
}

TEST(Network, RejectsIncompleteCover) {
  covering::RingCover partial{5, {{0, 1, 2}}};
  EXPECT_THROW(WdmRingNetwork(5, partial, Instance::all_to_all(5)),
               std::invalid_argument);
}

TEST(Network, RejectsSizeMismatch) {
  const auto cover = covering::build_optimal_cover(5);
  EXPECT_THROW(WdmRingNetwork(7, cover, Instance::all_to_all(7)),
               std::invalid_argument);
}

TEST(Network, RoutingsTileTheRing) {
  const std::uint32_t n = 11;
  WdmRingNetwork net(n, covering::build_optimal_cover(n),
                     Instance::all_to_all(n));
  for (const auto& sub : net.subnetworks()) {
    std::uint64_t len = 0;
    for (const auto& a : sub.routing) len += a.len;
    EXPECT_EQ(len, n);  // DRC routing tiles the ring exactly
  }
}

TEST(Network, WavelengthsAreDistinctPerSubnetwork) {
  const std::uint32_t n = 8;
  WdmRingNetwork net(n, covering::build_optimal_cover(n),
                     Instance::all_to_all(n));
  std::set<std::uint32_t> lambdas;
  for (const auto& s : net.subnetworks()) lambdas.insert(s.wavelength);
  EXPECT_EQ(lambdas.size(), net.subnetworks().size());
}

TEST(Network, AdmAndTransitSumToNPerSubnetwork) {
  const std::uint32_t n = 13;
  WdmRingNetwork net(n, covering::build_optimal_cover(n),
                     Instance::all_to_all(n));
  EXPECT_EQ(net.adm_count() + net.transit_count(),
            static_cast<std::uint64_t>(n) * net.subnetworks().size());
}

TEST(Network, ServingSubnetworkFindsEveryRequest) {
  const std::uint32_t n = 9;
  WdmRingNetwork net(n, covering::build_optimal_cover(n),
                     Instance::all_to_all(n));
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v)
      EXPECT_TRUE(net.serving_subnetwork(u, v).has_value()) << u << "," << v;
}

TEST(Cost, BreakdownConsistency) {
  const std::uint32_t n = 10;
  WdmRingNetwork net(n, covering::build_optimal_cover(n),
                     Instance::all_to_all(n));
  const auto b = evaluate_cost(net, CostModel{});
  EXPECT_EQ(b.subnetworks, covering::rho(n));
  EXPECT_EQ(b.wavelengths, 2 * b.subnetworks);
  EXPECT_EQ(b.lit_hops, 2ull * n * b.subnetworks);
  EXPECT_GT(b.total, 0.0);
}

TEST(Cost, FewerSubnetworksCheaper) {
  // The paper's claim: on a ring, minimizing the number of sub-networks
  // minimizes cost. Compare the optimal cover against a padded one.
  const std::uint32_t n = 9;
  auto opt = covering::build_optimal_cover(n);
  auto padded = opt;
  padded.cycles.push_back({0, 1, 2});
  padded.cycles.push_back({0, 3, 6});
  const auto inst = Instance::all_to_all(n);
  const CostModel m;
  const double c_opt = evaluate_cost(WdmRingNetwork(n, opt, inst), m).total;
  const double c_pad = evaluate_cost(WdmRingNetwork(n, padded, inst), m).total;
  EXPECT_LT(c_opt, c_pad);
}

TEST(Cost, ZeroModelZeroCost) {
  const std::uint32_t n = 6;
  WdmRingNetwork net(n, covering::build_optimal_cover(n),
                     Instance::all_to_all(n));
  CostModel zero{0.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(evaluate_cost(net, zero).total, 0.0);
}
