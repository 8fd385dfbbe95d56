#include <gtest/gtest.h>

#include <utility>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/solver.hpp"
#include "ccov/util/timer.hpp"

using namespace ccov::covering;

class ParallelSolverParam : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ParallelSolverParam, AgreesWithSerialOnFeasibility) {
  const std::uint32_t n = GetParam();
  const auto par = solve_with_budget_parallel(n, rho(n));
  ASSERT_TRUE(par.found) << "n=" << n;
  const auto rep = validate_cover(par.cover);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_LE(par.cover.size(), rho(n));
}

TEST_P(ParallelSolverParam, AgreesWithSerialOnInfeasibility) {
  const std::uint32_t n = GetParam();
  if (n < 4) return;
  const auto par = solve_with_budget_parallel(n, rho(n) - 1);
  EXPECT_FALSE(par.found) << "n=" << n;
  EXPECT_TRUE(par.exhausted);
}

INSTANTIATE_TEST_SUITE_P(Small, ParallelSolverParam,
                         ::testing::Values(4, 5, 6, 7, 8));

TEST(ParallelSolver, SingleThreadStillWorks) {
  const auto res = solve_with_budget_parallel(6, rho(6), {}, 1);
  EXPECT_TRUE(res.found);
}

TEST(ParallelSolver, ZeroBudgetInfeasible) {
  const auto res = solve_with_budget_parallel(5, 0);
  EXPECT_FALSE(res.found);
  EXPECT_TRUE(res.exhausted);
}

TEST(ParallelSolver, MoreThreadsThanRootSubtrees) {
  // K_5 has far fewer root subtrees than 64; the surplus threads are
  // never started and the answer is the serial one.
  const auto ser = solve_with_budget(5, rho(5));
  const auto par = solve_with_budget_parallel(5, rho(5), {}, 64);
  ASSERT_TRUE(par.found);
  EXPECT_EQ(par.nodes, ser.nodes);
  EXPECT_EQ(par.cover.cycles, ser.cover.cycles);
}

TEST(ParallelSolver, ThreadsFarAboveTheCoreCountMatchOneThread) {
  // A request for thousands of threads runs at most one worker per
  // core; nothing stops, so every field equals the one-thread run — a
  // witness at rho(9) and an exhaustive proof at rho(8) - 1.
  const std::pair<std::uint32_t, std::uint64_t> cases[] = {{9, rho(9)},
                                                           {8, rho(8) - 1}};
  for (const auto& [n, budget] : cases) {
    const auto one = solve_with_budget_parallel(n, budget, {}, 1);
    const auto many = solve_with_budget_parallel(n, budget, {}, 4096);
    EXPECT_EQ(many.found, one.found) << n;
    EXPECT_EQ(many.exhausted, one.exhausted) << n;
    EXPECT_EQ(many.nodes, one.nodes) << n;
    EXPECT_EQ(many.cover.cycles, one.cover.cycles) << n;
  }
}

TEST(ParallelSolver, OneThreadMatchesSerialWhenTheBudgetRunsOut) {
  // Once the shared budget runs out no further root subtree is entered,
  // so a one-thread run spends exactly the serial nodes.
  SolverOptions opts;
  opts.max_nodes = 10;
  const auto ser = solve_with_budget(8, rho(8) - 1, opts);
  const auto par = solve_with_budget_parallel(8, rho(8) - 1, opts, 1);
  EXPECT_FALSE(par.found);
  EXPECT_EQ(par.nodes, ser.nodes);
  EXPECT_EQ(par.exhausted, ser.exhausted);
}

TEST(ParallelSolver, ZeroNodeBudgetStopsAtTheRoot) {
  SolverOptions opts;
  opts.max_nodes = 0;
  const std::size_t thread_counts[] = {1, 4};
  for (const std::size_t threads : thread_counts) {
    const auto res = solve_with_budget_parallel(8, rho(8), opts, threads);
    EXPECT_FALSE(res.found) << "threads=" << threads;
    EXPECT_FALSE(res.exhausted) << "threads=" << threads;
    EXPECT_EQ(res.nodes, 1u) << "threads=" << threads;
  }
}

TEST(ParallelSolver, AnAlreadyCancelledTokenStopsEveryWorkerAlmostImmediately) {
  // K_10 at budget 13 runs for seconds uncancelled. Each worker polls
  // the token every 4096 of its own nodes and, once one stops, no worker
  // claims another root subtree.
  ccov::util::CancelToken tok;
  tok.cancel();
  const std::size_t threads = 4;
  const auto res = solve_with_budget_parallel(10, 13, {}, threads, {{}, &tok});
  EXPECT_TRUE(res.cancelled);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.exhausted);
  EXPECT_LE(res.nodes, threads * 4096u);
}

// ---------------------------------------------------------------------------
// Determinism: the parallel search returns the witness of the *lowest*
// successful root subtree — exactly the one the serial search commits to —
// and sums the node counts the serial search would have spent, so whenever
// the node budget is not hit, nodes and covers are byte-identical to
// solve_with_budget for every thread count.

class ParallelDeterminismParam
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ParallelDeterminismParam, NodesAndCoverMatchSerial) {
  const std::uint32_t n = GetParam();
  const auto ser = solve_with_budget(n, rho(n));
  ASSERT_TRUE(ser.found);
  const std::size_t thread_counts[] = {1, 4, 0};
  for (const std::size_t threads : thread_counts) {
    const auto par = solve_with_budget_parallel(n, rho(n), {}, threads);
    ASSERT_TRUE(par.found) << "n=" << n << " threads=" << threads;
    EXPECT_EQ(par.nodes, ser.nodes) << "n=" << n << " threads=" << threads;
    EXPECT_EQ(par.cover.cycles, ser.cover.cycles)
        << "n=" << n << " threads=" << threads;
  }
}

TEST_P(ParallelDeterminismParam, NodesMatchSerialOnInfeasible) {
  const std::uint32_t n = GetParam();
  const auto ser = solve_with_budget(n, rho(n) - 1);
  const std::size_t thread_counts[] = {1, 4, 0};
  for (const std::size_t threads : thread_counts) {
    const auto par = solve_with_budget_parallel(n, rho(n) - 1, {}, threads);
    EXPECT_FALSE(par.found) << "n=" << n << " threads=" << threads;
    EXPECT_EQ(par.exhausted, ser.exhausted)
        << "n=" << n << " threads=" << threads;
    EXPECT_EQ(par.nodes, ser.nodes) << "n=" << n << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Golden, ParallelDeterminismParam,
                         ::testing::Values(5, 6, 7, 8, 9, 11, 13, 15));

TEST(ParallelSolver, SharedBudgetBoundsTotalNodeSpend) {
  // All workers draw from one shared pool: the total node spend may exceed
  // max_nodes only by the few nodes each worker counts while discovering
  // the pool is empty — never by a factor of the root fan-out as the old
  // per-worker budgets allowed.
  SolverOptions opts;
  opts.max_nodes = 1000;
  const auto res = solve_with_budget_parallel(8, rho(8) - 1, opts);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.exhausted);
  EXPECT_LE(res.nodes, opts.max_nodes + 100);
}
