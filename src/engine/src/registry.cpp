#include "ccov/engine/registry.hpp"

#include <stdexcept>
#include <utility>

#include "ccov/baselines/c4_cover.hpp"
#include "ccov/baselines/emz.hpp"
#include "ccov/baselines/triple_cover.hpp"
#include "ccov/covering/bounds.hpp"
#include "ccov/covering/construct.hpp"
#include "ccov/covering/greedy.hpp"
#include "ccov/covering/lambda_cover.hpp"
#include "ccov/covering/solver.hpp"

namespace ccov::engine {

namespace {

/// Shared preconditions for the built-ins that only understand the plain
/// all-to-all instance.
void require_all_to_all(const CoverRequest& req, const char* name) {
  if (!req.demand.empty())
    throw std::invalid_argument(std::string(name) +
                                ": explicit demands are not supported");
  if (req.lambda != 1)
    throw std::invalid_argument(std::string(name) +
                                ": lambda != 1 is not supported");
}

std::uint64_t effective_budget(const CoverRequest& req) {
  return req.budget != 0 ? req.budget : covering::rho(req.n);
}

/// Solver options for this run: the request's search knobs plus its
/// runtime interruption controls (deadline fixed at accept time, the
/// server's cancel token).
covering::SolverOptions runtime_solver_options(const CoverRequest& req) {
  covering::SolverOptions opts = req.solver;
  opts.deadline = req.deadline;
  opts.cancel = req.cancel;
  return opts;
}

AlgorithmOutcome outcome_from(covering::SolverResult res) {
  AlgorithmOutcome out{std::move(res.cover), res.found, res.exhausted,
                       res.nodes};
  out.timed_out = res.timed_out;
  out.cancelled = res.cancelled;
  return out;
}

AlgorithmOutcome run_c4(const CoverRequest& req) {
  require_all_to_all(req, "c4");
  return AlgorithmOutcome{
      covering::RingCover{req.n, baselines::greedy_c4_cover(req.n)}};
}

AlgorithmOutcome run_construct(const CoverRequest& req) {
  require_all_to_all(req, "construct");
  return AlgorithmOutcome{covering::build_optimal_cover(req.n)};
}

AlgorithmOutcome run_emz(const CoverRequest& req) {
  require_all_to_all(req, "emz");
  return AlgorithmOutcome{baselines::emz_greedy_cover(req.n)};
}

AlgorithmOutcome run_greedy(const CoverRequest& req) {
  if (req.lambda != 1)
    throw std::invalid_argument("greedy: lambda != 1 is not supported");
  if (req.demand.empty())
    return AlgorithmOutcome{covering::greedy_cover(req.n)};
  return AlgorithmOutcome{covering::greedy_cover_demand(
      req.n, demand_graph(req.n, req.demand))};
}

AlgorithmOutcome run_lambda(const CoverRequest& req) {
  if (!req.demand.empty())
    throw std::invalid_argument("lambda: explicit demands are not supported");
  return AlgorithmOutcome{covering::build_lambda_cover(req.n, req.lambda)};
}

bool validate_lambda(const CoverRequest& req,
                     const covering::RingCover& cover) {
  return covering::validate_lambda_cover(cover, req.lambda);
}

AlgorithmOutcome run_solve(const CoverRequest& req) {
  require_all_to_all(req, "solve");
  return outcome_from(covering::solve_with_budget(
      req.n, effective_budget(req), runtime_solver_options(req)));
}

AlgorithmOutcome run_solve_parallel(const CoverRequest& req) {
  require_all_to_all(req, "solve-parallel");
  return outcome_from(covering::solve_with_budget_parallel(
      req.n, effective_budget(req), runtime_solver_options(req),
      req.threads));
}

AlgorithmOutcome run_triple(const CoverRequest& req) {
  require_all_to_all(req, "triple");
  return AlgorithmOutcome{
      covering::RingCover{req.n, baselines::greedy_triple_cover(req.n)}};
}

constexpr bool sorted_and_unique(const std::array<Algorithm, 8>& table) {
  for (std::size_t i = 1; i < table.size(); ++i)
    if (!(table[i - 1].name < table[i].name)) return false;
  return true;
}

}  // namespace

constexpr std::array<Algorithm, 8> kAlgorithms = {{
    {"c4", "classical C4 covering of K_n, no routing constraint (ref [2])",
     true, run_c4, nullptr},
    {"construct", "paper-optimal DRC-covering of K_n (Theorems 1 and 2)", true,
     run_construct, nullptr},
    {"emz", "greedy cover minimizing the Eilam-Moran-Zaks size objective",
     true, run_emz, nullptr},
    {"greedy", "greedy DRC-covering baseline (accepts an explicit demand)",
     true, run_greedy, nullptr},
    {"lambda", "DRC-covering of lambda*K_n (--lambda copies of the optimum)",
     true, run_lambda, validate_lambda},
    {"solve",
     "exact branch-and-bound search within --budget cycles (default rho(n))",
     true, run_solve, nullptr},
    {"solve-parallel",
     "exact search fanned across --threads (shared node budget, witness "
     "identical to solve)",
     true, run_solve_parallel, nullptr},
    {"triple",
     "classical triangle covering C(n,3,2), no routing constraint "
     "(refs [6,7])",
     true, run_triple, nullptr},
}};
static_assert(sorted_and_unique(kAlgorithms),
              "kAlgorithms must be sorted by name, without duplicates");

const Algorithm* find_algorithm(std::string_view name) {
  for (const Algorithm& algo : kAlgorithms)
    if (algo.name == name) return &algo;
  return nullptr;
}

}  // namespace ccov::engine
