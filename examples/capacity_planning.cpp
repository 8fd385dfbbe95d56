// Capacity planning across ring sizes and demand multiplicities: how many
// protected sub-networks (and wavelengths) does a metro ring need as it
// grows? Uses the closed forms of Theorems 1 and 2 plus the lambda*K_n
// extension.
//
//   ./capacity_planning [--max-n 32] [--lambda 2]

#include <iostream>

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/lambda_cover.hpp"
#include "ccov/util/cli.hpp"
#include "ccov/util/table.hpp"

int main(int argc, char** argv) try {
  const ccov::util::Cli cli(argc, argv);
  const auto max_n = static_cast<std::uint32_t>(cli.get_int("max-n", 32));
  const auto lambda = static_cast<std::uint32_t>(cli.get_int("lambda", 2));

  using namespace ccov;
  ccov::util::Table t({"nodes", "requests", "subnets rho(n)",
                       "wavelengths", "subnets @ lambda",
                       "wavelengths @ lambda"});
  for (std::uint32_t n = 4; n <= max_n; n += 2) {
    const std::uint64_t requests =
        static_cast<std::uint64_t>(n) * (n - 1) / 2;
    const auto r1 = covering::rho(n);
    const auto rl = covering::rho_lambda_lower_bound(n, lambda);
    t.add(n, requests, r1, 2 * r1, rl, 2 * rl);
  }
  t.print(std::cout, "Ring capacity plan (all-to-all; lambda = " +
                         std::to_string(lambda) + " column is the lower "
                         "bound)");
  std::cout << "\nRule of thumb from the theorems: sub-networks grow as "
               "n^2/8 — double the ring size, quadruple the wavelength "
               "budget.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "capacity_planning: " << e.what() << "\n";
  return 1;
}
