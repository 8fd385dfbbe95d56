/// Standalone replay driver for builds without libFuzzer (GCC):
/// every non-dash argument is a corpus file or a directory of corpus
/// files, each fed once through the harness named by CCOV_FUZZ_TARGET.
/// Dash arguments (libFuzzer flags like -runs=0) are ignored, so the
/// corpus-replay ctest command line is identical under both builds.
/// Exits 0 when every input was processed; a crashing input aborts the
/// process, which is exactly what the regression test asserts against.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harnesses.hpp"

#ifndef CCOV_FUZZ_TARGET
#error "CCOV_FUZZ_TARGET must name a ccov_fuzz_* harness"
#endif

namespace {

int run_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "fuzz driver: cannot open %s\n",
                 path.string().c_str());
    return 1;
  }
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  (void)CCOV_FUZZ_TARGET(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                         bytes.size());
  std::fprintf(stderr, "fuzz driver: ok %s (%zu bytes)\n",
               path.string().c_str(), bytes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int rc = 0;
  std::size_t ran = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.empty() && arg[0] == '-') continue;  // libFuzzer flag: ignore
    const std::filesystem::path p(arg);
    std::error_code ec;
    if (std::filesystem::is_directory(p, ec)) {
      for (const auto& entry : std::filesystem::directory_iterator(p)) {
        if (!entry.is_regular_file()) continue;
        rc |= run_file(entry.path());
        ++ran;
      }
    } else {
      rc |= run_file(p);
      ++ran;
    }
  }
  std::fprintf(stderr, "fuzz driver: replayed %zu input(s)\n", ran);
  return rc;
}
