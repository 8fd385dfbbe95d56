#include "harnesses.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

#include "ccov/covering/io.hpp"

int ccov_fuzz_cover(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  std::istringstream is(bytes);
  try {
    (void)ccov::covering::read_cover(is);
  } catch (const std::runtime_error&) {
    // Rejected input — the expected outcome for almost every mutation.
  }
  return 0;
}
