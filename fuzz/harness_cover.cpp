#include "harnesses.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

#include "ccov/covering/cover.hpp"
#include "ccov/covering/io.hpp"

int ccov_fuzz_cover(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  std::istringstream is(bytes);
  try {
    // Validate whatever parses, as `ccov validate` does: its cost must
    // follow the cover's bytes, not the n its header claims.
    (void)ccov::covering::validate_cover(ccov::covering::read_cover(is));
  } catch (const std::runtime_error&) {
    // Rejected input — the expected outcome for almost every mutation.
  }
  return 0;
}
