/// \file alloc_plain.cpp
/// Stock allocator for the plain twin binary (see CMakeLists.txt).
#include "harness.hpp"

namespace perfbench {
std::uint64_t alloc_count() { return 0; }
}  // namespace perfbench
