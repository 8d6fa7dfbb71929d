// Process-wide heap allocation counter (alloc_probe.cpp replaces the global
// operator new/delete of the benchmark binary).
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made through operator new since the process started.
[[nodiscard]] std::uint64_t alloc_count() noexcept;

}  // namespace perfbench
