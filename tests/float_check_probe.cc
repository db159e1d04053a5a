// Compiled with -mgeneral-regs-only by the float_check_probe ctest, which
// passes only if the compiler refuses this file for its floating point:
// the kill check of the library's integer-only compile (DESIGN.md §11).
#include <cstdint>

int64_t Half(int64_t x) { return static_cast<int64_t>(x * 0.5); }
