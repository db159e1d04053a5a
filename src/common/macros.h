// Common assertion and class-decoration macros used across Blockplane.
//
// The library uses Status-based error handling (no exceptions); BP_CHECK is
// reserved for programming errors / broken invariants and aborts the process
// with a message. BP_DCHECK compiles out of release builds.
#ifndef BLOCKPLANE_COMMON_MACROS_H_
#define BLOCKPLANE_COMMON_MACROS_H_

#include <cstddef>
#include <cstdio>
#include <cstdlib>

#define BP_CHECK(cond)                                                     \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::std::fprintf(stderr, "BP_CHECK failed at %s:%d: %s\n", __FILE__,   \
                     __LINE__, #cond);                                     \
      ::std::abort();                                                      \
    }                                                                      \
  } while (0)

#define BP_CHECK_MSG(cond, msg)                                            \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::std::fprintf(stderr, "BP_CHECK failed at %s:%d: %s (%s)\n",        \
                     __FILE__, __LINE__, #cond, msg);                      \
      ::std::abort();                                                      \
    }                                                                      \
  } while (0)

#ifdef NDEBUG
#define BP_DCHECK(cond) \
  do {                  \
  } while (0)
#else
#define BP_DCHECK(cond) BP_CHECK(cond)
#endif

// Returns early with the error Status if the expression is not OK.
#define BP_RETURN_NOT_OK(expr)                    \
  do {                                            \
    ::blockplane::Status _bp_status = (expr);     \
    if (!_bp_status.ok()) return _bp_status;      \
  } while (0)

#define BP_DISALLOW_COPY_AND_ASSIGN(TypeName) \
  TypeName(const TypeName&) = delete;         \
  TypeName& operator=(const TypeName&) = delete

namespace blockplane {
namespace member_count_internal {

/// Converts to any member type; counts an aggregate's members.
struct AnyMember {
  template <typename T>
  operator T() const;
};

template <typename T, typename... Members>
constexpr size_t Arity() {
  if constexpr (requires { T{Members{}..., AnyMember{}}; }) {
    return Arity<T, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

}  // namespace member_count_internal

/// The number of members of aggregate `T`. BP_WIRE (common/codec.h) and
/// BP_STATS (common/metrics.h) assert that their lists name every member.
template <typename T>
constexpr size_t kMemberCount = member_count_internal::Arity<T>();

}  // namespace blockplane

#endif  // BLOCKPLANE_COMMON_MACROS_H_
