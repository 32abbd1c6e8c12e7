// Common definitions shared across the parpp library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace parpp {

/// Index type used for tensor extents and linearized offsets. Signed so that
/// reverse loops and differences are safe (Core Guidelines ES.107).
using index_t = std::int64_t;

/// Thrown on any precondition violation detected by PARPP_CHECK.
class error : public std::runtime_error {
 public:
  explicit error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
template <typename... Args>
[[noreturn]] inline void fail(const char* file, int line, const char* expr,
                              Args&&... args) {
  std::ostringstream os;
  os << "parpp check failed: " << expr << " at " << file << ":" << line;
  if constexpr (sizeof...(Args) > 0) {
    os << " — ";
    (os << ... << args);
  }
  throw error(os.str());
}
}  // namespace detail

}  // namespace parpp

// Precondition check that survives release builds (cheap, API-boundary use).
#define PARPP_CHECK(expr, ...)                                       \
  do {                                                               \
    if (!(expr)) {                                                   \
      ::parpp::detail::fail(__FILE__, __LINE__, #expr, ##__VA_ARGS__); \
    }                                                                \
  } while (0)

// Non-aliasing pointer marker for the register-blocked inner loops; the
// autovectorizer needs it to keep R-wide accumulators in registers.
#if defined(__GNUC__) || defined(__clang__)
#define PARPP_RESTRICT __restrict
#else
#define PARPP_RESTRICT
#endif

// Internal invariant check, compiled out unless PARPP_ENABLE_ASSERTS.
#if defined(PARPP_ENABLE_ASSERTS) && PARPP_ENABLE_ASSERTS
#define PARPP_ASSERT(expr, ...) PARPP_CHECK(expr, ##__VA_ARGS__)
#else
#define PARPP_ASSERT(expr, ...) ((void)0)
#endif
