/**
 * @file
 * Logging and error-reporting primitives (gem5-style).
 *
 * panic()  — an internal invariant was violated: a bug in this code base.
 * fatal()  — the user asked for something impossible (bad configuration).
 * warn()   — something is off but the run can continue.
 */

#ifndef FLEXOS_BASE_LOGGING_HH
#define FLEXOS_BASE_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace flexos {

/** Exception carrying a panic (internal bug) report. */
class PanicError : public std::runtime_error
{
  public:
    explicit PanicError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Exception carrying a fatal (user error) report. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const char *file, int line, const std::string &msg);

/** Build a message from stream-style arguments. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

} // namespace flexos

/** Report an internal bug and abort the computation (throws PanicError). */
#define panic(...)                                                          \
    ::flexos::detail::panicImpl(__FILE__, __LINE__,                         \
        ::flexos::detail::formatMessage(__VA_ARGS__))

/** Report an unusable user configuration (throws FatalError). */
#define fatal(...)                                                          \
    ::flexos::detail::fatalImpl(__FILE__, __LINE__,                         \
        ::flexos::detail::formatMessage(__VA_ARGS__))

/** Report a recoverable anomaly. */
#define warn(...)                                                           \
    ::flexos::detail::warnImpl(__FILE__, __LINE__,                          \
        ::flexos::detail::formatMessage(__VA_ARGS__))

/** panic() unless the given invariant condition holds. */
#define panic_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond)                                                           \
            panic(__VA_ARGS__);                                             \
    } while (0)

/** fatal() unless the given user-facing condition holds. */
#define fatal_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond)                                                           \
            fatal(__VA_ARGS__);                                             \
    } while (0)

#endif // FLEXOS_BASE_LOGGING_HH
