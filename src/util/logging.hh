/**
 * @file
 * Error and status reporting helpers.
 *
 * Follows the gem5 convention: panic() for conditions that indicate a
 * bug in the simulator itself (aborts, so a debugger or core dump can
 * capture the state); fatal() for user errors such as an inconsistent
 * configuration (clean exit with an error code); warn()/inform() for
 * non-fatal status messages.
 */

#ifndef AURORA_UTIL_LOGGING_HH
#define AURORA_UTIL_LOGGING_HH

#include <sstream>
#include <string>

namespace aurora
{

/** Internal: terminate via abort() with a formatted message. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Internal: terminate via exit(1) with a formatted message. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning to stderr; execution continues. */
void warn(const std::string &msg);

/** Print an informational message to stderr; execution continues. */
void inform(const std::string &msg);

namespace detail
{

/**
 * Fold a pack of streamable values into one string. Never inlined:
 * every AURORA_ASSERT in a per-cycle path expands to a call here, and
 * an inlined ostringstream at each site would bloat those paths.
 */
template <typename... Args>
[[gnu::noinline]] std::string
concat(Args &&...args)
{
    std::ostringstream os;
    // void-cast: with an empty pack the fold collapses to plain `os`,
    // which -Wunused-value would otherwise flag.
    static_cast<void>((os << ... << std::forward<Args>(args)));
    return os.str();
}

} // namespace detail

} // namespace aurora

/** Simulator-bug assertion: message then abort(). */
#define AURORA_PANIC(...) \
    ::aurora::panicImpl(__FILE__, __LINE__, \
                        ::aurora::detail::concat(__VA_ARGS__))

/** User-error termination: message then exit(1). */
#define AURORA_FATAL(...) \
    ::aurora::fatalImpl(__FILE__, __LINE__, \
                        ::aurora::detail::concat(__VA_ARGS__))

/** Invariant check that survives NDEBUG builds. */
#define AURORA_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            AURORA_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__); \
        } \
    } while (0)

#endif // AURORA_UTIL_LOGGING_HH
