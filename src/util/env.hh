/**
 * @file
 * Strict environment-variable parsing.
 *
 * Experiment knobs arrive through environment variables
 * (AURORA_BENCH_INSTS, AURORA_JOBS, ...). A silently misparsed value
 * is worse than a fatal one — strtoull("2OOOOO") yielding 2 would
 * quietly turn a benchmark into a no-op — so every lookup goes
 * through parseCount(), which accepts only a complete non-negative
 * decimal number and reports anything else as absent. Command-line
 * tools parse their numeric flags through countOption(), the same
 * rule made fatal.
 */

#ifndef AURORA_UTIL_ENV_HH
#define AURORA_UTIL_ENV_HH

#include <limits>
#include <optional>
#include <string>

#include "sim_error.hh"
#include "types.hh"

namespace aurora
{

/**
 * Parse @p text as a non-negative decimal count. Leading/trailing
 * whitespace is permitted; anything else — empty string, signs,
 * trailing garbage, hex, overflow — yields nullopt.
 */
std::optional<Count> parseCount(const std::string &text);

/**
 * Parse the value @p text of command-line option @p option as a count
 * of type @p T. Anything parseCount() rejects, or a value above T's
 * maximum, raises SimError(BadConfig): "-1" never wraps to a huge
 * count and "4294967296" never truncates into 32 bits.
 */
template <typename T = Count>
T
countOption(const std::string &option, const std::string &text)
{
    const std::optional<Count> parsed = parseCount(text);
    if (!parsed || *parsed > std::numeric_limits<T>::max())
        util::raiseError(util::SimErrorCode::BadConfig, "option ", option,
                         ": bad numeric value '", text,
                         "' (accepted: a decimal integer from 0 to ",
                         std::numeric_limits<T>::max(), ")");
    return static_cast<T>(*parsed);
}

/**
 * Read environment variable @p name as a count.
 *
 * Returns @p fallback when the variable is unset. A set-but-malformed
 * value, or a parsed value below @p min, emits a warning and also
 * returns @p fallback (never a silently clamped or zero result).
 */
Count envCount(const char *name, Count fallback, Count min = 1);

/**
 * Read environment variable @p name as a boolean flag.
 *
 * Accepted values: "1"/"on"/"true" and "0"/"off"/"false". Unset
 * returns @p fallback; a set-but-unrecognized value warns and also
 * returns @p fallback. The variable is read on every call (never
 * cached) so tests may toggle flags with setenv().
 */
bool envFlag(const char *name, bool fallback);

/**
 * Read environment variable @p name as a string. Unset or empty
 * returns nullopt — an empty value cannot be distinguished from a
 * forgotten `VAR=` in a launcher script, so both are "absent".
 */
std::optional<std::string> envString(const char *name);

} // namespace aurora

#endif // AURORA_UTIL_ENV_HH
