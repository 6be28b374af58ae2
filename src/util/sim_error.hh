/**
 * @file
 * Structured error model for recoverable failures.
 *
 * The design-space sweeps run thousands of (machine, workload) points,
 * many of them degenerate by construction. A bad point must be
 * *reportable* — caught, classified, and attached to its grid slot —
 * rather than killing the process the way AURORA_FATAL's exit(1) does.
 * Every recoverable user-error path (configuration parsing, trace IO,
 * CLI arguments, watchdog trips) therefore throws SimError with a
 * machine-readable code; AURORA_PANIC remains reserved for genuine
 * simulator bugs, where aborting with the state intact is the right
 * call.
 */

#ifndef AURORA_UTIL_SIM_ERROR_HH
#define AURORA_UTIL_SIM_ERROR_HH

#include <stdexcept>
#include <string>
#include <utility>

#include "logging.hh"

namespace aurora::util
{

/** Machine-readable classification of a recoverable failure. */
enum class SimErrorCode
{
    /** Invalid machine configuration or CLI/spec parse error. */
    BadConfig,
    /** Unreadable, corrupt, or truncated trace file. */
    BadTrace,
    /** Watchdog: no instruction retired for the configured window. */
    NoForwardProgress,
    /** Watchdog: the hard cycle budget was exhausted. */
    CycleBudgetExceeded,
    /** Watchdog: the per-job wall-clock deadline expired. */
    Timeout,
    /** Corrupt, mismatched, or unreadable sweep journal. */
    BadJournal,
    /** Unclassified failure escaping a sweep job. */
    Internal,
    /** Job cancelled before execution (client cancel / drain). */
    Cancelled,
    /** Service admission refused: quota or queue depth exhausted. */
    Overloaded,
    /** Socket transport or wire-protocol failure (aurora_serve). */
    BadWire,
};

/** Last SimErrorCode: record codecs range-check decoded codes
 *  against it (util/codec.hh). */
constexpr SimErrorCode
enumLimit(SimErrorCode)
{
    return SimErrorCode::BadWire;
}

/** Stable display name of @p code ("BadConfig", ...). */
const char *errorCodeName(SimErrorCode code);

/**
 * A recoverable simulation error. what() carries "[Code] message" so a
 * one-line diagnostic needs no further formatting; message() is the
 * bare text for callers that render the code themselves.
 */
class SimError : public std::runtime_error
{
  public:
    SimError(SimErrorCode code, std::string message);

    SimErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

  private:
    SimErrorCode code_;
    std::string message_;
};

/** Throw a SimError built from streamable message parts. */
template <typename... Args>
[[noreturn]] inline void
raiseError(SimErrorCode code, Args &&...args)
{
    throw SimError(code, detail::concat(std::forward<Args>(args)...));
}

} // namespace aurora::util

#endif // AURORA_UTIL_SIM_ERROR_HH
