/**
 * @file
 * Crash-durable flight recorder: the last-moments black box.
 *
 * Every fleet process (aurora_serve, the aurora_swarm coordinator,
 * each aurora_shardd worker) records structured NDJSON events —
 * schema `aurora.flight.v1`, a process-monotonic sequence number, and
 * reason codes reusing the AURxxx catalog — straight to the spool
 * file spoolTo() attaches, one write() per line as each event is
 * recorded, so even a SIGKILL — which no handler can observe — leaves
 * the complete event history on disk for the post-mortem reader.
 * Nothing is kept in memory: an event noted before spoolTo() (or
 * without one) is counted and dropped, so each process attaches its
 * spool before its first note().
 *
 * dump() is the signal-safe epilogue for the deaths that *can* be
 * observed (SIGTERM drain, fatal SimError, atexit): it appends a
 * single `flight.dump` marker line using only write() and a
 * sig_atomic_t reentrancy guard — no locks, no allocation, no stdio
 * — as required inside a signal handler.
 *
 * loadFlightFile() is the tolerant reader: a torn final line (the
 * crash happened mid-append) is dropped, exactly like the sweep
 * journal's tail contract. readNdjsonFile() is that reader's line
 * loop, shared with the span file reader (obs/trace.hh).
 */

#ifndef AURORA_OBS_FLIGHT_HH
#define AURORA_OBS_FLIGHT_HH

#include <atomic>
#include <csignal>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace aurora::obs
{

/** One parsed `aurora.flight.v1` event. */
struct FlightEvent
{
    std::uint64_t seq = 0;
    /** Milliseconds since the recorder's construction. */
    std::uint64_t ms = 0;
    /** Stable event name ("lease.grant", "fence", "assign", ...). */
    std::string event;
    /** AURxxx catalog id when the event has one, else empty. */
    std::string code;
    std::string detail;
};

/** Write-through event recorder. */
class FlightRecorder
{
  public:
    FlightRecorder();
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Record one event: claim the next sequence number and, when a
     * spool file is attached, render it and write it through with a
     * single write() call. Thread-safe.
     */
    void note(std::string_view event, std::string_view code = {},
              std::string_view detail = {});

    /**
     * Attach the crash-durable spool file at @p path (truncating) and
     * write every later note() through. Raises SimError(BadTrace) on
     * open failure.
     */
    void spoolTo(const std::string &path);

    /**
     * Append a `flight.dump` marker naming @p reason to the spool
     * file. Async-signal-safe: write()-only, no locks, no
     * allocation; reentry (a signal landing inside dump) is dropped
     * by a sig_atomic_t guard. No-op when no spool file is attached.
     * The marker cannot claim a sequence number (that would need the
     * note mutex), so it carries the seq of the *next* event — file
     * seqs are monotone non-decreasing, not unique, across a dump.
     */
    void dump(const char *reason) noexcept;

    /** Next sequence number (== events recorded so far). */
    std::uint64_t seq() const
    {
        return seq_.load(std::memory_order_relaxed);
    }

    /** Spool fd, -1 before spoolTo() (tests assert the write-through
     *  path). */
    int spoolFd() const
    {
        return fd_.load(std::memory_order_relaxed);
    }

  private:
    /** Milliseconds since construction via clock_gettime (usable from
     *  both the locked path and, being syscall-only, dump()). */
    std::uint64_t elapsedMs() const;

    /** CLOCK_MONOTONIC at construction, in nanoseconds. */
    std::uint64_t epoch_ns_ = 0;
    std::atomic<std::uint64_t> seq_{0};
    std::atomic<int> fd_{-1};
    /** Reentrancy guard for the signal-path dump(). */
    volatile std::sig_atomic_t dumping_ = 0;
    /** Orders seq claims with spool writes. */
    std::mutex mutex_;
};

/** loadFlightFile() result. */
struct LoadedFlight
{
    std::vector<FlightEvent> events;
    /** A torn trailing line was dropped (crash mid-append). */
    bool dropped_tail = false;
};

/**
 * Read an `aurora.flight.v1` file. Torn final line dropped; missing
 * file or mid-file corruption raises SimError(BadTrace) with the
 * byte offset.
 */
LoadedFlight loadFlightFile(const std::string &path);

/**
 * Read the NDJSON file @p path line by line: @p parse gets each
 * non-empty line and returns false, with its error message set, on a
 * bad one. A bad final line without a newline is a torn tail (a crash
 * mid-append) and ends the read: returns true. A missing file, or a
 * bad line anywhere else, raises SimError(BadTrace) naming the
 * @p kind of file ("span", "flight") and the line's byte offset.
 */
bool readNdjsonFile(
    const std::string &path, const char *kind,
    const std::function<bool(std::string_view, std::string &)> &parse);

} // namespace aurora::obs

#endif // AURORA_OBS_FLIGHT_HH
