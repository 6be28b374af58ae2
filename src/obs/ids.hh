/**
 * @file
 * Deterministic trace/span identity derivation for fleet tracing.
 *
 * A grid's 64-bit trace id is minted once — at Submit admission in
 * aurora_serve or at grid start in aurora_swarm — and every process
 * that touches the grid derives its span ids from (trace id, stable
 * coordinates) with the pure functions below. Only the trace id ever
 * crosses the wire: the coordinator and a shard compute the *same*
 * span id for the same dispatch independently, which is what lets a
 * merged Chrome trace parent a shard's attempt spans under the
 * coordinator's dispatch span without any id-exchange protocol.
 *
 * Identity scheme (parent → child):
 *
 *     rootSpanId(trace)                 = trace            (parent 0)
 *       stageSpanId(trace, name)        admission / merge  (parent root)
 *       jobSpanId(trace, job)           queue+run of job   (parent root)
 *         attemptSpanId(trace, job, k)  one attempt        (parent job)
 *       leaseSpanId(trace, epoch)       one shard lease    (parent root)
 *         dispatchSpanId(trace, j, e)   job j on epoch e   (parent lease)
 *           attemptSpanId(.., epoch=e)  shard-side attempt (parent dispatch)
 *
 * All ids are nonzero; 0 is the reserved "no parent" / "no trace"
 * sentinel throughout the wire protocols and span records.
 */

#ifndef AURORA_OBS_IDS_HH
#define AURORA_OBS_IDS_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace aurora::obs
{

/** splitmix64 finalizer — the repo-standard bit mixer. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

namespace detail
{

/** Domain-separation salts: one per span family so e.g. job 5 and
 *  lease epoch 5 can never collide. */
enum : std::uint64_t
{
    FAMILY_JOB = 0x6f62732e6a6f6221ull,
    FAMILY_ATTEMPT = 0x6f62732e61747421ull,
    FAMILY_LEASE = 0x6f62732e6c736521ull,
    FAMILY_DISPATCH = 0x6f62732e64737021ull,
    FAMILY_STAGE = 0x6f62732e73746721ull,
};

constexpr std::uint64_t
derive(std::uint64_t trace, std::uint64_t family, std::uint64_t a,
       std::uint64_t b = 0)
{
    std::uint64_t x = mix64(trace ^ family);
    x = mix64(x ^ a);
    x = mix64(x ^ b);
    return x ? x : 1;
}

constexpr std::uint64_t
fnv1a64(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace detail

/**
 * Mint the grid's trace id from its content fingerprint. Pure, so a
 * SIGKILL-resumed daemon re-mints the identical id from the spooled
 * manifest without any new persistent field. Never returns 0.
 */
constexpr std::uint64_t
traceIdForGrid(std::uint64_t fingerprint)
{
    const std::uint64_t id = mix64(fingerprint ^ 0x6175726f72612e31ull);
    return id ? id : 1;
}

/** The grid-wide root span: its id *is* the trace id (parent 0). */
constexpr std::uint64_t
rootSpanId(std::uint64_t trace_id)
{
    return trace_id;
}

/** Named one-off stage under the root ("admission", "merge", ...). */
constexpr std::uint64_t
stageSpanId(std::uint64_t trace_id, std::string_view stage)
{
    return detail::derive(trace_id, detail::FAMILY_STAGE,
                          detail::fnv1a64(stage));
}

/** Queue-to-completion span of one grid job (parent = root). */
constexpr std::uint64_t
jobSpanId(std::uint64_t trace_id, std::uint64_t job_index)
{
    return detail::derive(trace_id, detail::FAMILY_JOB, job_index);
}

/**
 * One execution attempt of a job. @p epoch distinguishes shard
 * incarnations (a migrated job may run attempt 1 on two epochs);
 * worker-pool attempts use epoch 0.
 */
constexpr std::uint64_t
attemptSpanId(std::uint64_t trace_id, std::uint64_t job_index,
              std::uint64_t attempt, std::uint64_t epoch = 0)
{
    return detail::derive(trace_id, detail::FAMILY_ATTEMPT, job_index,
                          (attempt << 32) ^ epoch);
}

/** Lifetime of one shard lease epoch (parent = root). */
constexpr std::uint64_t
leaseSpanId(std::uint64_t trace_id, std::uint64_t epoch)
{
    return detail::derive(trace_id, detail::FAMILY_LEASE, epoch);
}

/**
 * One grid job assigned under one lease epoch (parent = that lease).
 * Migration re-dispatches the same job under a new epoch — a new
 * span, so both placements stay visible in the trace.
 */
constexpr std::uint64_t
dispatchSpanId(std::uint64_t trace_id, std::uint64_t job_index,
               std::uint64_t epoch)
{
    return detail::derive(trace_id, detail::FAMILY_DISPATCH, job_index,
                          epoch);
}

/** "0x%016x" rendering — u64 ids survive JSON only as strings. */
inline std::string
hexId(std::uint64_t id)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(id));
    return std::string(buf);
}

} // namespace aurora::obs

#endif // AURORA_OBS_IDS_HH
