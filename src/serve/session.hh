/**
 * @file
 * One client connection of aurora_serve: a util::FramedConn plus the
 * tenant and watch state of the client behind it.
 *
 * Sessions are owned by the server's poll loop and touched by no
 * other thread. A session is transport state only — tenant identity,
 * which grids it watches, and disconnect policy; all sweep state
 * lives in the server's grid table, so a session dying never
 * perturbs a grid beyond its own disconnect policy.
 */

#ifndef AURORA_SERVE_SESSION_HH
#define AURORA_SERVE_SESSION_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/frame.hh"
#include "wire.hh"

namespace aurora::serve
{

class Session
{
  public:
    explicit Session(util::Fd fd) : conn_(std::move(fd), wire::WIRE_MAGIC)
    {
    }

    /** The client's socket, inbound decoder and outbound frames. */
    util::FramedConn &conn() { return conn_; }

    /** Tenant from the Hello handshake; empty until greeted. */
    const std::string &tenant() const { return tenant_; }
    void setTenant(std::string tenant) { tenant_ = std::move(tenant); }
    bool greeted() const { return !tenant_.empty(); }

    /** Grids whose Results/Progress stream to this session. */
    std::vector<std::uint64_t> &watching() { return watching_; }
    /** Grids submitted on this connection (disconnect-policy scope:
     *  cancel_on_disconnect applies only to a grid's submitter). */
    std::vector<std::uint64_t> &submitted() { return submitted_; }

    void
    watch(std::uint64_t fingerprint)
    {
        if (!isWatching(fingerprint))
            watching_.push_back(fingerprint);
    }
    bool
    isWatching(std::uint64_t fingerprint) const
    {
        return std::find(watching_.begin(), watching_.end(),
                         fingerprint) != watching_.end();
    }

    /** Marked for teardown at the end of the current poll cycle. */
    bool dead() const { return dead_; }
    void markDead() { dead_ = true; }

  private:
    util::FramedConn conn_;
    std::string tenant_;
    std::vector<std::uint64_t> watching_;
    std::vector<std::uint64_t> submitted_;
    bool dead_ = false;
};

} // namespace aurora::serve

#endif // AURORA_SERVE_SESSION_HH
