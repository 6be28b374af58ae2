/**
 * @file
 * One client connection of aurora_serve: socket + frame decoder +
 * buffered outbound frames.
 *
 * Sessions are owned by the server's poll loop and touched by no
 * other thread. A session is transport state only — tenant identity,
 * which grids it watches, and disconnect policy; all sweep state
 * lives in the server's grid table, so a session dying never
 * perturbs a grid beyond its own disconnect policy.
 */

#ifndef AURORA_SERVE_SESSION_HH
#define AURORA_SERVE_SESSION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/socket.hh"
#include "wire.hh"

namespace aurora::serve
{

class Session
{
  public:
    explicit Session(util::Fd fd);

    int fd() const { return fd_.get(); }

    /** Inbound: raw socket bytes → framed payloads. */
    wire::FrameDecoder &decoder() { return decoder_; }

    /** Queue one payload for asynchronous delivery. */
    void queueFrame(const std::string &payload);

    /**
     * Push buffered bytes to the socket (non-blocking). Returns false
     * when the peer is gone; true otherwise. wantsWrite() tells the
     * poll loop whether POLLOUT should stay armed.
     */
    bool flush();

    bool wantsWrite() const { return out_pos_ < out_.size(); }

    /** Tenant from the Hello handshake; empty until greeted. */
    const std::string &tenant() const { return tenant_; }
    void setTenant(std::string tenant) { tenant_ = std::move(tenant); }
    bool greeted() const { return !tenant_.empty(); }

    /** Grids whose Results/Progress stream to this session. */
    std::vector<std::uint64_t> &watching() { return watching_; }
    /** Grids submitted on this connection (disconnect-policy scope:
     *  cancel_on_disconnect applies only to a grid's submitter). */
    std::vector<std::uint64_t> &submitted() { return submitted_; }

    void watch(std::uint64_t fingerprint);
    bool isWatching(std::uint64_t fingerprint) const;

    /** Marked for teardown at the end of the current poll cycle. */
    bool dead() const { return dead_; }
    void markDead() { dead_ = true; }

  private:
    util::Fd fd_;
    wire::FrameDecoder decoder_;
    std::string out_;
    std::size_t out_pos_ = 0;
    std::string tenant_;
    std::vector<std::uint64_t> watching_;
    std::vector<std::uint64_t> submitted_;
    bool dead_ = false;
};

} // namespace aurora::serve

#endif // AURORA_SERVE_SESSION_HH
