#include "biu.hh"

#include <algorithm>

#include "util/logging.hh"

namespace aurora::mem
{

Biu::Biu(const BiuConfig &config)
    : config_(config)
{
    AURORA_ASSERT(config_.line_occupancy > 0,
                  "line transfer must occupy at least one bus cycle");
    AURORA_ASSERT(config_.queue_depth > 0,
                  "BIU queue depth must be positive");
}

bool
Biu::canAccept(Cycle now) const
{
    // The backlog ahead of a new transaction is (busFree_ - now)
    // cycles of transfer time; the queue is full when that backlog
    // already covers queue_depth transactions.
    if (busFree_ <= now)
        return true;
    return (busFree_ - now) <
           config_.queue_depth * config_.line_occupancy;
}

Cycle
Biu::reserve(Cycle now)
{
    Cycle start = busFree_ > now ? busFree_ : now;

    if (config_.model_collisions) {
        // Drop replies that have already landed.
        pendingReplies_.erase(
            pendingReplies_.begin(),
            std::find_if(pendingReplies_.begin(), pendingReplies_.end(),
                         [now](Cycle reply) { return reply > now; }));
        // A transmit that overlaps an inbound reply collides: both
        // sides back off and the transmit retries (§2's
        // collision-based protocol). One retry suffices in this
        // model because the reply has landed by then.
        for (const Cycle reply : pendingReplies_) {
            if (reply >= start &&
                reply < start + config_.line_occupancy) {
                ++collisions_;
                start = reply + config_.collision_penalty;
                break;
            }
        }
    }

    busFree_ = start + config_.line_occupancy;
    busyCycles_ += config_.line_occupancy;
    return start;
}

Cycle
Biu::requestLine(Cycle now, bool prefetch)
{
    if (prefetch)
        ++prefetchReads_;
    else
        ++demandReads_;
    const Cycle start = reserve(now);
    const Cycle done = start + config_.latency +
                       config_.line_occupancy;
    if (config_.model_collisions) {
        pendingReplies_.push_back(done);
        if (pendingReplies_.size() > 64)
            pendingReplies_.erase(pendingReplies_.begin());
    }
    return done;
}

void
Biu::postWrite(Cycle now)
{
    ++writes_;
    reserve(now);
}

Cycle
Biu::roundTrip(Cycle now)
{
    ++roundTrips_;
    const Cycle start = reserve(now);
    return start + config_.latency;
}

} // namespace aurora::mem
