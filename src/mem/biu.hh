/**
 * @file
 * Bus Interface Unit + secondary memory system model.
 *
 * The Aurora III BIU connects the IPU to the off-chip MMU over a
 * bidirectional 32-bit split-transaction bus clocked on both edges
 * (§2, [14]). For the resource study the paper abstracts the MMU and
 * main memory behind an *average secondary latency* of 17 or 35
 * cycles; this model does the same and adds the two properties that
 * matter to the mechanisms under study:
 *
 *  - finite bandwidth: each line transfer occupies the bus for a
 *    configurable number of cycles, so demand misses, prefetches and
 *    write-cache evictions compete;
 *  - finite buffering: the transmit queue bounds how many transactions
 *    can be outstanding, which is what starves prefetching in the
 *    small model (§5.2).
 */

#ifndef AURORA_MEM_BIU_HH
#define AURORA_MEM_BIU_HH

#include <vector>

#include "util/stats.hh"
#include "util/types.hh"

namespace aurora::mem
{

/** BIU and secondary memory timing parameters. */
struct BiuConfig
{
    /** Average secondary (MMU + memory) access latency in cycles. */
    Cycle latency = 17;
    /** Bus occupancy of one cache-line transfer, cycles. */
    Cycle line_occupancy = 4;
    /** Maximum simultaneously outstanding transactions. */
    unsigned queue_depth = 8;
    /**
     * Model the §2 collision-based protocol explicitly: a transmit
     * that starts while an inbound reply is landing collides and
     * retries. Off by default — the study's "average latency"
     * already folds protocol effects in, so enabling this is a
     * fidelity ablation, not the calibrated configuration.
     */
    bool model_collisions = false;
    /** Retry penalty when a collision occurs, cycles. */
    Cycle collision_penalty = 2;
};

/** Split-transaction bus with latency/bandwidth/queueing model. */
class Biu
{
  public:
    explicit Biu(const BiuConfig &config);

    /**
     * True when the transmit queue can take another transaction at
     * @p now. Prefetchers must check this and yield to demand traffic.
     */
    bool canAccept(Cycle now) const;

    /**
     * Issue a line read (demand miss or prefetch).
     *
     * @param now       issue cycle.
     * @param prefetch  statistical classification only.
     * @return cycle at which the line is fully on chip.
     */
    Cycle requestLine(Cycle now, bool prefetch);

    /**
     * Issue a write transaction (write-cache eviction). Writes are
     * fire-and-forget for the pipeline; they only consume bandwidth.
     */
    void postWrite(Cycle now);

    /**
     * Issue a non-data round trip (e.g. an MMU write-validation
     * query). Occupies one bus slot; returns the reply cycle.
     */
    Cycle roundTrip(Cycle now);

    /// @name Statistics
    /// @{
    Count demandReads() const { return demandReads_; }
    Count prefetchReads() const { return prefetchReads_; }
    Count writes() const { return writes_; }
    Count roundTrips() const { return roundTrips_; }
    /** Total cycles the bus spent transferring. */
    Cycle busyCycles() const { return busyCycles_; }
    /** Protocol collisions (when model_collisions is on). */
    Count collisions() const { return collisions_; }
    /// @}

    const BiuConfig &config() const { return config_; }

  private:
    /** Reserve the bus; returns the transfer start cycle. */
    Cycle reserve(Cycle now);

    BiuConfig config_;
    Cycle busFree_ = 0;
    /**
     * Completion times of in-flight reads, oldest first (collision
     * detection). A vector: it holds a handful of entries, and unlike
     * a deque it stops allocating once it has grown to them.
     */
    std::vector<Cycle> pendingReplies_;
    Count collisions_ = 0;
    Count demandReads_ = 0;
    Count prefetchReads_ = 0;
    Count writes_ = 0;
    Count roundTrips_ = 0;
    Cycle busyCycles_ = 0;
};

} // namespace aurora::mem

#endif // AURORA_MEM_BIU_HH
