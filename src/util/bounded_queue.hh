/**
 * @file
 * Fixed-capacity FIFO used to model hardware queues (FPU decoupling
 * queues, BIU transmit/receive queues, fetch buffers).
 *
 * Unlike std::queue, capacity is part of the model: push on a full
 * queue is a simulator bug (the pipeline must stall instead), so it
 * panics rather than growing.
 */

#ifndef AURORA_UTIL_BOUNDED_QUEUE_HH
#define AURORA_UTIL_BOUNDED_QUEUE_HH

#include <bit>
#include <cstddef>
#include <vector>

#include "logging.hh"

namespace aurora
{

/**
 * Circular-buffer FIFO with a hard capacity. The ring behind it is
 * rounded up to a power of two, so an index wraps with a mask; full()
 * still answers at the capacity, never at the ring's size.
 */
template <typename T>
class BoundedQueue
{
  public:
    /** @param capacity maximum number of buffered entries; must be >0. */
    explicit BoundedQueue(std::size_t capacity)
        : buf_(std::bit_ceil(capacity)), capacity_(capacity),
          mask_(buf_.size() - 1)
    {
        AURORA_ASSERT(capacity > 0, "queue capacity must be positive");
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == capacity_; }
    /** Free slots remaining. */
    std::size_t space() const { return capacity_ - count_; }

    /** Enqueue; the queue must not be full. */
    void
    push(const T &value)
    {
        AURORA_ASSERT(!full(), "push on a full bounded queue");
        buf_[tail_] = value;
        tail_ = wrap(tail_ + 1);
        ++count_;
    }

    /** Oldest entry; the queue must not be empty. */
    T &
    front()
    {
        AURORA_ASSERT(!empty(), "front of an empty bounded queue");
        return buf_[head_];
    }

    const T &
    front() const
    {
        AURORA_ASSERT(!empty(), "front of an empty bounded queue");
        return buf_[head_];
    }

    /**
     * Entry at FIFO position @p idx (0 == front). The FPU's dual issue
     * logic reads one below the head of its instruction queue, and the
     * IFU's peek() reads the issue stage's instructions in place.
     */
    T &
    at(std::size_t idx)
    {
        AURORA_ASSERT(idx < count_, "bounded queue index out of range");
        return buf_[wrap(head_ + idx)];
    }

    const T &
    at(std::size_t idx) const
    {
        AURORA_ASSERT(idx < count_, "bounded queue index out of range");
        return buf_[wrap(head_ + idx)];
    }

    /** Dequeue and return the oldest entry. */
    T
    pop()
    {
        AURORA_ASSERT(!empty(), "pop of an empty bounded queue");
        T value = std::move(buf_[head_]);
        head_ = wrap(head_ + 1);
        --count_;
        return value;
    }

    /** Discard the @p n oldest entries; the queue must hold them. */
    void
    drop(std::size_t n)
    {
        AURORA_ASSERT(n <= count_, "drop past the end of a bounded queue");
        head_ = wrap(head_ + n);
        count_ -= n;
    }

    /** Discard all entries. */
    void
    clear()
    {
        head_ = tail_ = 0;
        count_ = 0;
    }

  private:
    /**
     * Reduce a slot index into the ring. Capacities are not all powers
     * of two, but the ring is, so a mask does what a compare or the
     * division `%` would cost on every push, pop and at().
     */
    std::size_t wrap(std::size_t i) const { return i & mask_; }

    std::vector<T> buf_;
    std::size_t capacity_;
    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
    std::size_t count_ = 0;
};

} // namespace aurora

#endif // AURORA_UTIL_BOUNDED_QUEUE_HH
