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

#include <cstddef>
#include <vector>

#include "logging.hh"

namespace aurora
{

/** Circular-buffer FIFO with a hard capacity. */
template <typename T>
class BoundedQueue
{
  public:
    /** @param capacity maximum number of buffered entries; must be >0. */
    explicit BoundedQueue(std::size_t capacity)
        : buf_(capacity), capacity_(capacity)
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
     * Entry at FIFO position @p idx (0 == front). Used by the FPU dual
     * issue logic, which needs to look one below the head of the
     * instruction queue.
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

    /** Discard all entries. */
    void
    clear()
    {
        head_ = tail_ = 0;
        count_ = 0;
    }

  private:
    /**
     * Reduce a slot index below 2 * capacity into the ring. Capacities
     * are not all powers of two, and a compare is cheaper than the
     * division `%` would cost on every push, pop and at().
     */
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= capacity_ ? i - capacity_ : i;
    }

    std::vector<T> buf_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
    std::size_t count_ = 0;
};

} // namespace aurora

#endif // AURORA_UTIL_BOUNDED_QUEUE_HH
