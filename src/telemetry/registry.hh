/**
 * @file
 * Metrics registry: named counters, fixed-bucket histograms, and
 * point-in-time gauges.
 *
 * A Registry is the collection point for one run's metrics, in the
 * spirit of gem5's stats framework: every metric is registered with a
 * stable name and a one-line description, registration order is
 * preserved (so exports have a stable field order), and looking a
 * name up twice returns the same metric. The registry itself is
 * deterministic — it never reads clocks or the environment — and a
 * run that records into one produces bit-identical RunResults to a
 * run that does not (observers only read machine state; see
 * docs/observability.md).
 *
 * Not thread-safe: one registry belongs to one run/owner. Sweeps use
 * one registry per job.
 */

#ifndef AURORA_TELEMETRY_REGISTRY_HH
#define AURORA_TELEMETRY_REGISTRY_HH

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hh"
#include "util/types.hh"

namespace aurora::telemetry
{

/** One named monotonic counter. */
class Counter
{
  public:
    void add(Count delta = 1) { value_ += delta; }
    Count value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    Count value_ = 0;
};

/**
 * One named point-in-time gauge. Its owner samples it at exposition
 * time; each set() replaces every sample, so a label that is not set
 * again (a departed tenant) disappears from the next scrape.
 */
class Gauge
{
  public:
    struct Sample
    {
        /** Label value (tenant name, ...); empty = unlabeled. */
        std::string label;
        double value = 0.0;
    };

    /** One unlabeled sample. */
    void set(double value) { samples_.assign(1, Sample{{}, value}); }
    /** One sample per label value, in the order given. */
    void set(std::vector<Sample> samples) { samples_ = std::move(samples); }
    const std::vector<Sample> &samples() const { return samples_; }

  private:
    std::vector<Sample> samples_;
};

/** Ordered collection of named counters, histograms and gauges. */
class Registry
{
  public:
    struct CounterEntry
    {
        std::string name;
        std::string description;
        Counter counter;
    };

    struct HistogramEntry
    {
        HistogramEntry(std::string n, std::string d,
                       std::size_t num_buckets)
            : name(std::move(n)), description(std::move(d)),
              histogram(num_buckets)
        {}

        std::string name;
        std::string description;
        Histogram histogram;
    };

    struct GaugeEntry
    {
        std::string name;
        std::string description;
        /** Key of the samples' labels ("tenant"); empty = unlabeled. */
        std::string label_key;
        Gauge gauge;
    };

    /**
     * Find-or-create the counter @p name. The description is recorded
     * on first registration; later calls return the existing counter.
     */
    Counter &counter(std::string_view name,
                     std::string_view description);

    /**
     * Find-or-create the histogram @p name with @p num_buckets
     * unit-width buckets. Re-registering an existing name must agree
     * on the bucket count (panics otherwise — two metrics may not
     * share a name).
     */
    Histogram &histogram(std::string_view name,
                         std::string_view description,
                         std::size_t num_buckets);

    /**
     * Find-or-create the gauge @p name whose samples are labeled by
     * @p label_key (empty = unlabeled). Re-registering an existing
     * name must agree on the label key (panics otherwise).
     */
    Gauge &gauge(std::string_view name, std::string_view description,
                 std::string_view label_key = {});

    /** Registered counters, in registration order. */
    const std::deque<CounterEntry> &counters() const
    {
        return counters_;
    }
    /** Registered histograms, in registration order. */
    const std::deque<HistogramEntry> &histograms() const
    {
        return histograms_;
    }
    /** Registered gauges, in registration order. */
    const std::deque<GaugeEntry> &gauges() const { return gauges_; }

    /** Lookup without creating; nullptr when absent. */
    const Counter *findCounter(std::string_view name) const;
    /** Lookup without creating; nullptr when absent. */
    const Histogram *findHistogram(std::string_view name) const;

  private:
    // Deques keep metric addresses stable across registrations, so a
    // sampler can hold references while later metrics are added.
    std::deque<CounterEntry> counters_;
    std::deque<HistogramEntry> histograms_;
    std::deque<GaugeEntry> gauges_;
};

} // namespace aurora::telemetry

#endif // AURORA_TELEMETRY_REGISTRY_HH
