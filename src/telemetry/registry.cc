#include "registry.hh"

#include "util/logging.hh"

namespace aurora::telemetry
{

Counter &
Registry::counter(std::string_view name, std::string_view description)
{
    for (CounterEntry &entry : counters_)
        if (entry.name == name)
            return entry.counter;
    counters_.push_back(
        {std::string(name), std::string(description), Counter{}});
    return counters_.back().counter;
}

Histogram &
Registry::histogram(std::string_view name, std::string_view description,
                    std::size_t num_buckets)
{
    for (HistogramEntry &entry : histograms_)
        if (entry.name == name) {
            AURORA_ASSERT(entry.histogram.numBuckets() == num_buckets,
                          "histogram '", entry.name,
                          "' re-registered with ", num_buckets,
                          " buckets (was ",
                          entry.histogram.numBuckets(), ")");
            return entry.histogram;
        }
    histograms_.emplace_back(std::string(name),
                             std::string(description), num_buckets);
    return histograms_.back().histogram;
}

Gauge &
Registry::gauge(std::string_view name, std::string_view description,
                std::string_view label_key)
{
    for (GaugeEntry &entry : gauges_)
        if (entry.name == name) {
            AURORA_ASSERT(entry.label_key == label_key, "gauge '",
                          entry.name, "' re-registered with label key '",
                          label_key, "' (was '", entry.label_key, "')");
            return entry.gauge;
        }
    gauges_.push_back({std::string(name), std::string(description),
                       std::string(label_key), Gauge{}});
    return gauges_.back().gauge;
}

const Counter *
Registry::findCounter(std::string_view name) const
{
    for (const CounterEntry &entry : counters_)
        if (entry.name == name)
            return &entry.counter;
    return nullptr;
}

const Histogram *
Registry::findHistogram(std::string_view name) const
{
    for (const HistogramEntry &entry : histograms_)
        if (entry.name == name)
            return &entry.histogram;
    return nullptr;
}

} // namespace aurora::telemetry
