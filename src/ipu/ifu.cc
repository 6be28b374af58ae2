#include "ifu.hh"

#include "util/logging.hh"

namespace aurora::ipu
{

Ifu::Ifu(const IfuConfig &config, trace::TraceSource &source,
         mem::PrefetchUnit &prefetch)
    : config_(config), source_(source), prefetch_(prefetch),
      icache_(config.icache_bytes, config.line_bytes),
      buffer_(config.buffer_entries)
{
    AURORA_ASSERT(config_.fetch_width >= 1 && config_.fetch_width <= 2,
                  "fetch width must be 1 or 2");
    pump();
}

} // namespace aurora::ipu
