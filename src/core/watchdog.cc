#include "watchdog.hh"

#include <sstream>

namespace aurora::core
{

std::string
WatchdogDiagnostic::toString() const
{
    std::ostringstream os;
    os << "machine '" << model << "' at cycle " << cycle << ": issued "
       << instructions << ", retired " << retired << " (last at cycle "
       << last_retire_cycle << "); rob " << rob_size << "/"
       << rob_capacity << ", fp_instq " << fp_instq_size << "/"
       << fp_instq_capacity << ", fp_loadq " << fp_loadq_size << "/"
       << fp_loadq_capacity << ", fp_storeq " << fp_storeq_size << "/"
       << fp_storeq_capacity << "; stalls";
    for (std::size_t c = 0; c < NUM_STALL_CAUSES; ++c)
        os << " " << stallCauseName(static_cast<StallCause>(c)) << "="
           << stalls[c];
    return os.str();
}

namespace
{

std::string
tripMessage(util::SimErrorCode code, const WatchdogDiagnostic &diag)
{
    std::ostringstream os;
    if (code == util::SimErrorCode::NoForwardProgress)
        os << "no instruction retired for " << diag.watchdog.stall_limit
           << " cycles; ";
    else if (code == util::SimErrorCode::Timeout)
        os << "wall-clock deadline of " << diag.watchdog.deadline_ms
           << " ms expired; ";
    else
        os << "cycle budget of " << diag.watchdog.cycle_budget
           << " exhausted; ";
    os << diag.toString();
    return os.str();
}

} // namespace

WatchdogError::WatchdogError(util::SimErrorCode code,
                             WatchdogDiagnostic diag)
    : util::SimError(code, tripMessage(code, diag)),
      diag_(std::move(diag))
{
}

} // namespace aurora::core
