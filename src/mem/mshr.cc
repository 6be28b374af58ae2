#include "mshr.hh"

#include "util/logging.hh"

namespace aurora::mem
{

MshrFile::MshrFile(unsigned num_entries)
{
    AURORA_ASSERT(num_entries > 0, "MSHR file needs at least one entry");
    entries_.resize(num_entries);
}

const MshrFile::Entry *
MshrFile::find(Addr line) const
{
    for (const Entry &entry : entries_)
        if (entry.valid && entry.line == line)
            return &entry;
    return nullptr;
}

void
MshrFile::allocate(Addr line, Cycle ready)
{
    for (Entry &entry : entries_) {
        if (entry.valid)
            continue;
        entry = {line, ready, true};
        if (ready < nextReady_)
            nextReady_ = ready;
        ++inUse_;
        ++allocations_;
        return;
    }
    AURORA_PANIC("MSHR allocate with no free entry");
}

} // namespace aurora::mem
