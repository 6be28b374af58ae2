#include "wire.hh"

namespace aurora::serve::wire
{

std::string
frame(const std::string &payload)
{
    return util::frame(WIRE_MAGIC, payload);
}

void
sendFrame(int fd, const std::string &payload)
{
    util::sendFrame(fd, WIRE_MAGIC, payload);
}

} // namespace aurora::serve::wire
