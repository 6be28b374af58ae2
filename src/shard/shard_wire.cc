#include "shard_wire.hh"

namespace aurora::shard::wire
{

std::string
frame(const std::string &payload)
{
    return util::frame(SHARD_MAGIC, payload);
}

void
sendFrame(int fd, const std::string &payload)
{
    util::sendFrame(fd, SHARD_MAGIC, payload);
}

} // namespace aurora::shard::wire
