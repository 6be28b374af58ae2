#include "flight.hh"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "telemetry/json.hh"
#include "util/sim_error.hh"

namespace aurora::obs
{

namespace
{

std::uint64_t
monotonicNs()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/** Hand-rolled u64 → decimal for the signal path (no snprintf). */
std::size_t
renderU64(std::uint64_t value, char *out)
{
    char tmp[20];
    std::size_t n = 0;
    do {
        tmp[n++] = static_cast<char>('0' + value % 10);
        value /= 10;
    } while (value != 0);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = tmp[n - 1 - i];
    return n;
}

} // namespace

FlightRecorder::FlightRecorder() : epoch_ns_(monotonicNs()) {}

FlightRecorder::~FlightRecorder()
{
    const int fd = fd_.exchange(-1, std::memory_order_relaxed);
    if (fd >= 0)
        ::close(fd);
}

std::uint64_t
FlightRecorder::elapsedMs() const
{
    return (monotonicNs() - epoch_ns_) / 1'000'000ull;
}

void
FlightRecorder::note(std::string_view event, std::string_view code,
                     std::string_view detail)
{
    if (fd_.load(std::memory_order_relaxed) < 0) {
        seq_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    std::ostringstream os;
    // seq is claimed under the mutex below so file order and the
    // numbering agree; render with a placeholder first.
    os << "\"ms\": " << elapsedMs() << ", \"event\": \""
       << telemetry::jsonEscape(event) << '"';
    if (!code.empty())
        os << ", \"code\": \"" << telemetry::jsonEscape(code) << '"';
    if (!detail.empty())
        os << ", \"detail\": \"" << telemetry::jsonEscape(detail)
           << '"';
    const std::string tail = os.str();

    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t seq = seq_.fetch_add(1,
                                             std::memory_order_relaxed);
    const std::string line = "{\"schema\": \"aurora.flight.v1\", "
                             "\"seq\": " +
                             std::to_string(seq) + ", " + tail + "}\n";
    // One write() per event: a SIGKILL between events never tears
    // more than the line in flight (the reader's tail contract).
    (void)!::write(fd_.load(std::memory_order_relaxed), line.data(),
                   line.size());
}

void
FlightRecorder::spoolTo(const std::string &path)
{
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_APPEND
                              | O_CLOEXEC,
                          0644);
    if (fd < 0)
        util::raiseError(util::SimErrorCode::BadTrace,
                         "cannot open flight spool '", path,
                         "': ", std::strerror(errno));
    const std::lock_guard<std::mutex> lock(mutex_);
    const int old = fd_.exchange(fd, std::memory_order_relaxed);
    if (old >= 0)
        ::close(old);
}

void
FlightRecorder::dump(const char *reason) noexcept
{
    const int fd = fd_.load(std::memory_order_relaxed);
    if (fd < 0)
        return;
    if (dumping_)
        return;
    dumping_ = 1;

    // Assembled with memcpy + a hand-rolled integer renderer only:
    // this runs inside signal handlers, where snprintf/malloc/locks
    // are all off the table.
    char buf[512];
    std::size_t n = 0;
    const auto put = [&](const char *text) {
        const std::size_t len = std::strlen(text);
        if (n + len < sizeof(buf)) {
            std::memcpy(buf + n, text, len);
            n += len;
        }
    };
    put("{\"schema\": \"aurora.flight.v1\", \"seq\": ");
    char num[20];
    const std::size_t digits =
        renderU64(seq_.load(std::memory_order_relaxed), num);
    if (n + digits < sizeof(buf)) {
        std::memcpy(buf + n, num, digits);
        n += digits;
    }
    put(", \"event\": \"flight.dump\", \"detail\": \"");
    if (reason)
        put(reason);
    put("\"}\n");
    (void)!::write(fd, buf, n);
    dumping_ = 0;
}

namespace
{

std::optional<FlightEvent>
parseFlightLine(std::string_view line, std::string *error)
{
    const std::optional<telemetry::JsonValue> doc =
        telemetry::parseJson(line, error);
    if (!doc)
        return std::nullopt;
    if (!doc->isObject()) {
        if (error)
            *error = "flight line is not a JSON object";
        return std::nullopt;
    }
    const telemetry::JsonValue *schema = doc->find("schema");
    if (!schema || !schema->isString() ||
        schema->string != "aurora.flight.v1") {
        if (error)
            *error = "missing or unknown flight schema tag";
        return std::nullopt;
    }
    const telemetry::JsonValue *seq = doc->find("seq");
    const telemetry::JsonValue *event = doc->find("event");
    if (!seq || !seq->isNumber() || !event || !event->isString()) {
        if (error)
            *error = "flight line missing seq or event";
        return std::nullopt;
    }
    FlightEvent ev;
    ev.seq = static_cast<std::uint64_t>(seq->number);
    ev.event = event->string;
    if (const telemetry::JsonValue *ms = doc->find("ms");
        ms && ms->isNumber())
        ev.ms = static_cast<std::uint64_t>(ms->number);
    if (const telemetry::JsonValue *code = doc->find("code");
        code && code->isString())
        ev.code = code->string;
    if (const telemetry::JsonValue *detail = doc->find("detail");
        detail && detail->isString())
        ev.detail = detail->string;
    return ev;
}

} // namespace

bool
readNdjsonFile(
    const std::string &path, const char *kind,
    const std::function<bool(std::string_view, std::string &)> &parse)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::raiseError(util::SimErrorCode::BadTrace, "cannot open ",
                         kind, " file '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        const bool torn_candidate = eol == std::string::npos;
        const std::string_view line(
            text.data() + pos,
            (torn_candidate ? text.size() : eol) - pos);
        const std::size_t line_start = pos;
        pos = torn_candidate ? text.size() : eol + 1;
        if (line.empty())
            continue;
        std::string error;
        if (parse(line, error))
            continue;
        // The journal's crash contract: an interrupted final append
        // (no terminating newline) is dropped silently; damage
        // anywhere else is real corruption.
        if (torn_candidate)
            return true;
        util::raiseError(util::SimErrorCode::BadTrace, "'", path,
                         "': bad ", kind, " line at byte ", line_start,
                         ": ", error);
    }
    return false;
}

LoadedFlight
loadFlightFile(const std::string &path)
{
    LoadedFlight loaded;
    loaded.dropped_tail = readNdjsonFile(
        path, "flight", [&](std::string_view line, std::string &error) {
            std::optional<FlightEvent> ev = parseFlightLine(line, &error);
            if (ev)
                loaded.events.push_back(std::move(*ev));
            return ev.has_value();
        });
    return loaded;
}

} // namespace aurora::obs
