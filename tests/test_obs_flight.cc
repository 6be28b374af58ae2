/**
 * @file
 * Flight-recorder tests: ring wraparound eviction, write-through
 * spooling (every note() is on disk before any crash), the
 * async-signal-safe dump() path and its reentrancy guard, and the
 * tolerant reader's torn-tail / mid-file-corruption contract.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "obs/flight.hh"
#include "util/sim_error.hh"

namespace
{

namespace fs = std::filesystem;
using namespace aurora;
using aurora::util::SimError;

std::string
tempPath(const std::string &name)
{
    return (fs::path(::testing::TempDir()) / name).string();
}

TEST(FlightRecorder, RingEvictsOldestOnWraparound)
{
    obs::FlightRecorder rec(4);
    for (int i = 0; i < 10; ++i)
        rec.note("event." + std::to_string(i));
    EXPECT_EQ(rec.seq(), 10u);
    const auto lines = rec.lines();
    ASSERT_EQ(lines.size(), 4u);
    // Oldest first: events 6..9 survive, 0..5 were evicted.
    EXPECT_NE(lines[0].find("event.6"), std::string::npos);
    EXPECT_NE(lines[3].find("event.9"), std::string::npos);
    for (const auto &line : lines)
        EXPECT_EQ(line.find("event.5"), std::string::npos);
}

TEST(FlightRecorder, SpoolKeepsEveryEventDespiteRingEviction)
{
    const std::string path = tempPath("flight_spool.ndjson");
    obs::FlightRecorder rec(2);
    rec.note("before.spool", "AUR100", "buffered only");
    rec.spoolTo(path);
    for (int i = 0; i < 8; ++i)
        rec.note("after." + std::to_string(i));

    // The ring holds 2 events but the spool holds all 9: spoolTo()
    // flushes the buffered history and note() writes through.
    const auto loaded = obs::loadFlightFile(path);
    EXPECT_FALSE(loaded.dropped_tail);
    ASSERT_EQ(loaded.events.size(), 9u);
    EXPECT_EQ(loaded.events.front().event, "before.spool");
    EXPECT_EQ(loaded.events.front().code, "AUR100");
    EXPECT_EQ(loaded.events.back().event, "after.7");
    for (std::size_t i = 0; i < loaded.events.size(); ++i)
        EXPECT_EQ(loaded.events[i].seq, i);
}

TEST(FlightRecorder, WriteThroughLandsOnDiskWithoutDump)
{
    // The SIGKILL contract: after note() returns the line is already
    // on disk — no dump(), flush, or destructor required.
    const std::string path = tempPath("flight_kill.ndjson");
    obs::FlightRecorder rec(8);
    rec.spoolTo(path);
    ASSERT_GE(rec.spoolFd(), 0);
    rec.note("last.words", "AUR301", "epoch=3");

    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("last.words"), std::string::npos);
    EXPECT_NE(text.find("AUR301"), std::string::npos);
    EXPECT_NE(text.find("aurora.flight.v1"), std::string::npos);
}

TEST(FlightRecorder, NoteIsThreadSafeAndSeqIsDense)
{
    const std::string path = tempPath("flight_mt.ndjson");
    obs::FlightRecorder rec(16);
    rec.spoolTo(path);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&rec, t] {
            const std::string who = std::string("t").append(
                std::to_string(t));
            for (int i = 0; i < 50; ++i)
                rec.note(who);
        });
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(rec.seq(), 200u);

    // Reader sees all 200 events with strictly increasing seq.
    const auto loaded = obs::loadFlightFile(path);
    ASSERT_EQ(loaded.events.size(), 200u);
    for (std::size_t i = 1; i < loaded.events.size(); ++i)
        EXPECT_LT(loaded.events[i - 1].seq, loaded.events[i].seq);
}

TEST(FlightRecorder, DumpAppendsMarkerAndGuardsReentry)
{
    const std::string path = tempPath("flight_dump.ndjson");
    obs::FlightRecorder rec(8);
    rec.spoolTo(path);
    rec.note("steady");
    // Signal-handler shape: dump() twice in a row must both land
    // (the guard only drops *reentry*, i.e. a signal interrupting an
    // in-progress dump — sequential calls are distinct deaths).
    rec.dump("sigterm");
    rec.dump("watchdog");

    const auto loaded = obs::loadFlightFile(path);
    ASSERT_EQ(loaded.events.size(), 3u);
    EXPECT_EQ(loaded.events[0].event, "steady");
    EXPECT_EQ(loaded.events[1].event, "flight.dump");
    EXPECT_EQ(loaded.events[1].detail, "sigterm");
    EXPECT_EQ(loaded.events[2].detail, "watchdog");
}

TEST(FlightRecorder, DumpWithoutSpoolIsNoop)
{
    obs::FlightRecorder rec(4);
    rec.note("unspooled");
    rec.dump("nowhere"); // must not crash, allocate, or write
    EXPECT_EQ(rec.spoolFd(), -1);
    EXPECT_EQ(rec.seq(), 1u);
}

TEST(FlightRecorder, DumpFromRealSignalHandler)
{
    // End-to-end signal-path shape: raise() SIGUSR1 with a handler
    // that only calls dump(), as the daemons' SIGTERM paths do.
    static obs::FlightRecorder *handler_rec = nullptr;
    const std::string path = tempPath("flight_signal.ndjson");
    obs::FlightRecorder rec(8);
    rec.spoolTo(path);
    rec.note("pre.signal");
    handler_rec = &rec;
    std::signal(SIGUSR1, [](int) { handler_rec->dump("signal"); });
    ASSERT_EQ(raise(SIGUSR1), 0);
    std::signal(SIGUSR1, SIG_DFL);
    handler_rec = nullptr;

    const auto loaded = obs::loadFlightFile(path);
    ASSERT_EQ(loaded.events.size(), 2u);
    EXPECT_EQ(loaded.events[1].event, "flight.dump");
    EXPECT_EQ(loaded.events[1].detail, "signal");
}

TEST(FlightReader, TornTailIsDroppedNotFatal)
{
    const std::string path = tempPath("flight_torn.ndjson");
    obs::FlightRecorder rec(8);
    rec.spoolTo(path);
    rec.note("kept.one");
    rec.note("kept.two");
    rec.note("torn");

    // Truncate mid-way through the last line (crash mid-append).
    const auto size = fs::file_size(path);
    fs::resize_file(path, size - 5);

    const auto loaded = obs::loadFlightFile(path);
    EXPECT_TRUE(loaded.dropped_tail);
    ASSERT_EQ(loaded.events.size(), 2u);
    EXPECT_EQ(loaded.events.back().event, "kept.two");
}

TEST(FlightReader, MidFileCorruptionNamesTheOffset)
{
    const std::string path = tempPath("flight_corrupt.ndjson");
    obs::FlightRecorder rec(8);
    rec.spoolTo(path);
    rec.note("good");
    {
        std::ofstream out(path, std::ios::app);
        out << "this is not json\n";
    }
    rec.note("after.garbage"); // valid line after the corruption

    try {
        obs::loadFlightFile(path);
        FAIL() << "mid-file corruption must raise";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("at byte"),
                  std::string::npos);
    }
}

TEST(FlightReader, MissingFileRaises)
{
    EXPECT_THROW(obs::loadFlightFile(tempPath("no_such.flight")),
                 SimError);
}

} // namespace
