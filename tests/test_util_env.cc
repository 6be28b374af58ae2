/**
 * @file
 * Strict environment parsing tests — notably the AURORA_BENCH_INSTS
 * regression where strtoull silently yielded 0 on malformed input and
 * turned every bench into a no-op.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "util/env.hh"
#include "util/sim_error.hh"

namespace
{

using namespace aurora;

constexpr const char *VAR = "AURORA_TEST_ENV_COUNT";

class EnvCount : public ::testing::Test
{
  protected:
    void TearDown() override { ::unsetenv(VAR); }

    void
    set(const char *value)
    {
        ASSERT_EQ(::setenv(VAR, value, 1), 0);
    }
};

TEST(ParseCount, AcceptsPlainDecimals)
{
    EXPECT_EQ(parseCount("0"), Count{0});
    EXPECT_EQ(parseCount("200000"), Count{200000});
    EXPECT_EQ(parseCount("  42  "), Count{42});
    EXPECT_EQ(parseCount("18446744073709551615"), ~Count{0});
}

TEST(ParseCount, RejectsMalformedInput)
{
    EXPECT_FALSE(parseCount(""));
    EXPECT_FALSE(parseCount("   "));
    EXPECT_FALSE(parseCount("-5"));
    EXPECT_FALSE(parseCount("+5"));
    EXPECT_FALSE(parseCount("12abc"));
    EXPECT_FALSE(parseCount("abc"));
    EXPECT_FALSE(parseCount("2e6"));
    EXPECT_FALSE(parseCount("0x10"));
    EXPECT_FALSE(parseCount("1 2"));
    EXPECT_FALSE(parseCount("3.14"));
    // One past uint64 max: must report overflow, not wrap.
    EXPECT_FALSE(parseCount("18446744073709551616"));
    EXPECT_FALSE(parseCount("99999999999999999999999"));
}

/** The message countOption raised for @p text, or "" if it parsed. */
template <typename T>
std::string
countOptionError(const std::string &text)
{
    try {
        (void)countOption<T>("--n", text);
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), util::SimErrorCode::BadConfig);
        return e.what();
    }
    return {};
}

TEST(CountOption, ParsesWhatFitsTheField)
{
    EXPECT_EQ(countOption("--n", "42"), Count{42});
    EXPECT_EQ(countOption<unsigned>("--n", "4294967295"), 4294967295u);
    EXPECT_EQ(countOption<std::uint32_t>("--n", "0"), 0u);
}

TEST(CountOption, RefusesWhatWouldWrapOrTruncate)
{
    // strtoull("-1") is 2^64 - 1: as --workers that asked for four
    // billion threads.
    EXPECT_NE(countOptionError<unsigned>("-1")
                  .find("option --n: bad numeric value '-1'"),
              std::string::npos);
    EXPECT_NE(countOptionError<Count>("-1"), "");
    // One past the field's maximum used to truncate (to 0 = default).
    EXPECT_NE(countOptionError<unsigned>("4294967296"), "");
    EXPECT_NE(countOptionError<std::uint32_t>("4294967296"), "");
    EXPECT_NE(countOptionError<Count>("18446744073709551616"), "");
    EXPECT_NE(countOptionError<Count>("12abc"), "");
    EXPECT_NE(countOptionError<Count>(""), "");
}

TEST_F(EnvCount, UnsetReturnsFallback)
{
    ::unsetenv(VAR);
    EXPECT_EQ(envCount(VAR, 200000), Count{200000});
}

TEST_F(EnvCount, ValidValueWins)
{
    set("1234");
    EXPECT_EQ(envCount(VAR, 200000), Count{1234});
}

TEST_F(EnvCount, MalformedFallsBackInsteadOfZero)
{
    // The old strtoull path returned 0 here — a silent no-op bench.
    set("2OOOOO");
    EXPECT_EQ(envCount(VAR, 200000), Count{200000});
    set("");
    EXPECT_EQ(envCount(VAR, 200000), Count{200000});
    set("-1");
    EXPECT_EQ(envCount(VAR, 200000), Count{200000});
}

TEST_F(EnvCount, ZeroGuardedByMinimum)
{
    set("0");
    EXPECT_EQ(envCount(VAR, 200000), Count{200000});
    // An explicit min of 0 admits zero.
    EXPECT_EQ(envCount(VAR, 200000, 0), Count{0});
}

TEST_F(EnvCount, BelowMinimumFallsBack)
{
    set("2");
    EXPECT_EQ(envCount(VAR, 64, 8), Count{64});
    set("8");
    EXPECT_EQ(envCount(VAR, 64, 8), Count{8});
}

} // namespace
