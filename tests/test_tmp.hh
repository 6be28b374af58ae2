/**
 * @file
 * One scratch directory per test process, so test binaries leave
 * nothing behind in the system temp directory and two trees tested
 * side by side never share a file: ::testing::TempDir() +
 * "aurora-<pid>/", made at start-up and removed, with everything in
 * it, when the process that made it exits (a forked child leaves it
 * alone). Keep names short: AF_UNIX socket paths made here must fit
 * the 107-byte sun_path.
 */

#ifndef AURORA_TESTS_TEST_TMP_HH
#define AURORA_TESTS_TEST_TMP_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace aurora::test
{

/** This process's scratch directory, with a trailing slash. */
inline const std::string &
tempDir()
{
    static const struct Dir
    {
        pid_t owner = ::getpid();
        std::string path = std::string(::testing::TempDir()) + "aurora-" +
                           std::to_string(owner) + "/";

        Dir() { std::filesystem::create_directories(path); }

        ~Dir()
        {
            std::error_code ignored;
            if (::getpid() == owner)
                std::filesystem::remove_all(path, ignored);
        }
    } dir;
    return dir.path;
}

/** Made before main(), so a forked child names the same directory. */
inline const std::string &TEMP_DIR = tempDir();

/** @p name inside tempDir(). */
inline std::string
tempPath(const std::string &name)
{
    return tempDir() + name;
}

} // namespace aurora::test

#endif // AURORA_TESTS_TEST_TMP_HH
