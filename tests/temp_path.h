/**
 * @file
 * Per-process, per-test temp file names, so two test runs on one host
 * (two build trees, or ctest -j with a second checkout) never write the
 * same file.
 */

#ifndef BXT_TESTS_TEMP_PATH_H
#define BXT_TESTS_TEMP_PATH_H

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

namespace bxt {

/**
 * @p name under the temp directory, prefixed with the pid and the
 * running test's suite and name. Call it from inside a test.
 */
inline std::filesystem::path
uniqueTempPath(const std::string &name)
{
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::filesystem::temp_directory_path() /
           ("bxt_" + std::to_string(::getpid()) + "_" +
            test->test_suite_name() + "." + test->name() + "_" + name);
}

} // namespace bxt

#endif // BXT_TESTS_TEMP_PATH_H
