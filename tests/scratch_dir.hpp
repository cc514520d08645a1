// Per-test scratch directories for tests that write files.
//
// ctest runs every discovered test as its own process, several at once,
// and the *_deadlock variants run whole test binaries beside them. Fixed
// names under /tmp therefore let one test's TearDown delete the files
// another test is still using. A ScratchDir is a fresh mkdtemp directory
// under the system temp path, removed with everything in it when the
// ScratchDir goes away.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>

namespace stgraph {

class ScratchDir {
 public:
  ScratchDir() : owner_(::getpid()) {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "stgraph_test_XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed for " + tmpl);
    path_ = tmpl;
  }
  /// Only the creating process removes the directory: a forked child that
  /// exits normally must not delete files its parent still reads.
  ~ScratchDir() {
    if (::getpid() != owner_) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// Path of `name` inside the directory.
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
  pid_t owner_;
};

/// Fixture base: SetUp gives the test a fresh ScratchDir and TearDown
/// removes it. test_file() is static so a test file's free helper
/// functions can name the running test's files too (one test runs at a
/// time per process). Fixtures that override SetUp/TearDown call these.
class ScratchDirTest : public ::testing::Test {
 public:
  static std::string test_file(const std::string& name) {
    if (!current()) throw std::logic_error("no test scratch directory set up");
    return current()->file(name);
  }

 protected:
  void SetUp() override { current() = std::make_unique<ScratchDir>(); }
  void TearDown() override { current().reset(); }

 private:
  static std::unique_ptr<ScratchDir>& current() {
    static std::unique_ptr<ScratchDir> dir;
    return dir;
  }
};

}  // namespace stgraph
