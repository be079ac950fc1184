#include "storage/fs.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/rng.h"
#include "common/string_util.h"
#include "tests/test_util.h"

namespace ppdb::storage {
namespace {

namespace stdfs = std::filesystem;

class FsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::temp_directory_path() /
           ("ppdb_fs_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    stdfs::remove_all(dir_);
    stdfs::create_directories(dir_);
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  stdfs::path dir_;
  RealFileSystem real_;
};

TEST_F(FsTest, RealWriteReadRoundTrip) {
  ASSERT_OK(real_.WriteFile(Path("a.txt"), "hello\n"));
  ASSERT_OK_AND_ASSIGN(std::string contents, real_.ReadFile(Path("a.txt")));
  EXPECT_EQ(contents, "hello\n");
  EXPECT_TRUE(real_.Exists(Path("a.txt")));
  EXPECT_FALSE(real_.IsDirectory(Path("a.txt")));
  EXPECT_TRUE(real_.IsDirectory(dir_.string()));
}

TEST_F(FsTest, RealWriteToUnwritablePathReportsErrno) {
  // Opening a directory path as a file fails at open and carries errno text.
  Status status = real_.WriteFile(dir_.string(), "x");
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.message().find(dir_.string()), std::string::npos);
  // Some strerror text (not the bare "unknown error" fallback) is present.
  EXPECT_NE(status.message().find(": "), std::string::npos);
}

TEST_F(FsTest, RealWriteIntoMissingParentFails) {
  EXPECT_FALSE(real_.WriteFile(Path("nope/deep/a.txt"), "x").ok());
}

TEST_F(FsTest, RealRenameReplacesDestination) {
  ASSERT_OK(real_.WriteFile(Path("src"), "new"));
  ASSERT_OK(real_.WriteFile(Path("dst"), "old"));
  ASSERT_OK(real_.Rename(Path("src"), Path("dst")));
  ASSERT_OK_AND_ASSIGN(std::string contents, real_.ReadFile(Path("dst")));
  EXPECT_EQ(contents, "new");
  EXPECT_FALSE(real_.Exists(Path("src")));
}

TEST_F(FsTest, RealListDirectorySorted) {
  ASSERT_OK(real_.WriteFile(Path("b"), ""));
  ASSERT_OK(real_.WriteFile(Path("a"), ""));
  ASSERT_OK(real_.CreateDirectories(Path("c")));
  ASSERT_OK_AND_ASSIGN(auto names, real_.ListDirectory(dir_.string()));
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(FsTest, RealRemoveAllMissingIsOk) {
  ASSERT_OK(real_.RemoveAll(Path("never_existed")));
}

TEST_F(FsTest, FaultFailOpIsTransientAndCounted) {
  FaultInjectingFileSystem faulty(&real_, Rng(1));
  faulty.SetPlan({.fail_at_op = 1, .kind = FaultKind::kFailOp});
  ASSERT_OK(faulty.WriteFile(Path("w0"), "zero"));      // op 0
  Status status = faulty.WriteFile(Path("w1"), "one");  // op 1: faulted
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_FALSE(real_.Exists(Path("w1")));  // nothing reached the disk
  ASSERT_OK(faulty.WriteFile(Path("w2"), "two"));       // op 2: past it
  EXPECT_EQ(faulty.ops_seen(), 3);
  EXPECT_EQ(faulty.faults_injected(), 1);
  EXPECT_FALSE(faulty.crashed());
}

TEST_F(FsTest, FaultFailOpRepeatsForTransientFailures) {
  FaultInjectingFileSystem faulty(&real_, Rng(1));
  faulty.SetPlan({.fail_at_op = 0, .kind = FaultKind::kFailOp,
                  .transient_failures = 3});
  EXPECT_TRUE(faulty.WriteFile(Path("w"), "x").IsUnavailable());
  EXPECT_TRUE(faulty.WriteFile(Path("w"), "x").IsUnavailable());
  EXPECT_TRUE(faulty.WriteFile(Path("w"), "x").IsUnavailable());
  ASSERT_OK(faulty.WriteFile(Path("w"), "x"));  // fourth attempt lands
  EXPECT_EQ(faulty.faults_injected(), 3);
}

TEST_F(FsTest, TornWriteLeavesStrictPrefix) {
  const std::string payload = "0123456789abcdef0123456789abcdef";
  FaultInjectingFileSystem faulty(&real_, Rng(7));
  faulty.SetPlan({.fail_at_op = 0, .kind = FaultKind::kTornWrite});
  Status status = faulty.WriteFile(Path("torn"), payload);
  EXPECT_TRUE(status.IsUnavailable());
  ASSERT_OK_AND_ASSIGN(std::string on_disk, real_.ReadFile(Path("torn")));
  EXPECT_LT(on_disk.size(), payload.size());
  EXPECT_EQ(on_disk, payload.substr(0, on_disk.size()));
}

TEST_F(FsTest, TornWriteIsDeterministicPerSeed) {
  const std::string payload(64, 'x');
  auto torn_size = [&](uint64_t seed) {
    std::string path = Path("torn_" + std::to_string(seed));
    FaultInjectingFileSystem faulty(&real_, Rng(seed));
    faulty.SetPlan({.fail_at_op = 0, .kind = FaultKind::kTornWrite});
    EXPECT_FALSE(faulty.WriteFile(path, payload).ok());
    return real_.ReadFile(path)->size();
  };
  EXPECT_EQ(torn_size(3), torn_size(3));
}

TEST_F(FsTest, NoSpaceIsPermanentWithEnospcText) {
  FaultInjectingFileSystem faulty(&real_, Rng(1));
  faulty.SetPlan({.fail_at_op = 0, .kind = FaultKind::kNoSpace});
  Status status = faulty.WriteFile(Path("full"), "data");
  EXPECT_TRUE(status.IsOutOfRange());
  EXPECT_NE(status.message().find("no space left on device"),
            std::string::npos);
  // Not transient: a retry loop must not spin on it.
  ASSERT_OK(faulty.WriteFile(Path("later"), "x"));  // one-shot fault
}

TEST_F(FsTest, CrashStopsAllSubsequentMutations) {
  FaultInjectingFileSystem faulty(&real_, Rng(5));
  faulty.SetPlan({.fail_at_op = 0, .kind = FaultKind::kCrash});
  EXPECT_TRUE(faulty.WriteFile(Path("w"), "payload").IsInternal());
  EXPECT_TRUE(faulty.crashed());
  EXPECT_TRUE(faulty.WriteFile(Path("w2"), "x").IsInternal());
  EXPECT_TRUE(faulty.Rename(Path("a"), Path("b")).IsInternal());
  EXPECT_TRUE(faulty.CreateDirectories(Path("d")).IsInternal());
  EXPECT_TRUE(faulty.RemoveAll(Path("w")).IsInternal());
  EXPECT_FALSE(real_.Exists(Path("w2")));
  // Reads still work (the process inspecting the aftermath is a new one).
  ASSERT_OK(real_.WriteFile(Path("r"), "ok"));
  EXPECT_OK(faulty.ReadFile(Path("r")).status());
}

TEST_F(FsTest, RenameFaultLeavesDestinationUntouched) {
  ASSERT_OK(real_.WriteFile(Path("src"), "new"));
  ASSERT_OK(real_.WriteFile(Path("dst"), "old"));
  FaultInjectingFileSystem faulty(&real_, Rng(1));
  faulty.SetPlan({.fail_at_op = 0, .kind = FaultKind::kFailOp});
  EXPECT_TRUE(faulty.Rename(Path("src"), Path("dst")).IsUnavailable());
  ASSERT_OK_AND_ASSIGN(std::string contents, real_.ReadFile(Path("dst")));
  EXPECT_EQ(contents, "old");
  EXPECT_TRUE(real_.Exists(Path("src")));
}

TEST_F(FsTest, NoPlanNeverFaults) {
  FaultInjectingFileSystem faulty(&real_, Rng(1));
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(faulty.WriteFile(Path(StrCat({"f", std::to_string(i)})), "x"));
  }
  EXPECT_EQ(faulty.ops_seen(), 10);
  EXPECT_EQ(faulty.faults_injected(), 0);
}

}  // namespace
}  // namespace ppdb::storage
