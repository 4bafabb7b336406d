// Runtime half of the no-blocking-I/O-under-engine-lock invariant
// (tools/check_lock_io.py is the static half): every Env implementation
// reports blocking operations through the IoStats chokepoints, which
// abort in debug builds when a ranked no-io mutex is held. These tests
// pin down that the guard (a) fires, (b) honours the audited-exception
// escape hatch, and (c) ignores locks that are allowed to serialize I/O.

#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "storage/env.h"
#include "util/mutex.h"

namespace lsmlab {
namespace {

class LockIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_.reset(NewMemEnv());
    ASSERT_TRUE(env_->NewWritableFile("f", &file_).ok());
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<WritableFile> file_;
};

#if LSMLAB_DEBUG_CHECKS

TEST_F(LockIoTest, GuardFiresOnAppendUnderEngineMutex) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu(LockRank::kDbMu);
  EXPECT_DEATH(
      {
        MutexLock lock(&mu);
        file_->Append(Slice("payload")).IgnoreError();
      },
      "blocking I/O \\(append\\) while holding engine mutex DBImpl::mu_");
}

TEST_F(LockIoTest, GuardFiresOnSyncUnderEngineMutex) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu(LockRank::kDbMu);
  EXPECT_DEATH(
      {
        MutexLock lock(&mu);
        file_->Sync().IgnoreError();
      },
      "blocking I/O \\(sync\\) while holding engine mutex DBImpl::mu_");
}

TEST_F(LockIoTest, GuardFiresOnReadUnderEngineMutex) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_TRUE(file_->Append(Slice("payload")).ok());
  std::unique_ptr<RandomAccessFile> reader;
  ASSERT_TRUE(env_->NewRandomAccessFile("f", &reader).ok());
  Mutex mu(LockRank::kLruShardMu);
  EXPECT_DEATH(
      {
        MutexLock lock(&mu);
        Slice result;
        char scratch[16];
        reader->Read(0, 7, &result, scratch).IgnoreError();
      },
      "blocking I/O \\(read\\) while holding engine mutex LruCache::Shard::mu");
}

TEST_F(LockIoTest, ScopedAllowanceExemptsAuditedSites) {
  Mutex mu(LockRank::kDbMu);
  MutexLock lock(&mu);
  ScopedBlockingIoAllowed allow_io("test: audited exception");
  EXPECT_TRUE(file_->Append(Slice("payload")).ok());
  EXPECT_TRUE(file_->Sync().ok());
}

TEST_F(LockIoTest, AllowanceEndsWithTheScope) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu(LockRank::kDbMu);
  EXPECT_DEATH(
      {
        MutexLock lock(&mu);
        {
          ScopedBlockingIoAllowed allow_io("test: expires");
          file_->Append(Slice("ok")).IgnoreError();
        }
        file_->Append(Slice("boom")).IgnoreError();
      },
      "blocking I/O \\(append\\) while holding engine mutex DBImpl::mu_");
}

#endif  // LSMLAB_DEBUG_CHECKS

TEST_F(LockIoTest, IoOkLocksMaySerializeIo) {
  // The value-log writer lock intentionally serializes log appends; the
  // guard must not fire for io-ok ranks (in any build type).
  Mutex mu(LockRank::kValueLogMu);
  MutexLock lock(&mu);
  EXPECT_TRUE(file_->Append(Slice("payload")).ok());
  EXPECT_TRUE(file_->Sync().ok());
}

TEST_F(LockIoTest, UnrankedLocksAreExempt) {
  Mutex mu;
  MutexLock lock(&mu);
  EXPECT_TRUE(file_->Append(Slice("payload")).ok());
}

TEST_F(LockIoTest, IoIsCleanWithNoLockHeld) {
  EXPECT_TRUE(file_->Append(Slice("payload")).ok());
  EXPECT_TRUE(file_->Sync().ok());
  EXPECT_EQ(env_->io_stats()->syncs.load(), 1u);
}

}  // namespace
}  // namespace lsmlab
