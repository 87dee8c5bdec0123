// Runtime lock-order cycle detector (src/util/mutex.cc, DESIGN.md §12).
//
// The detector is off by default in release builds, so these tests turn
// it on explicitly — they exercise the same code path the asan (Debug)
// suite runs with the detector live for every test.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/mutex.h"

namespace rdftx::util {
namespace {

class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = lock_order::Enabled();
    lock_order::SetEnabled(true);
    lock_order::ResetForTest();
  }
  void TearDown() override {
    lock_order::ResetForTest();
    lock_order::SetEnabled(was_enabled_);
  }
  bool was_enabled_ = false;
};

TEST_F(LockOrderTest, CleanNestedAcquisitionIsSilent) {
  Mutex outer("test::outer");
  Mutex inner("test::inner");
  for (int i = 0; i < 3; ++i) {
    MutexLock a(&outer);
    MutexLock b(&inner);
  }
}

TEST_F(LockOrderTest, ConsistentOrderAcrossThreadsIsSilent) {
  Mutex outer("test::outer");
  Mutex inner("test::inner");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        MutexLock a(&outer);
        MutexLock b(&inner);
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST_F(LockOrderTest, HandOverHandReleaseIsSilent) {
  // a -> b -> c with hand-over-hand (release a while b is held) keeps a
  // consistent partial order; the out-of-order release path must not
  // corrupt the held stack.
  Mutex a("test::a");
  Mutex b("test::b");
  Mutex c("test::c");
  a.Lock();
  b.Lock();
  a.Unlock();
  c.Lock();
  b.Unlock();
  c.Unlock();
  // The stack is empty again: a fresh consistent acquisition is fine.
  MutexLock la(&a);
  MutexLock lb(&b);
}

TEST_F(LockOrderTest, DistinctInstancePairsDoNotAlias) {
  // Four instances of one class, each with its own mutex: locking e1
  // then e2 on one thread and e4 then e3 on another is only a cycle if
  // the *same* instances invert — instance-level tracking must not
  // conflate them.
  Mutex e1("test::Instance::mu_");
  Mutex e2("test::Instance::mu_");
  Mutex e3("test::Instance::mu_");
  Mutex e4("test::Instance::mu_");
  {
    MutexLock l1(&e1);
    MutexLock l2(&e2);
  }
  {
    MutexLock l1(&e4);
    MutexLock l2(&e3);
  }
}

TEST_F(LockOrderTest, DestroyedMutexEdgesAreInert) {
  Mutex a("test::a");
  {
    Mutex temp("test::temp");
    MutexLock la(&a);
    MutexLock lt(&temp);
  }  // temp destroyed; edge a -> temp dangles harmlessly
  Mutex b("test::b");
  MutexLock lb(&b);
  MutexLock la(&a);  // b -> a: no path a -> b through the dead node
}

using LockOrderDeathTest = LockOrderTest;

TEST_F(LockOrderDeathTest, InvertedAcquisitionAcrossThreadsAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        lock_order::SetEnabled(true);
        lock_order::ResetForTest();
        Mutex a("death::a");
        Mutex b("death::b");
        // Thread 1 establishes a -> b and exits cleanly.
        std::thread t1([&] {
          a.Lock();
          b.Lock();
          b.Unlock();
          a.Unlock();
        });
        t1.join();
        // Thread 2 attempts b -> a: the detector must abort before
        // this can ever become a real deadlock.
        std::thread t2([&] {
          b.Lock();
          a.Lock();
          a.Unlock();
          b.Unlock();
        });
        t2.join();
      },
      "lock-order violation");
}

TEST_F(LockOrderDeathTest, TransitiveCycleAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        lock_order::SetEnabled(true);
        lock_order::ResetForTest();
        Mutex a("death::a");
        Mutex b("death::b");
        Mutex c("death::c");
        {
          MutexLock la(&a);
          MutexLock lb(&b);
        }
        {
          MutexLock lb(&b);
          MutexLock lc(&c);
        }
        // c -> a closes a -> b -> c -> a.
        MutexLock lc(&c);
        MutexLock la(&a);
      },
      "lock-order violation");
}

TEST_F(LockOrderDeathTest, RecursiveAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        lock_order::SetEnabled(true);
        Mutex a("death::recursive");
        a.Lock();
        a.Lock();
      },
      "not reentrant");
}

TEST_F(LockOrderTest, DisabledDetectorTracksNothing) {
  lock_order::SetEnabled(false);
  Mutex a("test::a");
  Mutex b("test::b");
  {
    MutexLock la(&a);
    MutexLock lb(&b);
  }
  lock_order::SetEnabled(true);
  // The inverted order is silent because a -> b was never recorded.
  MutexLock lb(&b);
  MutexLock la(&a);
}

}  // namespace
}  // namespace rdftx::util
