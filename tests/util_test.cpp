#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ccov/util/cli.hpp"
#include "ccov/util/ints.hpp"
#include "ccov/util/pipeline.hpp"
#include "ccov/util/prng.hpp"
#include "ccov/util/table.hpp"
#include "ccov/util/thread_pool.hpp"
#include "ccov/util/timer.hpp"

namespace cu = ccov::util;

TEST(Ints, CeilDivExact) { EXPECT_EQ(cu::ceil_div(10, 5), 2); }
TEST(Ints, CeilDivRoundsUp) { EXPECT_EQ(cu::ceil_div(11, 5), 3); }
TEST(Ints, CeilDivZeroNumerator) { EXPECT_EQ(cu::ceil_div(0, 7), 0); }

TEST(Prng, Deterministic) {
  cu::Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}
TEST(Prng, SeedsDiffer) {
  cu::Xoshiro256 a(1), b(2);
  int diff = 0;
  for (int i = 0; i < 10; ++i) diff += a() != b();
  EXPECT_GT(diff, 0);
}
TEST(Prng, BelowInRange) {
  cu::Xoshiro256 g(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(g.below(17), 17u);
}
TEST(Prng, Uniform01Range) {
  cu::Xoshiro256 g(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = g.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}
TEST(Prng, BelowRoughlyUniform) {
  cu::Xoshiro256 g(11);
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 40000; ++i) counts[g.below(4)]++;
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Table, RendersAligned) {
  cu::Table t({"n", "value"});
  t.add(5, "abc");
  t.add(1000, "x");
  std::ostringstream os;
  t.print(os, "demo");
  const std::string s = os.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("1000"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}
TEST(Table, RejectsWidthMismatch) {
  cu::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}
TEST(Table, FormatsDoubles) {
  cu::Table t({"x"});
  t.add(1.23456);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1.235"), std::string::npos);
}

TEST(Table, WritesCsv) {
  cu::Table t({"algo", "n"});
  t.add("construct", 9);
  t.add("with,comma", 11);
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "algo,n\nconstruct,9\n\"with,comma\",11\n");
}
TEST(Table, CsvQuotesQuotesAndCarriageReturns) {
  cu::Table t({"x"});
  t.add(std::string("a\"b"));
  t.add(std::string("c\rd"));
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x\n\"a\"\"b\"\n\"c\rd\"\n");
}
TEST(Table, WritesJson) {
  cu::Table t({"algo", "n"});
  t.add("greedy", 7);
  std::ostringstream os;
  t.write_json(os);
  EXPECT_EQ(os.str(), "[\n  {\"algo\": \"greedy\", \"n\": \"7\"}\n]\n");
}
TEST(Table, JsonEscapesControlCharacters) {
  cu::Table t({"x"});
  t.add(std::string("a\"b\\c\nd\x01"
                    "e"));
  std::ostringstream os;
  t.write_json(os);
  EXPECT_NE(os.str().find("a\\\"b\\\\c\\nd\\u0001e"), std::string::npos);
}
TEST(Table, EmptyJsonIsAnEmptyArray) {
  cu::Table t({"x"});
  std::ostringstream os;
  t.write_json(os);
  EXPECT_EQ(os.str(), "[\n]\n");
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--n=12", "--name=ring"};
  cu::Cli cli(3, argv);
  EXPECT_EQ(cli.get_int("n", 0), 12);
  EXPECT_EQ(cli.get("name", ""), "ring");
}
TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--n", "7"};
  cu::Cli cli(3, argv);
  EXPECT_EQ(cli.get_int("n", 0), 7);
}
TEST(Cli, BooleanFlagAndDefault) {
  const char* argv[] = {"prog", "--verbose"};
  cu::Cli cli(2, argv);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get_int("missing", 42), 42);
}
TEST(Cli, Positional) {
  const char* argv[] = {"prog", "input.txt", "--k=3", "out.txt"};
  cu::Cli cli(4, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
}
TEST(Cli, DoubleParsing) {
  const char* argv[] = {"prog", "--x=2.5"};
  cu::Cli cli(2, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 2.5);
}

TEST(ThreadPool, RunsAllTasks) {
  cu::ThreadPool pool(4);
  cu::TaskGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit(group, [&] { counter++; });
  group.wait();
  EXPECT_EQ(counter.load(), 100);
}
TEST(ThreadPool, ZeroThreadsFallsBackToHardwareConcurrency) {
  cu::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  cu::TaskGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) pool.submit(group, [&] { counter++; });
  group.wait();
  EXPECT_EQ(counter.load(), 10);
}
TEST(ThreadPool, ReusableAfterDrain) {
  cu::ThreadPool pool(3);
  cu::TaskGroup group;
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) pool.submit(group, [&] { counter++; });
    group.wait();
    EXPECT_EQ(counter.load(), 50 * (round + 1));
  }
}
TEST(ThreadPool, TaskExceptionPropagatesToWait) {
  cu::ThreadPool pool(2);
  cu::TaskGroup group;
  pool.submit(group, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The stored exception is cleared and the group stays usable.
  std::atomic<int> counter{0};
  pool.submit(group, [&] { counter++; });
  group.wait();
  EXPECT_EQ(counter.load(), 1);
}
TEST(ThreadPool, FirstOfSeveralExceptionsWins) {
  cu::ThreadPool pool(1);  // one worker: tasks finish in submission order
  cu::TaskGroup group;
  for (int i = 0; i < 8; ++i)
    pool.submit(group, [i] { throw std::runtime_error(std::to_string(i)); });
  try {
    group.wait();
    ADD_FAILURE() << "wait() should rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
  group.wait();  // cleared: a second wait does not rethrow
}
TEST(TaskGroup, WaitReturnsWhileOtherGroupsStillRun) {
  // A group's wait() must block on its own tasks only, not on every
  // in-flight task in the pool.
  cu::ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  cu::TaskGroup slow, fast;
  std::atomic<bool> slow_done{false};
  pool.submit(slow, [gate, &slow_done] {
    gate.wait();
    slow_done = true;
  });
  std::atomic<int> fast_done{0};
  pool.submit(fast, [&] { fast_done++; });
  fast.wait();  // must not wait for the blocked `slow` task
  EXPECT_EQ(fast_done.load(), 1);
  EXPECT_FALSE(slow_done.load());
  release.set_value();
  slow.wait();
  EXPECT_TRUE(slow_done.load());
}

TEST(TaskGroup, ExceptionsRouteToTheSubmittingBatch) {
  // Two batches on one pool: the failing batch rethrows its own error;
  // the succeeding batch never sees it.
  cu::ThreadPool pool(2);
  cu::TaskGroup failing, succeeding;
  for (int i = 0; i < 8; ++i) {
    pool.submit(failing, [] { throw std::runtime_error("boom"); });
    pool.submit(succeeding, [] {});
  }
  succeeding.wait();  // must not throw another batch's exception
  EXPECT_THROW(failing.wait(), std::runtime_error);
  failing.wait();  // cleared on rethrow
}

TEST(TaskGroup, ConcurrentCallersAreIsolated) {
  // Regression: two OS threads share one pool, each waiting on its own
  // group; one's tasks sometimes throw, the other's never do. Every
  // failing batch must observe its own exception and the succeeding
  // caller must never see one.
  cu::ThreadPool pool(4);
  constexpr int kRounds = 25;
  constexpr std::size_t kSpan = 64;

  std::atomic<std::size_t> good_hits{0};
  std::atomic<int> good_saw_exception{0};
  std::atomic<int> bad_exceptions{0};

  std::thread bad([&] {
    cu::TaskGroup group;
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t i = 0; i < kSpan; ++i)
        pool.submit(group, [i] {
          if (i % 7 == 3) throw std::invalid_argument("bad batch");
        });
      try {
        group.wait();
      } catch (const std::invalid_argument&) {
        bad_exceptions++;
      }
    }
  });
  std::thread good([&] {
    cu::TaskGroup group;
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t i = 0; i < kSpan; ++i)
        pool.submit(group, [&] { good_hits++; });
      try {
        group.wait();
      } catch (...) {
        good_saw_exception++;
      }
    }
  });
  bad.join();
  good.join();

  EXPECT_EQ(bad_exceptions.load(), kRounds);
  EXPECT_EQ(good_saw_exception.load(), 0);
  EXPECT_EQ(good_hits.load(), kRounds * kSpan);
}

// Every OrderedPipeline behaviour holds at depth 0 too, where no worker
// exists and each job runs inline on the enqueuing thread.

TEST(OrderedPipeline, RunsJobsStrictlyInSubmissionOrder) {
  for (const std::size_t depth : {2u, 0u}) {
    cu::OrderedPipeline pipe(depth);
    std::vector<int> order;
    std::vector<std::thread::id> ran_on;
    std::mutex mu;
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(pipe.enqueue([i, &order, &ran_on, &mu] {
        std::lock_guard<std::mutex> lk(mu);
        order.push_back(i);
        ran_on.push_back(std::this_thread::get_id());
        return true;
      }));
    }
    ASSERT_TRUE(pipe.drain());
    ASSERT_EQ(order.size(), 50u) << depth;
    for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i) << depth;
    for (const std::thread::id id : ran_on)
      EXPECT_EQ(id == std::this_thread::get_id(), depth == 0) << depth;
  }
}

TEST(OrderedPipeline, ProducerOverlapsWithTheRunningJob) {
  // While the first job blocks, the producer can still queue the second
  // (depth 2 = double buffering) without deadlocking.
  cu::OrderedPipeline pipe(2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> done{0};
  ASSERT_TRUE(pipe.enqueue([gate, &done] {
    gate.wait();
    done++;
    return true;
  }));
  ASSERT_TRUE(pipe.enqueue([&done] {
    done++;
    return true;
  }));  // must not block: slot two of the double buffer
  EXPECT_EQ(done.load(), 0);
  release.set_value();
  ASSERT_TRUE(pipe.drain());
  EXPECT_EQ(done.load(), 2);

  // Depth 0 overlaps nothing: each job has finished, on this thread, by
  // the time enqueue returns.
  cu::OrderedPipeline serial(0);
  int ran = 0;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(serial.enqueue([&ran, caller = std::this_thread::get_id()] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ran++;
      return true;
    }));
    EXPECT_EQ(ran, i);
  }
}

TEST(OrderedPipeline, FailingJobPoisonsThePipeline) {
  for (const std::size_t depth : {2u, 0u}) {
    cu::OrderedPipeline pipe(depth);
    std::atomic<int> ran{0};
    ASSERT_TRUE(pipe.enqueue([&ran] {
      ran++;
      return false;  // peer gone
    }));
    // Eventually enqueue starts reporting dead; queued-but-unrun jobs are
    // dropped and drain reports the failure.
    while (pipe.enqueue([&ran] {
      ran++;
      return true;
    })) {
    }
    EXPECT_FALSE(pipe.drain()) << depth;
    EXPECT_FALSE(pipe.enqueue([] { return true; })) << depth;
    if (depth == 0) {
      EXPECT_EQ(ran.load(), 1);  // dead at once: nothing more ran
    }
  }
}

TEST(OrderedPipeline, ThrowingJobCountsAsFailure) {
  for (const std::size_t depth : {1u, 0u}) {
    cu::OrderedPipeline pipe(depth);
    ASSERT_TRUE(
        pipe.enqueue([]() -> bool { throw std::runtime_error("boom"); }));
    EXPECT_FALSE(pipe.drain()) << depth;
  }
}

TEST(OrderedPipeline, DestructorRunsTheRemainingQueue) {
  for (const std::size_t depth : {4u, 0u}) {
    std::atomic<int> ran{0};
    {
      cu::OrderedPipeline pipe(depth);
      for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(pipe.enqueue([&ran] {
          ran++;
          return true;
        }));
    }
    EXPECT_EQ(ran.load(), 4) << depth;
  }
}

TEST(Timer, MeasuresNonNegative) {
  cu::Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.micros(), 0.0);
}
