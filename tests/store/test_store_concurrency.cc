/**
 * @file
 * ThreadSanitizer stress suite for the result store's concurrent
 * surfaces: characterization-cache lookups/stores from pool workers,
 * checkpoint-journal writes at -j8, concurrent queryStore() readers,
 * and a full store-backed sweep at 8 jobs. The sweep engine hits all
 * of these paths from worker threads, so this is the suite the TSan
 * CI leg runs to certify the threaded core ahead of the query-server
 * work.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_sweep.hh"
#include "store/result_store.hh"
#include "../support/fixtures.hh"
#include "util/thread_pool.hh"

namespace nvmexp {
namespace {

using testsupport::QuietTest;
using testsupport::smallSweep;

class StoreConcurrencyTest : public QuietTest
{
  protected:
    std::string
    storeDir(const std::string &name)
    {
        std::string dir = ::testing::TempDir() + "nvmexp_conc_" + name;
        std::filesystem::remove_all(dir);
        dirs_.push_back(dir);
        return dir;
    }

    void
    TearDown() override
    {
        for (const auto &dir : dirs_)
            std::filesystem::remove_all(dir);
        QuietTest::TearDown();
    }

  private:
    std::vector<std::string> dirs_;
};

/** One characterized array to populate cache entries with. */
ArrayResult
someArray()
{
    SweepConfig sweep = smallSweep();
    sweep.cells.resize(1);
    sweep.capacitiesBytes.resize(1);
    sweep.targets.resize(1);
    auto arrays = characterizeSweep(sweep);
    EXPECT_FALSE(arrays.empty());
    return arrays.front();
}

TEST_F(StoreConcurrencyTest, ConcurrentCacheHitsOnOneKey)
{
    store::ResultStore resultStore(storeDir("one_key"));
    ArrayResult array = someArray();
    const std::string key = "stress-key";
    resultStore.storeArray(key, array);

    const std::size_t lookups = 512;
    std::atomic<std::size_t> hits{0};
    parallelFor(lookups, 8, [&](std::size_t) {
        ArrayResult out;
        if (resultStore.lookupArray(key, out) ==
            store::ResultStore::CacheOutcome::Hit) {
            ++hits;
        }
    });
    EXPECT_EQ(hits.load(), lookups);
    auto stats = resultStore.stats();
    EXPECT_EQ(stats.cacheHits, lookups);
    EXPECT_EQ(stats.cacheMisses, 0u);
}

TEST_F(StoreConcurrencyTest, ConcurrentLookupsRacingStores)
{
    store::ResultStore resultStore(storeDir("race_rw"));
    ArrayResult array = someArray();

    // 8 workers interleave writes and reads over 16 shared keys.
    // Every lookup must come back either a miss (not yet written) or
    // a complete, parseable hit — never a torn entry — and the
    // counters must balance.
    const std::size_t ops = 512;
    parallelFor(ops, 8, [&](std::size_t i) {
        // Built without operator+ to dodge GCC 12's -Wrestrict false
        // positive (PR105651) on inlined string concatenation.
        std::string key = "k";
        key += std::to_string(i % 16);
        if (i % 3 == 0) {
            resultStore.storeArray(key, array);
        } else if (i % 7 == 0) {
            resultStore.storeInvalid(key);
        } else {
            ArrayResult out;
            (void)resultStore.lookupArray(key, out);
        }
    });
    auto stats = resultStore.stats();
    EXPECT_EQ(stats.cacheLookups(),
              stats.cacheHits + stats.cacheMisses);
    EXPECT_GT(stats.cacheStores, 0u);
}

TEST_F(StoreConcurrencyTest, CheckpointJournalWritesAtJ8)
{
    std::string dir = storeDir("journal_j8");
    SweepConfig sweep = smallSweep();
    auto arrays = characterizeSweep(sweep);
    ParallelSweepRunner serial(1);
    auto results = serial.evaluateAll(arrays, sweep.traffics);
    ASSERT_FALSE(results.empty());

    const std::size_t slots = results.size();
    store::ResultStore resultStore(dir);
    auto done = resultStore.openCheckpoint("stress-fp", slots, false);
    EXPECT_TRUE(done.empty());
    parallelFor(slots, 8, [&](std::size_t i) {
        resultStore.checkpointSlot(i, results[i]);
    });
    resultStore.closeCheckpoint();
    EXPECT_EQ(resultStore.stats().checkpointComputed, slots);

    // Every journaled slot replays intact: 8 writers never interleave
    // bytes within a line.
    store::ResultStore reopened(dir);
    auto replayed = reopened.openCheckpoint("stress-fp", slots, true);
    reopened.closeCheckpoint();
    EXPECT_EQ(replayed.size(), slots);
}

TEST_F(StoreConcurrencyTest, ConcurrentQueryStoreReaders)
{
    std::string dir = storeDir("query_readers");
    SweepConfig sweep = smallSweep();
    sweep.outDir = dir;
    ParallelSweepRunner runner(4);
    auto results = runner.run(sweep);
    ASSERT_FALSE(results.empty());

    store::StoreQuery query;
    query.constraints.add("total_power<1e9");
    query.paretoMetrics = {"total_power", "read_latency"};
    auto expected = store::queryStore(dir, query);

    std::vector<std::size_t> sizes(8, 0);
    std::vector<std::thread> readers;
    readers.reserve(sizes.size());
    for (std::size_t t = 0; t < sizes.size(); ++t) {
        readers.emplace_back([&, t] {
            for (int round = 0; round < 4; ++round) {
                auto rows = store::queryStore(dir, query);
                sizes[t] = rows.size();
            }
        });
    }
    for (auto &reader : readers)
        reader.join();
    for (std::size_t t = 0; t < sizes.size(); ++t)
        EXPECT_EQ(sizes[t], expected.size()) << "reader " << t;
}

TEST_F(StoreConcurrencyTest, StoreBackedSweepAtJ8MatchesSerial)
{
    SweepConfig sweep = smallSweep();
    ParallelSweepRunner serial(1);
    auto reference = serial.run(sweep);

    std::string dir = storeDir("sweep_j8");
    sweep.outDir = dir;
    sweep.jobs = 8;
    ParallelSweepRunner runner(8);
    auto cold = runner.run(sweep);
    ASSERT_EQ(cold.size(), reference.size());

    // Warm rerun: all characterization served concurrently from the
    // cache, still byte-identical in value terms.
    auto warm = runner.run(sweep);
    ASSERT_EQ(warm.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(warm[i].totalPower, reference[i].totalPower) << i;
        EXPECT_EQ(warm[i].latencyLoad, reference[i].latencyLoad) << i;
    }
    auto stats = store::loadStats(sweep.outDir);
    EXPECT_EQ(stats.cacheMisses, 0u);

    // Resume replay at -j8 over a journal written at -j8.
    sweep.resume = true;
    auto resumed = runner.run(sweep);
    ASSERT_EQ(resumed.size(), reference.size());
    EXPECT_EQ(store::loadStats(sweep.outDir).checkpointLoaded,
              reference.size());
}

} // namespace
} // namespace nvmexp
