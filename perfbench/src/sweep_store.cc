/**
 * @file
 * sweep_store: a campaign-sized, store-backed sweep, run four ways per
 * repetition — cold into an empty store, warm into the same store,
 * resumed from a journal cut at half its lines, and as a 4-shard
 * campaign — with every artifact checked against a reference computed
 * in set-up. Per-slot journal and results serialization dominate this
 * path; characterization and evaluation are a small share of it.
 */

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.hh"
#include "campaign/campaign.hh"
#include "core/parallel_sweep.hh"
#include "fixtures.hh"
#include "nvsim/array_model.hh"
#include "store/result_store.hh"

namespace fs = std::filesystem;
using namespace nvmexp;

namespace perfbench {
namespace {

constexpr std::size_t kShards = 4;

/** Cut a store's journal to the first half of its lines (header
 *  included), as a sweep killed mid-run leaves it. @return the number
 *  of slot entries kept. */
std::size_t
cutJournal(const std::string &dir)
{
    std::string path = dir + "/checkpoint.jsonl";
    std::string bytes = readFile(path);
    std::size_t lines = (std::size_t)std::count(bytes.begin(),
                                                bytes.end(), '\n');
    std::size_t keep = lines / 2;
    std::size_t end = 0;
    for (std::size_t seen = 0; seen < keep; ++seen)
        end = bytes.find('\n', end) + 1;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), (std::streamsize)end);
    return keep - 1;
}

void
copyStore(const std::string &from, const std::string &to)
{
    fs::remove_all(to);
    fs::copy(from, to, fs::copy_options::recursive);
}

std::uintmax_t
treeBytes(const std::string &dir)
{
    std::uintmax_t total = 0;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            total += entry.file_size();
    }
    return total;
}

/** When each phase of one repetition ran. */
struct PhaseTimes
{
    Interval cold, warm, resume, makespan, merge;

    /** Seconds of the whole repetition. */
    double total() const
    {
        return cold.seconds() + warm.seconds() + resume.seconds() +
            makespan.seconds();
    }
};

class SweepStore
{
  public:
    SweepStore(const Options &options, Result &result)
        : options_(options), result_(result),
          corruptPending_(options.corrupt)
    {
    }

    /** Build the sweep and its reference artifacts. */
    Interval setup(int attempt);

    /** One untraced repetition of the four phases. */
    PhaseTimes untracedRep();

    /** The same four phases rebuilt from public calls, with spans. */
    PhaseTimes tracedRep();

    std::size_t slots() const { return slots_; }

    /** The sweep's shape, as facts named after workloads.json's
     *  parameters (sweep.<param>). */
    void describe(std::map<std::string, std::string> &facts) const;

  private:
    std::string path(const std::string &name) const
    {
        return options_.tmp + "/sweep_store/" + name;
    }

    SweepConfig storeConfig(const std::string &dir, bool resume) const
    {
        SweepConfig config = config_;
        config.outDir = dir;
        config.resume = resume;
        return config;
    }

    /** Check a store's artifacts against the reference. */
    void compare(const std::string &dir, const std::string &phase);

    /** Check a store's counters. */
    void checkStats(const std::string &dir, const std::string &phase,
                    std::uint64_t hits, std::uint64_t loaded);

    /** Plan, launch with an in-process worker, merge. */
    void campaignRun(const std::string &dir, PhaseTimes &times,
                     bool traced);

    /** run() rebuilt from its public stages, each under a span. */
    void tracedRun(const std::string &dir, const std::string &phase,
                   bool resume);

    /** characterize() with the store's cache, rebuilt per
     *  (cell, capacity) pair from cache lookups and store-less
     *  characterization. */
    std::vector<ArrayResult> tracedCharacterize(
        const SweepConfig &config, store::ResultStore &resultStore,
        const std::string &phase);

    /** checkpointSlot for every slot not in `done`, from `jobs` threads
     *  taking slot ranges in turn, as run()'s workers journal their
     *  slots concurrently. */
    void journalSlots(store::ResultStore &resultStore,
                      const std::vector<EvalResult> &results,
                      const std::map<std::size_t, EvalResult> &done,
                      const std::string &phase);

    const Options &options_;
    Result &result_;
    bool corruptPending_;
    SweepConfig config_;
    std::size_t slots_ = 0;
    std::size_t arrays_ = 0;
    StoreArtifacts reference_;
    /** stats.json of the last untraced run of each phase: the traced
     *  rebuild must reproduce it byte for byte. */
    std::map<std::string, std::string> untracedStats_;
};

Interval
SweepStore::setup(int attempt)
{
    auto begin = Clock::now();
    config_ = seededSweep(options_.seed);
    config_.jobs = options_.jobs;
    slots_ = sweepSlots(config_);
    arrays_ = config_.cells.size() * config_.capacitiesBytes.size() *
        config_.targets.size();

    // The reference: the same sweep evaluated in memory, with no store
    // at all, must serialize to the store's results.json.
    std::string inMemory = store::serializeResults(runSweep(config_));
    std::string dir = path("reference" + std::to_string(attempt));
    fs::remove_all(dir);
    runSweep(storeConfig(dir, false));
    reference_ = readArtifacts(dir);
    result_.check(reference_.json == inMemory,
                  "sweep_store: store-backed results.json differs from "
                  "the in-memory sweep");
    Interval took = since(begin);
    fs::remove_all(dir);
    return took;
}

void
SweepStore::describe(std::map<std::string, std::string> &facts) const
{
    auto join = [](const auto &items, auto name) {
        std::string out;
        for (const auto &item : items)
            out += (out.empty() ? "" : ",") + name(item);
        return out;
    };
    facts["sweep.slots"] = std::to_string(slots_);
    facts["sweep.arrays"] = std::to_string(arrays_);
    facts["sweep.campaign_shards"] = std::to_string(kShards);
    facts["sweep.cells"] = join(config_.cells, [](const MemCell &cell) {
        return cell.name;
    });
    facts["sweep.capacities_mib"] =
        join(config_.capacitiesBytes, [](double bytes) {
            return std::to_string((long)(bytes / (1024.0 * 1024.0)));
        });
    facts["sweep.targets"] = join(config_.targets, optTargetName);
    facts["sweep.traffics"] = std::to_string(config_.traffics.size());
    facts["sweep.reliability_specs"] =
        std::to_string(config_.reliability.size());
}

void
SweepStore::compare(const std::string &dir, const std::string &phase)
{
    StoreArtifacts got = readArtifacts(dir);
    if (corruptPending_) {
        flipByte(got.json);
        corruptPending_ = false;
    }
    result_.check(got == reference_,
                  "sweep_store: " + phase +
                      " artifacts differ from the reference");
}

void
SweepStore::checkStats(const std::string &dir, const std::string &phase,
                       std::uint64_t hits, std::uint64_t loaded)
{
    store::StoreStats stats = store::loadStats(dir);
    result_.check(stats.cacheHits == hits &&
                      stats.cacheLookups() == arrays_ &&
                      stats.checkpointLoaded == loaded &&
                      stats.checkpointComputed == slots_ - loaded,
                  "sweep_store: " + phase + " store counters");
}

void
SweepStore::campaignRun(const std::string &dir, PhaseTimes &times,
                        bool traced)
{
    fs::remove_all(dir);
    // One worker at a time: on the shared hosts this runs on, shards
    // run side by side finish 2x sooner than one after another only
    // part of the time (makespan 0.23 against 0.47 s, in host phases
    // lasting minutes), so a concurrent makespan measures the host.
    // One at a time, it is the campaign's own plan, shard and merge cost.
    campaign::LaunchOptions launch;
    launch.workers = 1;
    std::string spanDir = dir + ".spans";
    fs::create_directories(spanDir);
    // Each shard runs in a forked child; it records its own span in a
    // file because the parent cannot see the child's memory.
    campaign::ShardWorker worker = [&](std::size_t shard) -> int {
        double begin = nowUs();
        ParallelSweepRunner runner(1);
        campaign::runShard(dir, config_, shard, runner);
        if (traced) {
            std::ofstream(spanDir + "/" + std::to_string(shard))
                << std::to_string(begin) << " " << std::to_string(nowUs())
                << " " << ::getpid() << "\n";
        }
        return 0;
    };

    auto begin = Clock::now();
    bool launched = false;
    {
        Span run("campaign.run", "campaign");
        {
            Span plan("campaign.plan", "campaign");
            campaign::planCampaign(dir, config_, kShards);
        }
        long launchId = -1;
        {
            Span span("campaign.launch", "campaign");
            launchId = span.id();
            launched = campaign::launchCampaign(dir, launch, worker);
        }
        auto launchedAt = Clock::now();
        if (traced) {
            for (std::size_t shard = 0; shard < kShards; ++shard) {
                std::ifstream in(spanDir + "/" + std::to_string(shard));
                SpanRecord span;
                span.name = "campaign.shard";
                span.phase = "campaign";
                span.parent = launchId;
                in >> span.beginUs >> span.endUs >> span.pid;
                span.tid = span.pid;
                if (in)
                    Tracer::instance().import(span);
            }
        }
        {
            Span merge("campaign.merge", "campaign");
            campaign::mergeCampaign(dir);
        }
        times.merge = since(launchedAt);
    }
    times.makespan = since(begin);
    fs::remove_all(spanDir);

    result_.check(launched, "sweep_store: campaign launch failed");
    compare(campaign::mergedDir(dir), "campaign");
    // A retried shard is a failed operation even when the retry
    // succeeds.
    for (const auto &shard : campaign::campaignStatus(dir).shards) {
        result_.check(shard.attempts == 1,
                      "sweep_store: campaign shard " +
                          std::to_string(shard.shard) + " took " +
                          std::to_string(shard.attempts) + " attempts");
    }
    if (traced) {
        Tracer::instance().count(
            "campaign.merge.bytes",
            (double)treeBytes(campaign::mergedDir(dir)));
    }
}

PhaseTimes
SweepStore::untracedRep()
{
    PhaseTimes times;
    std::string dir = path("store");
    fs::remove_all(dir);

    SpeedProbe &probe = SpeedProbe::instance();
    probe.sample(options_.jobs);
    auto begin = Clock::now();
    runSweep(storeConfig(dir, false));
    times.cold = since(begin);
    probe.sample(options_.jobs);
    compare(dir, "cold");
    checkStats(dir, "cold", 0, 0);
    untracedStats_["cold"] = readFile(dir + "/stats.json");

    begin = Clock::now();
    runSweep(storeConfig(dir, false));
    times.warm = since(begin);
    probe.sample(options_.jobs);
    compare(dir, "warm");
    checkStats(dir, "warm", arrays_, 0);
    untracedStats_["warm"] = readFile(dir + "/stats.json");

    std::string resumeDir = path("resume");
    copyStore(dir, resumeDir);
    std::size_t kept = cutJournal(resumeDir);
    begin = Clock::now();
    runSweep(storeConfig(resumeDir, true));
    times.resume = since(begin);
    probe.sample(options_.jobs);
    compare(resumeDir, "resume");
    checkStats(resumeDir, "resume", arrays_, kept);
    untracedStats_["resume"] = readFile(resumeDir + "/stats.json");

    campaignRun(path("campaign"), times, false);
    probe.sample(options_.jobs);
    return times;
}

std::vector<ArrayResult>
SweepStore::tracedCharacterize(const SweepConfig &config,
                               store::ResultStore &resultStore,
                               const std::string &phase)
{
    std::size_t caps = config.capacitiesBytes.size();
    std::size_t pairs = config.cells.size() * caps;
    std::vector<std::vector<ArrayResult>> slots(pairs);
    long parent = Tracer::instance().current();
    std::atomic<std::size_t> next{0};

    auto body = [&] {
        for (std::size_t idx = next++; idx < pairs; idx = next++) {
            const MemCell &cell = config.cells[idx / caps];
            double capacity = config.capacitiesBytes[idx % caps];
            ArrayConfig ac;
            ac.capacityBytes = capacity;
            ac.wordBits = config.wordBits;
            ac.nodeNm = implementationNode(cell, config.nodeNm,
                                           config.sramNodeNm);
            std::vector<std::string> keys;
            std::vector<ArrayResult> cached(config.targets.size());
            std::size_t hits = 0, invalid = 0;
            {
                Span span("store.cache", phase, -1, parent);
                for (std::size_t t = 0; t < config.targets.size(); ++t) {
                    keys.push_back(store::ResultStore::characterizationKey(
                        cell, ac, config.targets[t]));
                    switch (resultStore.lookupArray(keys[t], cached[t])) {
                      case store::ResultStore::CacheOutcome::Hit:
                        ++hits;
                        break;
                      case store::ResultStore::CacheOutcome::HitInvalid:
                        ++invalid;
                        break;
                      case store::ResultStore::CacheOutcome::Miss:
                        break;
                    }
                }
            }
            if (invalid == keys.size())
                continue;
            if (hits == keys.size()) {
                slots[idx] = std::move(cached);
                continue;
            }
            // Any miss recomputes the whole pair once and refreshes
            // every target's entry, as the sweep engine does.
            SweepConfig one = config;
            one.cells = {cell};
            one.capacitiesBytes = {capacity};
            one.outDir.clear();
            std::vector<ArrayResult> best;
            {
                Span span("nvsim.characterize", phase, -1, parent);
                best = ParallelSweepRunner(1).characterize(one);
            }
            Tracer::instance().count("nvsim.arrays.sweep",
                                     (double)best.size());
            Span span("store.cache", phase, -1, parent);
            for (std::size_t t = 0; t < keys.size(); ++t) {
                if (best.empty())
                    resultStore.storeInvalid(keys[t]);
                else
                    resultStore.storeArray(keys[t], best[t]);
            }
            slots[idx] = std::move(best);
        }
    };
    std::vector<std::thread> workers;
    for (int w = 1; w < options_.jobs; ++w)
        workers.emplace_back(body);
    body();
    for (auto &worker : workers)
        worker.join();

    std::vector<ArrayResult> arrays;
    for (auto &slot : slots)
        arrays.insert(arrays.end(), slot.begin(), slot.end());
    return arrays;
}

void
SweepStore::journalSlots(store::ResultStore &resultStore,
                         const std::vector<EvalResult> &results,
                         const std::map<std::size_t, EvalResult> &done,
                         const std::string &phase)
{
    constexpr std::size_t kRange = 64;
    long parent = Tracer::instance().current();
    std::atomic<std::size_t> next{0};
    auto body = [&] {
        Span span("store.journal.write", phase, -1, parent);
        for (std::size_t begin = next.fetch_add(kRange);
             begin < results.size(); begin = next.fetch_add(kRange)) {
            std::size_t end = std::min(begin + kRange, results.size());
            for (std::size_t idx = begin; idx < end; ++idx) {
                if (!done.count(idx))
                    resultStore.checkpointSlot(idx, results[idx]);
            }
        }
    };
    std::vector<std::thread> workers;
    for (int w = 1; w < options_.jobs; ++w)
        workers.emplace_back(body);
    body();
    for (auto &worker : workers)
        worker.join();
}

void
SweepStore::tracedRun(const std::string &dir, const std::string &phase,
                      bool resume)
{
    Tracer &tracer = Tracer::instance();
    SweepConfig raw = storeConfig(dir, resume);
    {
        Span run("sweep.run", phase);
        SweepConfig storage;
        const SweepConfig *config = nullptr;
        {
            Span span("workload.expand", phase);
            config = &expandSweepWorkloads(raw, storage);
        }
        std::unique_ptr<store::ResultStore> resultStore;
        {
            Span span("store.open", phase);
            resultStore = std::make_unique<store::ResultStore>(
                config->outDir, config->cacheDir);
        }
        auto arrays = tracedCharacterize(*config, *resultStore, phase);
        std::vector<EvalResult> results;
        {
            Span span("eval", phase);
            results = ParallelSweepRunner(options_.jobs)
                          .evaluateAll(arrays, config->traffics,
                                       config->reliability);
        }
        std::string journal = dir + "/checkpoint.jsonl";
        std::map<std::size_t, EvalResult> done;
        {
            Span span(resume ? "store.journal.replay"
                             : "store.journal.write",
                      phase);
            done = resultStore->openCheckpoint(
                store::sweepFingerprint(*config), results.size(), resume);
        }
        auto opened = fs::file_size(journal);
        for (const auto &[idx, replayed] : done)
            results[idx] = replayed;
        journalSlots(*resultStore, results, done, phase);
        {
            Span span("store.journal.write", phase);
            resultStore->closeCheckpoint();
        }
        tracer.count("store.journal.replayed", (double)done.size());
        tracer.count("store.journal.lines",
                     (double)(results.size() - done.size()));
        tracer.count("store.journal.bytes",
                     (double)(fs::file_size(journal) - opened));
        {
            Span span("store.results", phase);
            resultStore->writeResults(results);
            resultStore->writeStats();
        }
        store::StoreStats stats = resultStore->stats();
        tracer.count("store.cache.hits", (double)stats.cacheHits);
        tracer.count("store.cache.misses", (double)stats.cacheMisses);
        tracer.count("store.cache.stores", (double)stats.cacheStores);
        tracer.count("store.cache.hits." + phase, (double)stats.cacheHits);
        tracer.count("store.cache.lookups." + phase,
                     (double)stats.cacheLookups());
        tracer.count("store.results.rows", (double)results.size());
        tracer.count("store.results.bytes",
                     (double)(fs::file_size(dir + "/results.json") +
                              fs::file_size(dir + "/results.csv")));
        tracer.count("eval.slots.sweep", (double)results.size());
    }
    compare(dir, phase + " (traced)");
    result_.check(readFile(dir + "/stats.json") == untracedStats_[phase],
                  "sweep_store: traced " + phase +
                      " stats.json differs from the untraced run's");
}

PhaseTimes
SweepStore::tracedRep()
{
    PhaseTimes times;
    std::string dir = path("traced");
    fs::remove_all(dir);

    SpeedProbe &probe = SpeedProbe::instance();
    probe.sample(options_.jobs);
    auto begin = Clock::now();
    tracedRun(dir, "cold", false);
    times.cold = since(begin);
    probe.sample(options_.jobs);

    begin = Clock::now();
    tracedRun(dir, "warm", false);
    times.warm = since(begin);
    probe.sample(options_.jobs);

    std::string resumeDir = path("traced_resume");
    copyStore(dir, resumeDir);
    cutJournal(resumeDir);
    begin = Clock::now();
    tracedRun(resumeDir, "resume", true);
    times.resume = since(begin);
    probe.sample(options_.jobs);

    campaignRun(path("traced_campaign"), times, true);
    probe.sample(options_.jobs);
    return times;
}

/** busy ms per repetition of span `name` in `phase`. */
double
perRep(const std::string &name, const std::string &phase, std::size_t reps)
{
    return selfMs(name, phase) / (double)reps;
}

} // namespace

Result
runSweepStore(const Options &options)
{
    Result result;
    SweepStore bench(options, result);

    std::vector<Interval> setupRuns;
    for (int i = 0; i < options.setups; ++i) {
        SpeedProbe::instance().sample(options.jobs);
        setupRuns.push_back(bench.setup(i));
    }
    Samples setups;
    for (const auto &run : setupRuns)
        setups.add(run.scaledSeconds(), run.seconds());
    result.putMedian("setup_s", setups, "s");

    // At least three repetitions, so every median has company.
    constexpr std::size_t kMinReps = 3;
    bench.describe(result.facts);
    result.facts["sweep.min_repetitions"] = std::to_string(kMinReps);
    auto begin = Clock::now();
    std::vector<PhaseTimes> untraced;
    while (untraced.size() < kMinReps ||
           secondsSince(begin) < options.seconds)
        untraced.push_back(bench.untracedRep());

    double slots = (double)bench.slots();
    if (!options.trace) {
        Samples cold, warm, resume, makespan, merge;
        for (const auto &t : untraced) {
            cold.add(slots / t.cold.scaledSeconds(), slots / t.cold.seconds());
            warm.add(slots / t.warm.scaledSeconds(), slots / t.warm.seconds());
            resume.add(slots / t.resume.scaledSeconds(),
                       slots / t.resume.seconds());
            makespan.add(t.makespan.scaledSeconds(), t.makespan.seconds());
            merge.add(t.merge.scaledSeconds(), t.merge.seconds());
        }
        result.putMedian("sweep.cold_slots_per_s", cold, "1/s");
        result.putMedian("sweep.warm_slots_per_s", warm, "1/s");
        result.putMedian("sweep.resume_slots_per_s", resume, "1/s");
        result.putMedian("campaign.makespan_s", makespan, "s");
        result.putMedian("campaign.merge_s", merge, "s");
        return result;
    }

    // Traced run: as many traced repetitions as untraced ones, so the
    // overhead compares like with like.
    Tracer::instance().enable(true);
    std::vector<PhaseTimes> traced;
    while (traced.size() < untraced.size())
        traced.push_back(bench.tracedRep());
    Tracer::instance().enable(false);

    std::size_t reps = traced.size();
    auto counters = Tracer::instance().counters();
    auto perRepCount = [&](const std::string &name) {
        return counters[name] / (double)reps;
    };
    double untracedTotal = 0.0, tracedTotal = 0.0;
    for (std::size_t i = 0; i < reps; ++i) {
        untracedTotal += untraced[i].total();
        tracedTotal += traced[i].total();
    }
    result.facts["trace.untraced_s.sweep_store"] =
        std::to_string(untracedTotal);
    result.facts["trace.traced_s.sweep_store"] = std::to_string(tracedTotal);
    result.put("trace.overhead_share.sweep_store",
               tracedTotal / untracedTotal - 1.0, "share", reps);

    result.put("store.cache.busy_ms", perRep("store.cache", "*", reps),
               "ms", reps);
    result.put("store.cache.busy_ms.cold", perRep("store.cache", "cold", reps),
               "ms", reps);
    result.put("store.cache.busy_ms.warm", perRep("store.cache", "warm", reps),
               "ms", reps);
    result.put("store.cache.hits", perRepCount("store.cache.hits"), "count",
               reps);
    result.put("store.cache.misses", perRepCount("store.cache.misses"),
               "count", reps);
    result.put("store.cache.stores", perRepCount("store.cache.stores"),
               "count", reps);
    double lookups = counters["store.cache.hits"] +
        counters["store.cache.misses"];
    result.put("store.cache.hit_ratio", counters["store.cache.hits"] / lookups,
               "share", reps);
    result.put("store.cache.hit_ratio.warm",
               counters["store.cache.hits.warm"] /
                   counters["store.cache.lookups.warm"],
               "share", reps);

    result.put("store.journal.write_busy_ms",
               perRep("store.journal.write", "*", reps), "ms", reps);
    for (const char *phase : {"cold", "warm", "resume"}) {
        result.put(std::string("store.journal.write_busy_ms.") + phase,
                   perRep("store.journal.write", phase, reps), "ms", reps);
    }
    result.put("store.journal.lines", perRepCount("store.journal.lines"),
               "count", reps);
    result.put("store.journal.bytes", perRepCount("store.journal.bytes"),
               "B", reps);
    result.put("store.journal.replay_busy_ms",
               perRep("store.journal.replay", "resume", reps), "ms", reps);
    result.put("store.journal.replayed",
               perRepCount("store.journal.replayed"), "count", reps);

    result.put("store.results.busy_ms", perRep("store.results", "*", reps),
               "ms", reps);
    for (const char *phase : {"cold", "warm", "resume"}) {
        result.put(std::string("store.results.busy_ms.") + phase,
                   perRep("store.results", phase, reps), "ms", reps);
    }
    result.put("store.results.rows", perRepCount("store.results.rows"),
               "count", reps);
    result.put("store.results.bytes", perRepCount("store.results.bytes"),
               "B", reps);

    result.put("campaign.plan.busy_ms", perRep("campaign.plan", "*", reps),
               "ms", reps);
    result.put("campaign.shard.busy_ms", perRep("campaign.shard", "*", reps),
               "ms", reps);
    result.put("campaign.merge.busy_ms", perRep("campaign.merge", "*", reps),
               "ms", reps);
    result.put("campaign.merge.bytes", perRepCount("campaign.merge.bytes"),
               "B", reps);

    result.put("nvsim.characterize.busy_ms.sweep",
               perRep("nvsim.characterize", "*", reps), "ms", reps);
    result.put("eval.busy_ms.sweep", perRep("eval", "*", reps), "ms", reps);
    result.put("eval.slots.sweep", perRepCount("eval.slots.sweep"), "count",
               reps);
    return result;
}

} // namespace perfbench
