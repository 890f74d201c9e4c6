/**
 * @file
 * shipped_configs: rounds over every study config in config/ through
 * loadExperimentFile + runExperiment, in process, with no store and one
 * worker thread — the path the CLI and the figure studies take. The
 * seed shuffles the order within each round; every round's tables
 * must match the reference round computed in set-up. No serialization
 * runs here, so a serializer change should move nothing.
 */

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "bench.hh"
#include "core/config.hh"
#include "core/dashboard.hh"
#include "core/parallel_sweep.hh"
#include "metrics/metric.hh"
#include "metrics/refine.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace fs = std::filesystem;
using namespace nvmexp;

namespace perfbench {
namespace {

std::string
render(const Table &table)
{
    std::ostringstream out;
    table.print(out);
    return out.str();
}

/** The dashboard table runExperiment builds from refined rows. */
Table
dashboardTable(const ExperimentConfig &config,
               const std::vector<EvalResult> &results)
{
    std::vector<const DashboardColumn *> active;
    std::vector<std::string> headers;
    for (const auto &column : dashboardColumns()) {
        if (column.reliability && !config.showReliability)
            continue;
        active.push_back(&column);
        headers.push_back(column.header);
    }
    Table table(config.name, headers);
    for (const auto &ev : results) {
        table.row();
        for (const DashboardColumn *column : active) {
            if (!column->metric.empty()) {
                const auto &m = metrics::MetricRegistry::instance().require(
                    column->metric, "dashboard schema");
                table.add(m.eval(ev) * column->scale);
            } else if (column->header == "Cell") {
                table.add(ev.array.cell.name);
            } else if (column->header == "Traffic") {
                table.add(ev.traffic.name);
            } else if (column->header == "Viable") {
                table.add(ev.viable() ? "yes" : "no");
            } else if (column->header == "ECC") {
                table.add(ev.reliability.scheme);
            } else if (column->header == "Scrub[s]") {
                table.add(ev.reliability.scrubIntervalSec);
            } else {
                table.add("?");
            }
        }
    }
    return table;
}

class ShippedConfigs
{
  public:
    ShippedConfigs(const Options &options, Result &result)
        : options_(options), result_(result),
          corruptPending_(options.corrupt)
    {
    }

    /** List the configs and compute the reference tables. */
    Interval setup();

    /** One round in seeded order. */
    Interval round(std::size_t index, bool traced);

    std::size_t configs() const { return paths_.size(); }
    /** Most worker threads any config resolved to. */
    int jobs() const { return jobs_; }

  private:
    /** loadExperimentFile with any store or CSV output switched off;
     *  `writes` reports whether the config asked for one. */
    static ExperimentConfig load(const std::string &path, bool &writes);

    /** runExperiment rebuilt from its stages, each under a span. */
    std::string tracedExperiment(const std::string &path, bool &writes);

    const Options &options_;
    Result &result_;
    bool corruptPending_;
    std::vector<std::string> paths_;
    std::map<std::string, std::string> reference_;
    int jobs_ = 0;
};

ExperimentConfig
ShippedConfigs::load(const std::string &path, bool &writes)
{
    ExperimentConfig config = loadExperimentFile(path);
    writes = !config.sweep.outDir.empty() || !config.outputCsv.empty();
    config.sweep.outDir.clear();
    config.outputCsv.clear();
    return config;
}

Interval
ShippedConfigs::setup()
{
    auto begin = Clock::now();
    paths_.clear();
    for (const auto &entry : fs::directory_iterator(options_.root +
                                                    "/config")) {
        if (entry.path().extension() == ".json")
            paths_.push_back(entry.path().string());
    }
    std::sort(paths_.begin(), paths_.end());
    for (const auto &path : paths_) {
        bool writes = false;
        ExperimentConfig config = load(path, writes);
        jobs_ = std::max(jobs_, ThreadPool::resolveJobs(config.sweep.jobs));
        reference_[path] = render(runExperiment(config));
        result_.check(!writes, "shipped_configs: " + path +
                                   " asks for a store or a CSV");
    }
    return since(begin);
}

std::string
ShippedConfigs::tracedExperiment(const std::string &path, bool &writes)
{
    Tracer &tracer = Tracer::instance();
    std::string phase = fs::path(path).stem().string();
    Span run("shipped.experiment", phase);
    ExperimentConfig config;
    {
        Span span("core.config", phase);
        config = load(path, writes);
    }
    SweepConfig storage;
    const SweepConfig *sweep = nullptr;
    {
        Span span("workload.expand", phase);
        sweep = &expandSweepWorkloads(config.sweep, storage);
    }
    tracer.count("workload.calls", (double)config.sweep.workloads.size());
    tracer.count("workload.traffics_out",
                 (double)(sweep->traffics.size() -
                          config.sweep.traffics.size()));
    ParallelSweepRunner runner(sweep->jobs);
    std::vector<ArrayResult> arrays;
    {
        Span span("nvsim.characterize", phase);
        arrays = runner.characterize(*sweep);
    }
    tracer.count("nvsim.arrays", (double)arrays.size());
    std::vector<EvalResult> results;
    {
        Span span("eval", phase);
        results = sweep->batch
            ? runner.evaluateAll(arrays, sweep->traffics, sweep->reliability)
            : runner.evaluateAllScalar(arrays, sweep->traffics,
                                       sweep->reliability);
    }
    tracer.count("eval.slots", (double)results.size());
    tracer.count("metrics.refine.rows_in", (double)results.size());
    {
        Span span("metrics.refine", phase);
        std::string context = "config '" + config.name + "'";
        if (config.applyConstraints)
            results = config.constraints.filter(results);
        if (!config.paretoMetrics.empty()) {
            results = metrics::paretoByMetrics(results,
                                               config.paretoMetrics, context);
        }
        if (!config.topMetric.empty()) {
            results = metrics::topByMetric(results, config.topMetric,
                                           config.topK, context);
        }
    }
    tracer.count("metrics.refine.rows_out", (double)results.size());
    Span span("core.dashboard", phase);
    return render(dashboardTable(config, results));
}

Interval
ShippedConfigs::round(std::size_t index, bool traced)
{
    std::vector<std::string> order = paths_;
    Rng rng(options_.seed * 0x9E3779B97F4A7C15ull + index);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.range(i)]);

    std::vector<std::string> tables;
    std::vector<char> wrote;
    auto begin = Clock::now();
    for (const auto &path : order) {
        bool writes = false;
        tables.push_back(traced ? tracedExperiment(path, writes)
                                : render(runExperiment(load(path, writes))));
        wrote.push_back(writes);
    }
    Interval took = since(begin);
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (corruptPending_) {
            flipByte(tables[i]);
            corruptPending_ = false;
        }
        result_.check(tables[i] == reference_[order[i]] && !wrote[i],
                      "shipped_configs: " + order[i] +
                          (traced ? " (traced)" : "") +
                          " table differs from the reference round");
    }
    return took;
}

} // namespace

Result
runShippedConfigs(const Options &options)
{
    Result result;
    ShippedConfigs bench(options, result);
    // One thread does all the work, so the host speed is sampled on
    // that thread, between rounds.
    SpeedProbe &probe = SpeedProbe::instance();
    auto lastProbe = Clock::now();
    auto sampleEvery = [&](double seconds) {
        if (secondsSince(lastProbe) >= seconds) {
            probe.sample(1);
            lastProbe = Clock::now();
        }
    };
    std::vector<Interval> setupRuns;
    for (int i = 0; i < options.setups; ++i) {
        probe.sample(1);
        setupRuns.push_back(bench.setup());
    }
    probe.sample(1);
    Samples setups;
    for (const auto &run : setupRuns)
        setups.add(run.scaledSeconds(), run.seconds());
    result.putMedian("setup_s", setups, "s");
    constexpr std::size_t kMinRounds = 10;
    constexpr std::size_t kWindows = 5;
    result.facts["shipped.configs"] = std::to_string(bench.configs());
    result.facts["shipped.jobs"] = std::to_string(bench.jobs());
    result.facts["shipped.min_rounds"] = std::to_string(kMinRounds);
    result.facts["shipped.windows"] = std::to_string(kWindows);
    std::vector<Interval> untraced;
    auto begin = Clock::now();
    while (untraced.size() < kMinRounds ||
           secondsSince(begin) < options.seconds) {
        sampleEvery(0.1);
        untraced.push_back(bench.round(untraced.size(), false));
    }
    probe.sample(1);
    std::vector<double> rounds, scaledRounds;
    for (const auto &round : untraced) {
        rounds.push_back(round.seconds() * 1e3);
        scaledRounds.push_back(round.scaledSeconds() * 1e3);
    }

    if (!options.trace) {
        // p50 and p90 are medians over kWindows consecutive windows of
        // rounds of each window's percentile, so a host stall spoils one
        // window's tail, not the result.
        Samples p50, p90;
        for (std::size_t w = 0; w < kWindows; ++w) {
            auto begin = (std::ptrdiff_t)(rounds.size() * w / kWindows);
            auto end = (std::ptrdiff_t)(rounds.size() * (w + 1) / kWindows);
            std::vector<double> raw(rounds.begin() + begin,
                                    rounds.begin() + end);
            std::vector<double> scaled(scaledRounds.begin() + begin,
                                       scaledRounds.begin() + end);
            p50.add(percentile(scaled, 0.5), percentile(raw, 0.5));
            p90.add(percentile(scaled, 0.9), percentile(raw, 0.9));
        }
        result.put("shipped.round_ms_p50", median(p50.scaled), "ms",
                   rounds.size(), median(p50.raw));
        result.put("shipped.round_ms_p90", median(p90.scaled), "ms",
                   rounds.size(), median(p90.raw));
        return result;
    }

    Tracer::instance().enable(true);
    std::vector<Interval> tracedRounds;
    while (tracedRounds.size() < rounds.size()) {
        sampleEvery(0.1);
        tracedRounds.push_back(bench.round(tracedRounds.size(), true));
    }
    probe.sample(1);
    std::vector<double> traced;
    for (const auto &round : tracedRounds)
        traced.push_back(round.seconds() * 1e3);
    Tracer::instance().enable(false);

    std::size_t n = traced.size();
    double untracedTotal = 0.0, tracedTotal = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        untracedTotal += rounds[i];
        tracedTotal += traced[i];
    }
    result.facts["trace.untraced_s.shipped_configs"] =
        std::to_string(untracedTotal / 1e3);
    result.facts["trace.traced_s.shipped_configs"] =
        std::to_string(tracedTotal / 1e3);
    result.put("trace.overhead_share.shipped_configs",
               tracedTotal / untracedTotal - 1.0, "share", n);

    auto counters = Tracer::instance().counters();
    auto perRound = [&](const std::string &counter) {
        return counters[counter] / (double)n;
    };
    auto busy = [&](const std::string &span) {
        return selfMs(span) / (double)n;
    };
    result.put("workload.busy_ms", busy("workload.expand"), "ms", n);
    result.put("workload.calls", perRound("workload.calls"), "count", n);
    result.put("workload.traffics_out", perRound("workload.traffics_out"),
               "count", n);
    result.put("core.config.busy_ms", busy("core.config"), "ms", n);
    result.put("core.dashboard.busy_ms", busy("core.dashboard"), "ms", n);
    result.put("nvsim.characterize.busy_ms", busy("nvsim.characterize"),
               "ms", n);
    result.put("nvsim.arrays", perRound("nvsim.arrays"), "count", n);
    result.put("eval.busy_ms", busy("eval"), "ms", n);
    result.put("eval.slots", perRound("eval.slots"), "count", n);
    result.put("metrics.refine.busy_ms", busy("metrics.refine"), "ms", n);
    result.put("metrics.refine.rows_in", perRound("metrics.refine.rows_in"),
               "count", n);
    result.put("metrics.refine.rows_out",
               perRound("metrics.refine.rows_out"), "count", n);
    return result;
}

} // namespace perfbench
