/**
 * @file
 * serve_query: an in-process QueryServer over a store of a few
 * thousand seeded rows, driven by an open loop at a fixed rate, a
 * closed-loop saturation phase and sequential POST /reload calls.
 * Every response is byte-compared with the offline answer
 * (store::queryStore's loadResults + applyQuery, computed in set-up).
 *
 * The server (one worker) and its client (one keep-alive connection)
 * share one CPU. On the shared hosts this runs on, work spread over
 * several CPUs at once slows by 1.5-3x for minutes at a time while
 * single-threaded work does not; on one CPU, latency and throughput
 * follow the per-request cost, with no cross-CPU wake-ups or queueing
 * on a neighbour's stall.
 *
 * The query mix spans response encoding (filter shapes return a few to
 * hundreds of rows) and the query step (Pareto and top-k scan every
 * row), so a gain in one layer that costs the other shows. Full-store
 * dumps stay out of the mix: one 5 MB response would set p99 alone.
 */

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hh"
#include "core/parallel_sweep.hh"
#include "fixtures.hh"
#include "metrics/metric.hh"
#include "serve/index.hh"
#include "serve/server.hh"
#include "store/result_store.hh"
#include "util/json.hh"

namespace fs = std::filesystem;
using namespace nvmexp;

namespace perfbench {
namespace {

const char *const kShapes[] = {"filter", "pareto-2d", "pareto-3d", "top-k",
                               "pipeline"};
constexpr std::size_t kShapeCount = 5;
/** Distinct queries drawn per shape; requests pick among them. */
constexpr std::size_t kQueriesPerShape = 24;
constexpr std::size_t kReloads = 15;
constexpr std::size_t kOpenLoopPhases = 5;
constexpr std::size_t kSaturationBursts = 5;
constexpr int kServerJobs = 1;
constexpr int kConnections = 1;
/** Requests in each of the traced run's two sequential passes. */
constexpr std::size_t kTracedRequests = 1000;

/** Pins the calling thread to one CPU while in scope; threads it
 *  starts meanwhile inherit the pin. */
class Pinned
{
  public:
    explicit Pinned(int cpu)
    {
        pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_);
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    }

    ~Pinned()
    {
        pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }

    Pinned(const Pinned &) = delete;
    Pinned &operator=(const Pinned &) = delete;

  private:
    cpu_set_t saved_;
};

/** The last CPU of the calling thread's affinity mask. */
int
lastCpu()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    sched_getaffinity(0, sizeof(mask), &mask);
    int last = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &mask))
            last = cpu;
    }
    return last;
}

struct Query
{
    std::size_t shape = 0;
    std::string body;       ///< POST /query body
    std::string expected;   ///< offline answer, serialized
};

/** One served request's outcome. */
struct Sample
{
    std::size_t query = 0;
    Interval latency;    ///< from due (open loop) or send time to reply
    double lateMs = 0.0; ///< how late the generator sent it (as measured)
    bool ok = false;
};

std::string
number(double value)
{
    return JsonValue::makeNumber(value).dump(-1);
}

/** The value at quantile q of metric `name` over `rows`. */
double
quantileOf(const std::vector<EvalResult> &rows, const std::string &name,
           double q)
{
    const auto &metric = metrics::MetricRegistry::instance().require(
        name, "serve_query");
    std::vector<double> values;
    values.reserve(rows.size());
    for (const auto &row : rows)
        values.push_back(metric.eval(row));
    std::sort(values.begin(), values.end());
    auto at = (std::size_t)(q * (double)(values.size() - 1));
    return values[at];
}

/**
 * Query bodies over `rows`. Each shape's queries are stratified — query
 * i of n takes its filter quantile (or k) from the middle of the i-th
 * of n slices of a log-uniform range and cycles through the metric
 * choices — so the spread of answer sizes is fixed: most are a few
 * rows, some run to hundreds.
 */
std::vector<std::string>
queryBodies(std::size_t shape, const std::vector<EvalResult> &rows)
{
    // Every metric list leads with one that varies per traffic pattern:
    // metrics fixed per array tie across its 144 rows, which would turn
    // every answer into whole-array blocks.
    const char *const filterMetrics[] = {"total_power", "latency_load",
                                         "dynamic_power"};
    const char *const pairs[][2] = {{"total_power", "read_latency"},
                                    {"total_power", "area_mm2"},
                                    {"latency_load", "read_energy"},
                                    {"dynamic_power", "leakage_power"}};
    const char *const triples[][3] = {
        {"total_power", "read_latency", "area_mm2"},
        {"total_power", "read_edp", "area_mm2"},
        {"latency_load", "read_energy", "leakage_power"}};
    const char *const topMetrics[] = {"read_edp", "total_power",
                                      "area_mm2", "read_latency"};
    std::vector<std::string> bodies;
    for (std::size_t i = 0; i < kQueriesPerShape; ++i) {
        // Slice midpoints, not random points: answer sizes then depend
        // on the shape alone, and the seed moves only the bounds' values
        // and the rows they select. p99 follows the largest answers, so
        // it would otherwise follow the seed.
        double slice = ((double)i + 0.5) / (double)kQueriesPerShape;
        // Log-uniform over [lo, hi]: most answers are small, a few run
        // to hundreds of rows.
        auto logUniform = [slice](double lo, double hi) {
            return lo * std::pow(hi / lo, slice);
        };
        auto clause = [&](double lo, double hi) {
            std::string metric = filterMetrics[(i / 4) % 3];
            double bound = quantileOf(rows, metric, logUniform(lo, hi));
            return "\"" + metric + "<=" + number(bound) + "\"";
        };
        std::string body;
        switch (shape) {
          case 0:
            body = "{\"constraints\": [" + clause(0.002, 0.1) + "]}";
            break;
          case 1: {
            const auto &pair = pairs[i % 4];
            body = "{\"constraints\": [" + clause(0.05, 1.0) +
                "], \"pareto\": [\"" + pair[0] + "\", \"" + pair[1] +
                "\"]}";
            break;
          }
          case 2: {
            const auto &triple = triples[i % 3];
            body = "{\"constraints\": [" + clause(0.05, 1.0) +
                "], \"pareto\": [\"" + triple[0] + "\", \"" + triple[1] +
                "\", \"" + triple[2] + "\"]}";
            break;
          }
          case 3:
            body = "{\"top_k\": {\"metric\": \"" +
                std::string(topMetrics[i % 4]) + "\", \"k\": " +
                std::to_string((int)logUniform(4.0, 129.0)) + "}}";
            break;
          default: {
            const auto &pair = pairs[i % 4];
            body = "{\"constraints\": [" + clause(0.05, 0.8) +
                "], \"pareto\": [\"" + pair[0] + "\", \"" + pair[1] +
                "\"], \"top_k\": {\"metric\": \"" +
                std::string(topMetrics[(i / 4) % 4]) + "\", \"k\": " +
                std::to_string(2 + (int)(15.0 * slice)) + "}}";
            break;
          }
        }
        bodies.push_back(body);
    }
    return bodies;
}

/** A store, its offline answers and a running server. */
class ServeFixture
{
  public:
    /** Sets the store up on every CPU, then starts the server's
     *  threads pinned to `cpu`. */
    ServeFixture(const Options &options, const std::string &dir, int cpu)
        : dir_(dir)
    {
        SweepConfig config = seededSweep(options.seed);
        config.jobs = options.jobs;
        config.outDir = dir;
        fs::remove_all(dir);
        runSweep(config);

        // queryStore(dir, q) is loadResults(dir) + applyQuery; the
        // rows are loaded once and every query applied to them.
        auto rows = store::loadResults(dir);
        rows_ = rows.size();
        for (std::size_t shape = 0; shape < kShapeCount; ++shape) {
            for (auto &body : queryBodies(shape, rows)) {
                auto answer = store::applyQuery(
                    rows, store::StoreQuery::fromJson(JsonValue::parse(body)));
                queries_.push_back(
                    {shape, body, store::serializeResults(answer)});
            }
        }

        serve::ServeOptions serveOptions;
        serveOptions.storeDir = dir;
        serveOptions.port = 0;
        serveOptions.jobs = kServerJobs;
        Pinned pin(cpu);
        server_ = std::make_unique<serve::QueryServer>(serveOptions);
        std::string error;
        if (!server_->start(error))
            throw std::runtime_error("serve_query: " + error);
        acceptLoop_ = std::thread([this] { server_->run(); });
    }

    ~ServeFixture()
    {
        server_->stop();
        acceptLoop_.join();
    }

    ServeFixture(const ServeFixture &) = delete;
    ServeFixture &operator=(const ServeFixture &) = delete;

    serve::QueryServer &server() { return *server_; }
    const std::vector<Query> &queries() const { return queries_; }
    const std::string &dir() const { return dir_; }
    std::size_t rows() const { return rows_; }

  private:
    std::string dir_;
    std::size_t rows_ = 0;
    std::vector<Query> queries_;
    std::unique_ptr<serve::QueryServer> server_;
    std::thread acceptLoop_;
};

class ServeQuery
{
  public:
    ServeQuery(const Options &options, Result &result)
        : options_(options), result_(result), cpu_(lastCpu()),
          corruptPending_(options.corrupt)
    {
    }

    Interval setup(int attempt)
    {
        auto begin = Clock::now();
        fixture_.reset();
        fixture_ = std::make_unique<ServeFixture>(
            options_, options_.tmp + "/serve_query/store" +
                          std::to_string(attempt),
            cpu_);
        return since(begin);
    }

    /** The seeded request sequence: blocks that each hold every
     *  query once, in seeded order, so every run sees the same mix. */
    std::vector<std::size_t> requests(std::size_t count, std::uint64_t salt)
    {
        Rng rng(options_.seed * 0x2545F4914F6CDD1Dull + salt);
        std::size_t distinct = fixture_->queries().size();
        std::vector<std::size_t> block(distinct), out;
        for (std::size_t i = 0; i < distinct; ++i)
            block[i] = i;
        while (out.size() < count) {
            for (std::size_t i = distinct; i > 1; --i)
                std::swap(block[i - 1], block[rng.range(i)]);
            out.insert(out.end(), block.begin(), block.end());
        }
        out.resize(count);
        return out;
    }

    /** Open loop: request i is due at i / rate; each connection takes
     *  the next due request. Latency counts from the due time.
     *  Clients run pinned to the server's CPU, here and below. */
    std::vector<Sample> openLoop(const std::vector<std::size_t> &sequence,
                                 double rate);

    /** Closed loop for `seconds` on every connection. @return the
     *  requests served and when. */
    std::pair<std::size_t, Interval> saturate(double seconds);

    /** Sequential POST /reload calls. @return each call's interval. */
    std::vector<Interval> reloads(std::size_t count);

    /** Traced pass: every request over HTTP, then rebuilt from direct
     *  calls into dispatch, the index query and the encoder.
     *  @return each HTTP exchange's interval. */
    std::vector<Interval>
    tracedPass(const std::vector<std::size_t> &sequence);

    /** Untraced sequential pass. @return each exchange's interval. */
    std::vector<Interval>
    sequentialPass(const std::vector<std::size_t> &sequence);

    void tracedReloads(std::size_t count);

    /** Record the outcome checks of `samples`. */
    void checkSamples(const std::vector<Sample> &samples,
                      const std::string &phase)
    {
        for (const auto &sample : samples) {
            result_.check(sample.ok,
                          "serve_query: " + phase + " response to " +
                              fixture_->queries()[sample.query].body +
                              " differs from the offline answer");
        }
    }

    int cpu() const { return cpu_; }

    /** Time the reference kernel on the serving CPU: the measured
     *  phases run there alone, so its speed is theirs. */
    void probe()
    {
        Pinned pin(cpu_);
        SpeedProbe::instance().sample(1);
    }
    ServeFixture &fixture() { return *fixture_; }

  private:
    /** One /query exchange; compares the body with the offline answer. */
    bool exchange(serve::HttpClient &client, std::size_t query,
                  std::string *body = nullptr)
    {
        const Query &q = fixture_->queries()[query];
        serve::HttpClientResult response;
        std::string error;
        bool ok = client.exchange("POST", "/query", q.body, response, error);
        if (corruptPending_.exchange(false))
            flipByte(response.body);
        ok = ok && response.status == 200 && response.body == q.expected;
        if (body)
            *body = std::move(response.body);
        return ok;
    }

    const Options &options_;
    Result &result_;
    int cpu_;
    std::atomic<bool> corruptPending_;
    std::unique_ptr<ServeFixture> fixture_;
};

std::vector<Sample>
ServeQuery::openLoop(const std::vector<std::size_t> &sequence, double rate)
{
    std::vector<Sample> samples(sequence.size());
    std::atomic<std::size_t> next{0};
    auto start = Clock::now() + std::chrono::milliseconds(20);
    auto dueOf = [&](std::size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>((double)i / rate));
    };
    auto body = [&] {
        Pinned pin(cpu_);
        serve::HttpClient client(fixture_->server().port());
        for (std::size_t i = next++; i < sequence.size(); i = next++) {
            auto due = dueOf(i);
            std::this_thread::sleep_until(due);
            auto sent = Clock::now();
            Sample &sample = samples[i];
            sample.query = sequence[i];
            sample.ok = exchange(client, sequence[i]);
            sample.latency = since(due);
            sample.lateMs =
                std::chrono::duration<double, std::milli>(sent - due).count();
        }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c)
        clients.emplace_back(body);
    for (auto &client : clients)
        client.join();
    return samples;
}

std::pair<std::size_t, Interval>
ServeQuery::saturate(double seconds)
{
    auto sequence = requests(100000, 2);
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<Sample>> perClient((std::size_t)kConnections);
    auto begin = Clock::now();
    auto deadline = begin + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
    auto body = [&](std::size_t c) {
        Pinned pin(cpu_);
        serve::HttpClient client(fixture_->server().port());
        while (Clock::now() < deadline) {
            std::size_t i = next++ % sequence.size();
            Sample sample;
            sample.query = sequence[i];
            sample.ok = exchange(client, sequence[i]);
            perClient[c].push_back(sample);
        }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c)
        clients.emplace_back(body, (std::size_t)c);
    for (auto &client : clients)
        client.join();
    Interval took = since(begin);
    std::size_t served = 0;
    for (const auto &samples : perClient) {
        checkSamples(samples, "saturation");
        served += samples.size();
    }
    return {served, took};
}

std::vector<Interval>
ServeQuery::reloads(std::size_t count)
{
    std::vector<Interval> calls;
    Pinned pin(cpu_);
    serve::HttpClient client(fixture_->server().port());
    for (std::size_t i = 0; i < count; ++i) {
        serve::HttpClientResult response;
        std::string error;
        auto begin = Clock::now();
        bool ok = client.exchange("POST", "/reload", "", response, error);
        calls.push_back(since(begin));
        bool rows = ok && JsonValue::parse(response.body)
                                  .at("rows")
                                  .asNumber() == (double)fixture_->rows();
        result_.check(ok && response.status == 200 && rows,
                      "serve_query: POST /reload");
    }
    return calls;
}

std::vector<Interval>
ServeQuery::sequentialPass(const std::vector<std::size_t> &sequence)
{
    Pinned pin(cpu_);
    serve::HttpClient client(fixture_->server().port());
    std::vector<Sample> samples;
    auto lastProbe = Clock::now();
    for (std::size_t query : sequence) {
        if (secondsSince(lastProbe) >= 0.2) {
            SpeedProbe::instance().sample(1);
            lastProbe = Clock::now();
        }
        auto begin = Clock::now();
        Sample sample;
        sample.query = query;
        sample.ok = exchange(client, query);
        sample.latency = since(begin);
        samples.push_back(sample);
    }
    checkSamples(samples, "sequential");
    std::vector<Interval> calls;
    for (const auto &sample : samples)
        calls.push_back(sample.latency);
    return calls;
}

std::vector<Interval>
ServeQuery::tracedPass(const std::vector<std::size_t> &sequence)
{
    Tracer &tracer = Tracer::instance();
    Pinned pin(cpu_);
    serve::HttpClient client(fixture_->server().port());
    auto index = fixture_->server().index();
    std::vector<Interval> calls;
    auto lastProbe = Clock::now();
    for (std::size_t i = 0; i < sequence.size(); ++i) {
        if (secondsSince(lastProbe) >= 0.2) {
            SpeedProbe::instance().sample(1);
            lastProbe = Clock::now();
        }
        const Query &q = fixture_->queries()[sequence[i]];
        const std::string shape = kShapes[q.shape];
        auto request = (long)i;
        Span span("serve.request", shape, request);
        std::string served;
        bool ok = false;
        auto httpBegin = Clock::now();
        {
            Span http("serve.http", shape, request);
            ok = exchange(client, sequence[i], &served);
        }
        calls.push_back(since(httpBegin));

        serve::HttpRequest direct;
        direct.method = "POST";
        direct.target = "/query";
        direct.version = "HTTP/1.1";
        direct.body = q.body;
        serve::HttpResponse dispatched;
        {
            Span dispatch("serve.dispatch", shape, request);
            dispatched = fixture_->server().dispatch(direct);
        }
        store::StoreQuery query =
            store::StoreQuery::fromJson(JsonValue::parse(q.body));
        std::vector<EvalResult> rows;
        {
            Span span("serve.query", shape, request);
            rows = index->query(query);
        }
        std::string encoded;
        {
            Span span("serve.encode", shape, request);
            encoded = store::serializeResults(rows);
        }
        result_.check(ok && dispatched.body == served && encoded == served,
                      "serve_query: traced " + shape +
                          " request: HTTP, dispatch and encoder disagree");
        tracer.count("serve.query.rows_out", (double)rows.size());
        tracer.count("serve.query.rows_out." + shape, (double)rows.size());
        tracer.count("serve.encode.bytes", (double)encoded.size());
        tracer.count("serve.encode.bytes." + shape, (double)encoded.size());
        tracer.count("serve.requests", 1.0);
        tracer.count("serve.requests." + shape, 1.0);
    }
    return calls;
}

void
ServeQuery::tracedReloads(std::size_t count)
{
    Pinned pin(cpu_);
    serve::HttpClient client(fixture_->server().port());
    for (std::size_t i = 0; i < count; ++i) {
        {
            Span span("serve.reload", "reload");
            serve::HttpClientResult response;
            std::string error;
            bool ok = client.exchange("POST", "/reload", "", response, error);
            result_.check(ok && response.status == 200,
                          "serve_query: traced POST /reload");
        }
        std::string error;
        std::shared_ptr<const serve::StoreIndex> index;
        {
            Span span("serve.index", "reload");
            index = serve::StoreIndex::load(fixture_->dir(), error);
        }
        result_.check(index && index->rows() == fixture_->rows(),
                      "serve_query: StoreIndex::load " + error);
        Tracer::instance().count("serve.index.loads", 1.0);
        Tracer::instance().count("serve.index.rows",
                                 index ? (double)index->rows() : 0.0);
    }
}

} // namespace

Result
runServeQuery(const Options &options)
{
    Result result;
    ServeQuery bench(options, result);
    SpeedProbe &probe = SpeedProbe::instance();
    std::vector<Interval> setupRuns;
    for (int i = 0; i < options.setups; ++i) {
        probe.sample(options.jobs);
        setupRuns.push_back(bench.setup(i));
    }
    probe.sample(options.jobs);
    Samples setups;
    for (const auto &run : setupRuns)
        setups.add(run.scaledSeconds(), run.seconds());
    result.putMedian("setup_s", setups, "s");
    result.facts["serve.rows"] = std::to_string(bench.fixture().rows());
    result.facts["serve.server_jobs"] = std::to_string(kServerJobs);
    result.facts["serve.connections"] = std::to_string(kConnections);
    result.facts["serve.cpu"] = std::to_string(bench.cpu());
    result.facts["serve.rate_rps"] = std::to_string(options.rate);
    result.facts["serve.queries"] =
        std::to_string(bench.fixture().queries().size());
    result.facts["serve.queries_per_shape"] =
        std::to_string(kQueriesPerShape);
    std::string shapes;
    for (const char *shape : kShapes)
        shapes += (shapes.empty() ? "" : ",") + std::string(shape);
    result.facts["serve.shapes"] = shapes;
    result.facts["serve.open_loop_phases"] = std::to_string(kOpenLoopPhases);
    result.facts["serve.reloads"] = std::to_string(kReloads);
    result.facts["serve.saturation_bursts"] =
        std::to_string(kSaturationBursts);

    // Warm-up: a short closed loop warms the server, its connection
    // and the CPU they share before anything is timed.
    bench.saturate(0.5);
    bench.probe();

    // --seconds sizes the open loop (rate x three fifths of it, rounded
    // to whole query blocks a phase) and bounds the saturation bursts
    // (a fifth of it); the reloads are a fixed count on top.
    // The open loop runs as kOpenLoopPhases phases and saturation as
    // kSaturationBursts bursts between them, so a host stall spoils one
    // phase's percentiles or one burst, not the medians over them.
    // Reloads run in three batches around the other phases, so their
    // median spans the run.
    std::vector<Interval> reloadCalls;
    Samples saturationRps;
    auto reloadBatch = [&] {
        for (const auto &call : bench.reloads(kReloads / 3))
            reloadCalls.push_back(call);
        bench.probe();
    };
    // Each phase is whole blocks of the query set, so every phase holds
    // each query equally often: a phase's p99 (its 3rd-largest latency
    // at two blocks) then always falls on the same answer sizes, not on
    // whichever large queries a partial block happened to draw.
    auto distinct = (double)bench.fixture().queries().size();
    auto count = (std::size_t)distinct *
        (std::size_t)std::max(1.0, std::round(options.rate * options.seconds *
                                             0.6 / (double)kOpenLoopPhases /
                                             distinct));
    std::vector<std::vector<Sample>> openPhases;
    for (std::size_t phase = 0; phase < kOpenLoopPhases; ++phase) {
        if (!options.trace &&
            (phase == 0 || phase == kOpenLoopPhases / 2 + 1))
            reloadBatch();
        openPhases.push_back(bench.openLoop(bench.requests(count, 1 + phase),
                                            options.rate));
        bench.probe();
        bench.checkSamples(openPhases.back(), "open-loop");
        if (!options.trace && phase < kSaturationBursts) {
            auto [saturated, saturating] = bench.saturate(
                options.seconds / 5.0 / (double)kSaturationBursts);
            bench.probe();
            saturationRps.add((double)saturated / saturating.scaledSeconds(),
                              (double)saturated / saturating.seconds());
        }
    }
    Samples p50, p99;
    std::vector<double> late;
    std::size_t served = 0;
    for (const auto &samples : openPhases) {
        std::vector<double> latency, latencyRaw;
        for (const auto &sample : samples) {
            latency.push_back(sample.latency.scaledSeconds() * 1e3);
            latencyRaw.push_back(sample.latency.seconds() * 1e3);
            late.push_back(sample.lateMs);
        }
        p50.add(percentile(latency, 0.5), percentile(latencyRaw, 0.5));
        p99.add(percentile(latency, 0.99), percentile(latencyRaw, 0.99));
        served += samples.size();
    }
    result.facts["serve.open_loop_requests"] = std::to_string(served);

    if (!options.trace) {
        reloadBatch();
        Samples reloadMs;
        for (const auto &call : reloadCalls)
            reloadMs.add(call.scaledSeconds() * 1e3, call.seconds() * 1e3);
        result.put("serve.p50_ms", median(p50.scaled), "ms", served,
                   median(p50.raw));
        result.put("serve.p99_ms", median(p99.scaled), "ms", served,
                   median(p99.raw));
        result.putMedian("serve.saturation_rps", saturationRps, "1/s");
        result.putMedian("serve.reload_ms", reloadMs, "ms");
        return result;
    }

    // Traced run: the same request sequence once untraced and once
    // traced, sequentially on one connection.
    auto traceSequence = bench.requests(kTracedRequests, 3);
    auto untracedCalls = bench.sequentialPass(traceSequence);
    Tracer::instance().enable(true);
    auto tracedCalls = bench.tracedPass(traceSequence);
    bench.tracedReloads(kReloads);
    Tracer::instance().enable(false);
    bench.probe();
    double untracedS = 0.0, tracedS = 0.0;
    for (const auto &call : untracedCalls)
        untracedS += call.seconds();
    for (const auto &call : tracedCalls)
        tracedS += call.seconds();

    result.facts["trace.untraced_s.serve_query"] = std::to_string(untracedS);
    result.facts["trace.traced_s.serve_query"] = std::to_string(tracedS);
    std::size_t n = traceSequence.size();
    result.put("trace.overhead_share.serve_query", tracedS / untracedS - 1.0,
               "share", n);
    result.put("loadgen.late_ms_p99", percentile(late, 0.99), "ms",
               late.size());

    auto counters = Tracer::instance().counters();
    double loads = counters["serve.index.loads"];
    result.put("serve.index.busy_ms", selfMs("serve.index") / loads, "ms",
               (std::size_t)loads);
    result.put("serve.index.rows", counters["serve.index.rows"] / loads,
               "count", (std::size_t)loads);
    // HTTP wait: each request's exchange time minus its dispatch time.
    std::map<long, double> waitMs;
    std::map<long, std::string> shapeOf;
    for (const auto &span : Tracer::instance().spans()) {
        double ms = (span.endUs - span.beginUs) / 1e3;
        if (span.name == "serve.http") {
            waitMs[span.request] += ms;
            shapeOf[span.request] = span.phase;
        } else if (span.name == "serve.dispatch") {
            waitMs[span.request] -= ms;
        }
    }
    for (const auto &[request, ms] : waitMs) {
        counters["serve.http.wait_ms"] += ms;
        counters["serve.http.wait_ms." + shapeOf[request]] += ms;
    }
    auto perShape = [&](const std::string &metric, const std::string &unit,
                        const std::string &span, const std::string &counter) {
        auto requests = counters["serve.requests"];
        result.put(metric,
                   (span.empty() ? counters[counter] : selfMs(span)) /
                       requests,
                   unit, (std::size_t)requests);
        for (const char *shape : kShapes) {
            auto shapeRequests =
                counters["serve.requests." + std::string(shape)];
            double value = span.empty()
                ? counters[counter + "." + shape]
                : selfMs(span, shape);
            result.put(metric + "." + shape, value / shapeRequests, unit,
                       (std::size_t)shapeRequests);
        }
    };
    perShape("serve.query.busy_ms", "ms", "serve.query", "");
    perShape("serve.query.rows_out", "count", "", "serve.query.rows_out");
    perShape("serve.encode.busy_ms", "ms", "serve.encode", "");
    perShape("serve.encode.bytes", "B", "", "serve.encode.bytes");
    perShape("serve.dispatch.busy_ms", "ms", "serve.dispatch", "");
    perShape("serve.http.wait_ms", "ms", "", "serve.http.wait_ms");
    return result;
}

} // namespace perfbench
