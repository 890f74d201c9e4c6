/**
 * @file
 * Shared pieces of the end-to-end benchmark: run options, the result
 * record every pipeline fills, span tracing, and small timing and
 * statistics helpers.
 *
 * The benchmark drives the nvmexp library only through its public
 * headers. Every layer is timed from outside, around the calls into
 * it; nothing here reaches into the library's internals.
 */

#ifndef NVMEXP_PERFBENCH_BENCH_HH
#define NVMEXP_PERFBENCH_BENCH_HH

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `begin`. */
inline double
secondsSince(Clock::time_point begin)
{
    return std::chrono::duration<double>(Clock::now() - begin).count();
}

/** Microseconds on the steady clock. */
double nowUs();

/**
 * Host speed probe. The cores this benchmark runs on are shared, and
 * their speed drifts by up to ~1.5x for tens of seconds at a time;
 * every stage of a pipeline slows by about the same factor, so some
 * times as measured spread between runs of the same code past the
 * benchmark's bounds (perfbench/README.md has the figures). Between
 * timed stretches of work each pipeline flushes dirty pages and times
 * a fixed reference kernel (sort, number formatting, hashing; no nvmexp
 * code) on the CPUs it runs on. An end-to-end time is then reported at
 * nominal host speed, measured x kNominalRefMs / the median reference
 * time within a second of it, with the measured value next to it. A
 * probe during which other threads of the process used CPU does not
 * count, so library threads left busy cannot slow the probe and hide
 * their own cost.
 */
class SpeedProbe
{
  public:
    /** Reference-kernel time this benchmark calls nominal speed (its
     *  median on the 4-vCPU Xeon host the bounds were set on). */
    static constexpr double kNominalRefMs = 1.3;

    static SpeedProbe &instance();

    /** Flush dirty pages, then time the reference kernel and record
     *  it. With cpus <= 1 it runs on the calling thread (for
     *  single-threaded work); else on that many CPUs of the affinity
     *  mask the process started with, at once, one pinned thread each,
     *  recording the mean. Never call it while a timed stretch is
     *  running. */
    void sample(int cpus);

    /** kNominalRefMs / the reference time near [beginUs, endUs]:
     *  multiply a measured time by this to get nominal-speed time. */
    double scaleAt(double beginUs, double endUs) const;

    /** Median reference time over the run's counted probes (ms). */
    double medianRefMs() const;
    std::size_t probes() const;
    /** Probes that did not count: another thread was busy. */
    std::size_t busyProbes() const;

  private:
    /** Records the CPUs of the calling thread's affinity mask: the
     *  CPUs later probes run on, even from a thread pinned to one. */
    SpeedProbe();

    struct Probe
    {
        double atUs = 0.0;
        double refMs = 0.0;
        bool busy = false;
    };

    /** The probes that count, or every probe if none does. */
    std::vector<Probe> counted() const;

    std::vector<int> cpus_;
    mutable std::mutex mutex_;
    std::vector<Probe> samples_;
};

/** One timed stretch of work. */
struct Interval
{
    Clock::time_point begin;
    Clock::time_point end;

    /** As measured. */
    double seconds() const
    {
        return std::chrono::duration<double>(end - begin).count();
    }

    /** At nominal host speed (SpeedProbe). */
    double scaledSeconds() const;
};

/** The interval from `begin` to now. */
inline Interval
since(Clock::time_point begin)
{
    return {begin, Clock::now()};
}

/** Options of one pipeline run (one benchmark process). */
struct Options
{
    std::uint64_t seed = 1;
    double seconds = 5.0;     ///< measuring budget of this pipeline
    bool trace = false;       ///< traced per-layer run instead of timing
    int jobs = 1;             ///< threads + connections: CPUs in affinity
    std::string root = ".";   ///< checkout root (holds config/)
    std::string tmp;          ///< fresh scratch directory of this run
    std::string traceOut;     ///< Chrome trace-event file (trace mode)
    double rate = 0.0;        ///< serve_query open-loop rate, req/s
    int setups = 3;           ///< set-up repetitions behind setup_s
    bool corrupt = false;     ///< self-test: flip one output byte
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;       ///< at nominal host speed, if a time
    std::string unit;
    std::size_t samples = 0;  ///< observations behind the value
    double raw = NAN;         ///< as measured; NaN if never scaled
};

/** Observations of one time-based metric, at nominal host speed and
 *  as measured. */
struct Samples
{
    std::vector<double> scaled;
    std::vector<double> raw;

    void add(double scaledValue, double rawValue)
    {
        scaled.push_back(scaledValue);
        raw.push_back(rawValue);
    }
};

/**
 * What one pipeline run reports: operation counts for the correctness
 * oracle, and its metrics in report order.
 */
class Result
{
  public:
    /** Count one checked operation; a false `ok` is a failure. */
    void check(bool ok, const std::string &what);

    void put(const std::string &name, double value,
             const std::string &unit, std::size_t samples,
             double raw = NAN);

    /** The median of `samples`, scaled, with the measured median. */
    void putMedian(const std::string &name, const Samples &samples,
                   const std::string &unit);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<Metric> &metrics() const { return metrics_; }

    /** Free-form facts about the run (jobs, sizes, rate). */
    std::map<std::string, std::string> facts;

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
};

/** Median of `values` (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank percentile, p in [0, 1] (0 when empty). */
double percentile(std::vector<double> values, double p);

/** Whole file as bytes; empty when unreadable. */
std::string readFile(const std::string &path);

/** Flip one byte of `bytes` (the self-test's injected defect). */
void flipByte(std::string &bytes);

// --------------------------------------------------------------------
// Tracing

/** One closed span. Times are microseconds on the steady clock, which
 *  is shared by every process on the host (forked shards included). */
struct SpanRecord
{
    std::string name;
    std::string phase;        ///< phase or query shape ("" if none)
    double beginUs = 0.0;
    double endUs = 0.0;
    long id = 0;
    long parent = -1;         ///< -1 = root
    long request = -1;        ///< serve request id, -1 otherwise
    long pid = 0;
    long tid = 0;
};

/**
 * In-memory span and counter store. Disabled, every call is a no-op,
 * so the untraced timing paths never pay for it. Spans are written out
 * once, at exit, as Chrome trace-event JSON.
 */
class Tracer
{
  public:
    static Tracer &instance();

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span on this thread; children opened on the same thread
     *  until close() nest under it. `parent` overrides the thread's
     *  current span (for work handed to another thread). */
    long open(const std::string &name, const std::string &phase,
              long request = -1, long parent = -2);
    void close(long id);

    /** The span currently open on this thread (-1 if none). */
    long current() const;

    /** Add a span recorded elsewhere (a forked shard process). */
    void import(SpanRecord span);

    /** Add `delta` to counter `name`. */
    void count(const std::string &name, double delta);

    std::vector<SpanRecord> spans() const;
    std::map<std::string, double> counters() const;

    /** Self time per span: its duration minus the union of its
     *  children's intervals, in ms, keyed by span id. */
    std::map<long, double> selfTimesMs() const;

    /** Write every span as Chrome trace-event JSON; `context` lands in
     *  the file's otherData block. */
    void writeChrome(const std::string &path,
                     const std::map<std::string, std::string> &context)
        const;

  private:
    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;        ///< closed spans
    std::map<long, SpanRecord> openSpans_;
    std::map<std::string, double> counters_;
    long nextId_ = 0;
};

/** RAII span around one call into a layer. */
class Span
{
  public:
    explicit Span(const std::string &name, const std::string &phase = "",
                  long request = -1, long parent = -2)
        : id_(Tracer::instance().enabled()
                  ? Tracer::instance().open(name, phase, request, parent)
                  : -1)
    {
    }
    ~Span()
    {
        if (id_ >= 0)
            Tracer::instance().close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    long id() const { return id_; }

  private:
    long id_;
};

/** Sum of self times (ms) of the spans named
 *  `name`, optionally only in `phase` ("*" = any phase). */
double selfMs(const std::string &name, const std::string &phase = "*");


// --------------------------------------------------------------------
// Pipelines

Result runSweepStore(const Options &options);
Result runShippedConfigs(const Options &options);
Result runServeQuery(const Options &options);

} // namespace perfbench

#endif // NVMEXP_PERFBENCH_BENCH_HH
