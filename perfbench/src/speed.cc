#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench.hh"

namespace perfbench {
namespace {

/** The reference kernel: sort seeded doubles, format a share of them
 *  at full precision, hash the text. ~1 ms on the reference host. */
double
referenceKernelMs()
{
    auto begin = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    std::vector<double> values(8000);
    for (auto &value : values) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        value = (double)(x >> 11) * 0x1.0p-53;
    }
    std::sort(values.begin(), values.end());
    std::string text;
    char buffer[32];
    for (std::size_t i = 0; i < 1000; ++i) {
        int n = std::snprintf(buffer, sizeof(buffer), "%.17g,",
                              values[i * 8]);
        text.append(buffer, (std::size_t)n);
    }
    std::uint64_t hash = 1469598103934665603ull;
    for (int pass = 0; pass < 8; ++pass) {
        for (unsigned char c : text) {
            hash ^= c;
            hash *= 1099511628211ull;
        }
    }
    volatile std::uint64_t sink = hash;
    (void)sink;
    return std::chrono::duration<double, std::milli>(Clock::now() - begin)
        .count();
}

/** CPU time of `clock` (a process or thread CPU clock), in ms. */
double
cpuMs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return (double)ts.tv_sec * 1e3 + (double)ts.tv_nsec / 1e6;
}

} // namespace

SpeedProbe::SpeedProbe()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    sched_getaffinity(0, sizeof(mask), &mask);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &mask))
            cpus_.push_back(cpu);
    }
}

SpeedProbe &
SpeedProbe::instance()
{
    static SpeedProbe probe;
    return probe;
}

void
SpeedProbe::sample(int cpus)
{
    // Writeback of what the last stretch wrote would otherwise run
    // during the probe (and the next stretch).
    ::sync();
    // The fastest of three runs: a preemption inflates one run, not
    // all three. `own` adds up the CPU time of the threads doing the
    // probe, so whatever else the process used meanwhile shows.
    auto best = [](double &own) {
        double cpuBegin = cpuMs(CLOCK_THREAD_CPUTIME_ID);
        double ms = referenceKernelMs();
        for (int i = 0; i < 2; ++i)
            ms = std::min(ms, referenceKernelMs());
        own = cpuMs(CLOCK_THREAD_CPUTIME_ID) - cpuBegin;
        return ms;
    };
    Probe probe;
    probe.atUs = nowUs();
    double processBegin = cpuMs(CLOCK_PROCESS_CPUTIME_ID);
    double callerBegin = cpuMs(CLOCK_THREAD_CPUTIME_ID);
    double own = 0.0;
    if (cpus <= 1) {
        double onCaller = 0.0;  // in the caller's time, added below
        probe.refMs = best(onCaller);
    } else {
        std::vector<int> ids(cpus_.begin(),
                             cpus_.begin() +
                                 std::min(cpus_.size(), (std::size_t)cpus));
        std::vector<double> times(ids.size()), owns(ids.size());
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < ids.size(); ++i) {
            threads.emplace_back([&, i] {
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(ids[i], &one);
                pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
                times[i] = best(owns[i]);
            });
        }
        for (auto &thread : threads)
            thread.join();
        for (std::size_t i = 0; i < times.size(); ++i) {
            probe.refMs += times[i] / (double)times.size();
            own += owns[i];
        }
    }
    own += cpuMs(CLOCK_THREAD_CPUTIME_ID) - callerBegin;
    // Busy: the process's other threads used more than 5% of the CPU
    // time the probe did (starting and joining the probe's threads
    // costs ~1%).
    double others = cpuMs(CLOCK_PROCESS_CPUTIME_ID) - processBegin - own;
    probe.busy = others > 0.05 * own;
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.push_back(probe);
}

std::vector<SpeedProbe::Probe>
SpeedProbe::counted() const
{
    std::vector<Probe> out;
    for (const auto &probe : samples_) {
        if (!probe.busy)
            out.push_back(probe);
    }
    return out.empty() ? samples_ : out;
}

double
SpeedProbe::scaleAt(double beginUs, double endUs) const
{
    constexpr double kWindowUs = 1e6;
    std::lock_guard<std::mutex> lock(mutex_);
    auto probes = counted();
    if (probes.empty())
        return 1.0;
    std::vector<double> near;
    for (const auto &probe : probes) {
        if (probe.atUs >= beginUs - kWindowUs &&
            probe.atUs <= endUs + kWindowUs)
            near.push_back(probe.refMs);
    }
    if (near.size() < 3) {
        // Too few probes in the window (a short run's edges): take the
        // three nearest to its middle.
        double middle = 0.5 * (beginUs + endUs);
        std::sort(probes.begin(), probes.end(),
                  [middle](const Probe &a, const Probe &b) {
                      return std::abs(a.atUs - middle) <
                          std::abs(b.atUs - middle);
                  });
        near.clear();
        for (std::size_t i = 0; i < std::min<std::size_t>(3, probes.size());
             ++i)
            near.push_back(probes[i].refMs);
    }
    return kNominalRefMs / median(near);
}

double
SpeedProbe::medianRefMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> all;
    for (const auto &probe : counted())
        all.push_back(probe.refMs);
    return median(all);
}

std::size_t
SpeedProbe::probes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_.size();
}

std::size_t
SpeedProbe::busyProbes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return (std::size_t)std::count_if(samples_.begin(), samples_.end(),
                                      [](const Probe &p) { return p.busy; });
}

double
Interval::scaledSeconds() const
{
    auto us = [](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t.time_since_epoch())
            .count();
    };
    return seconds() * SpeedProbe::instance().scaleAt(us(begin), us(end));
}

} // namespace perfbench
