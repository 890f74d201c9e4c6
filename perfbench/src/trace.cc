#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <sys/syscall.h>

#include "bench.hh"
#include "util/json.hh"

namespace perfbench {

void
Result::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cerr << "perfbench: output check failed: " << what << "\n";
    }
}

void
Result::put(const std::string &name, double value, const std::string &unit,
            std::size_t samples, double raw)
{
    metrics_.push_back({name, value, unit, samples, raw});
}

void
Result::putMedian(const std::string &name, const Samples &samples,
                  const std::string &unit)
{
    put(name, median(samples.scaled), unit, samples.scaled.size(),
        median(samples.raw));
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest value with at least p of the samples
    // at or below it.
    auto rank = (std::size_t)std::ceil(p * (double)values.size());
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
flipByte(std::string &bytes)
{
    if (!bytes.empty())
        bytes[bytes.size() / 2] ^= 0x01;
}

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
        Clock::now().time_since_epoch()).count();
}

namespace {

/** Open spans of this thread, innermost last. */
thread_local std::vector<long> threadStack;

long
threadId()
{
    return (long)::syscall(SYS_gettid);
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

long
Tracer::open(const std::string &name, const std::string &phase,
             long request, long parent)
{
    SpanRecord span;
    span.name = name;
    span.phase = phase;
    span.request = request;
    span.parent = parent >= -1 ? parent
        : (threadStack.empty() ? -1 : threadStack.back());
    span.pid = (long)::getpid();
    span.tid = threadId();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        span.id = nextId_++;
        threadStack.push_back(span.id);
        span.beginUs = nowUs();
        openSpans_.emplace(span.id, span);
    }
    return span.id;
}

void
Tracer::close(long id)
{
    double end = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = openSpans_.find(id);
    if (it == openSpans_.end())
        return;
    it->second.endUs = end;
    spans_.push_back(std::move(it->second));
    openSpans_.erase(it);
    if (!threadStack.empty() && threadStack.back() == id)
        threadStack.pop_back();
}

long
Tracer::current() const
{
    return threadStack.empty() ? -1 : threadStack.back();
}

void
Tracer::import(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = nextId_++;
    spans_.push_back(std::move(span));
}

void
Tracer::count(const std::string &name, double delta)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += delta;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, double>
Tracer::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

std::map<long, double>
Tracer::selfTimesMs() const
{
    auto all = spans();
    std::map<long, std::vector<std::pair<double, double>>> children;
    for (const auto &span : all) {
        if (span.parent >= 0)
            children[span.parent].emplace_back(span.beginUs, span.endUs);
    }
    std::map<long, double> self;
    for (const auto &span : all) {
        double covered = 0.0;
        auto it = children.find(span.id);
        if (it != children.end()) {
            // Children on other threads may overlap: cover their union,
            // clipped to the parent's interval.
            auto intervals = it->second;
            std::sort(intervals.begin(), intervals.end());
            double reach = span.beginUs;
            for (auto [begin, end] : intervals) {
                begin = std::max(begin, reach);
                end = std::min(end, span.endUs);
                if (end > begin) {
                    covered += end - begin;
                    reach = end;
                }
            }
        }
        self[span.id] = (span.endUs - span.beginUs - covered) / 1000.0;
    }
    return self;
}

void
Tracer::writeChrome(const std::string &path,
                    const std::map<std::string, std::string> &context) const
{
    using nvmexp::JsonValue;
    JsonValue events = JsonValue::makeArray();
    for (const auto &span : spans()) {
        JsonValue event = JsonValue::makeObject();
        event.set("name", JsonValue::makeString(span.name));
        event.set("cat", JsonValue::makeString(
            span.phase.empty() ? "bench" : span.phase));
        event.set("ph", JsonValue::makeString("X"));
        event.set("ts", JsonValue::makeNumber(span.beginUs));
        event.set("dur", JsonValue::makeNumber(span.endUs - span.beginUs));
        event.set("pid", JsonValue::makeNumber((double)span.pid));
        event.set("tid", JsonValue::makeNumber((double)span.tid));
        JsonValue args = JsonValue::makeObject();
        args.set("id", JsonValue::makeNumber((double)span.id));
        args.set("parent", JsonValue::makeNumber((double)span.parent));
        if (span.request >= 0) {
            args.set("request",
                     JsonValue::makeNumber((double)span.request));
        }
        event.set("args", std::move(args));
        events.append(std::move(event));
    }
    JsonValue other = JsonValue::makeObject();
    for (const auto &[key, value] : context)
        other.set(key, JsonValue::makeString(value));
    JsonValue doc = JsonValue::makeObject();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", JsonValue::makeString("ms"));
    doc.set("otherData", std::move(other));
    doc.writeFile(path, -1);
}

double
selfMs(const std::string &name, const std::string &phase)
{
    auto self = Tracer::instance().selfTimesMs();
    double total = 0.0;
    for (const auto &span : Tracer::instance().spans()) {
        if (span.name == name && (phase == "*" || span.phase == phase)) {
            total += self[span.id];
        }
    }
    return total;
}

} // namespace perfbench
